//! The `contopt-client` command line rejects what it does not understand
//! before it connects anywhere.

use std::path::Path;
use std::process::Command;

#[test]
fn unknown_arguments_are_rejected_before_connecting() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (args, message) in [
        (
            &[
                "--scenario",
                "scenarios/smoke.json",
                "scenarios/asm_smoke.json",
            ][..],
            "unexpected argument \"scenarios/asm_smoke.json\": each --scenario takes one file",
        ),
        (
            &["--scenario", "scenarios/smoke.json", "--chek"],
            "unknown flag \"--chek\" (see --help)",
        ),
        (
            &["--ping", "--jbos", "2"],
            "unknown flag \"--jbos\" (see --help)",
        ),
    ] {
        // Nothing listens on the discard port: reaching the network would
        // report a connection error instead.
        let out = Command::new(env!("CARGO_BIN_EXE_contopt-client"))
            .current_dir(&repo)
            .args(["--addr", "127.0.0.1:9", "--retries", "1", "--check"])
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert_eq!(stderr, format!("contopt-client: {message}\n"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A scenario whose labels share one golden directory is refused when it
/// loads, before the client connects or checks a golden.
#[test]
fn colliding_labels_are_rejected_before_connecting() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = std::env::temp_dir().join(format!("contopt-client-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut sc = contopt_sim::Scenario::load(repo.join("scenarios/smoke.json")).unwrap();
    sc.configs[0].label = "fetch bound".into();
    sc.configs[1].label = "fetch_bound".into();
    let file = dir.join("collide.json");
    std::fs::write(&file, sc.canonical_json()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_contopt-client"))
        .args([
            "--addr",
            "127.0.0.1:9",
            "--retries",
            "1",
            "--check",
            "--scenario",
        ])
        .arg(&file)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert_eq!(
        stderr,
        format!(
            "contopt-client: {}: labels \"fetch bound\" and \"fetch_bound\" collide after \
             filesystem sanitization; rename one\n",
            file.display()
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}
