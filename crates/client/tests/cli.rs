//! The `contopt-client` command line rejects what it does not understand
//! before it connects anywhere.

use std::path::Path;
use std::process::Command;

#[test]
fn unknown_arguments_are_rejected_before_connecting() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (args, message) in [
        (
            "--retries 1 --check --scenario scenarios/smoke.json scenarios/asm_smoke.json",
            "unexpected argument \"scenarios/asm_smoke.json\": each --scenario takes one file",
        ),
        (
            "--retries 1 --check --scenario scenarios/smoke.json --chek",
            "unknown flag \"--chek\" (see --help)",
        ),
        (
            "--retries 1 --check --ping --jbos 2",
            "unknown flag \"--jbos\" (see --help)",
        ),
        // A ping reads only --addr and --timeout; only a check reads
        // --goldens and --allow-field, and a check prints no --json. A
        // flag the run would ignore is refused instead.
        (
            "--ping --scenario scenarios/smoke.json --check --goldens g",
            "--scenario does not apply to a --ping run",
        ),
        ("--ping --check", "--check does not apply to a --ping run"),
        ("--ping --json", "--json does not apply to a --ping run"),
        (
            "--ping --goldens g",
            "--goldens does not apply to a --ping run",
        ),
        (
            "--ping --allow-field pipeline",
            "--allow-field does not apply to a --ping run",
        ),
        ("--ping --jobs 2", "--jobs does not apply to a --ping run"),
        (
            "--ping --retries 1",
            "--retries does not apply to a --ping run",
        ),
        (
            "--scenario scenarios/smoke.json --goldens g",
            "--goldens does not apply to a run without --check",
        ),
        (
            "--scenario scenarios/smoke.json --allow-field pipeline",
            "--allow-field does not apply to a run without --check",
        ),
        (
            "--scenario scenarios/smoke.json --check --json",
            "--json does not apply to a --check run",
        ),
        // Only --scenario and --allow-field repeat; a second --addr is
        // refused instead of dialling only the first.
        ("--addr 127.0.0.1:1 --ping", "--addr may be given only once"),
    ] {
        // Nothing listens on the discard port: reaching the network would
        // report a connection error instead.
        let out = Command::new(env!("CARGO_BIN_EXE_contopt-client"))
            .current_dir(&repo)
            .args(["--addr", "127.0.0.1:9"])
            .args(args.split(' '))
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
