//! The `contopt-client` command line rejects what it does not understand
//! before it connects anywhere.

use std::path::Path;
use std::process::Command;

#[test]
fn unknown_arguments_are_rejected_before_connecting() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (args, message) in [
        (
            "--retries 1 --check scenarios/asm_smoke.json --scenario scenarios/smoke.json",
            "unexpected argument \"scenarios/asm_smoke.json\" (see --help)",
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
            "--ping and --scenario are separate runs; give each its own invocation",
        ),
        ("--ping --check", "--check applies only to a --scenario run"),
        ("--ping --json", "--json applies only to a --scenario run"),
        (
            "--ping --goldens g",
            "--goldens applies only to a --check run",
        ),
        (
            "--ping --allow-field pipeline",
            "--allow-field applies only to a --check run",
        ),
        ("--ping --jobs 2", "--jobs applies only to a --scenario run"),
        (
            "--ping --retries 1",
            "--retries applies only to a --scenario run",
        ),
        (
            "--scenario scenarios/smoke.json --goldens g",
            "--goldens applies only to a --check run",
        ),
        (
            "--scenario scenarios/smoke.json --allow-field pipeline",
            "--allow-field applies only to a --check run",
        ),
        (
            "--scenario scenarios/smoke.json --check --json",
            "--json does not apply to a --check run",
        ),
        // Only --scenario and --allow-field repeat; a second --addr is
        // refused instead of dialling only the first.
        (
            "--addr 127.0.0.1:9 --addr 127.0.0.1:1 --ping",
            "--addr may be given only once",
        ),
        // An argument that begins with "--" is never a flag's value: the
        // flag lacks its value, and the next flag still counts as one.
        (
            "--scenario scenarios/smoke.json --goldens --check",
            "--goldens takes a directory",
        ),
        (
            "--scenario scenarios/smoke.json --allow-field --check",
            "--allow-field takes one or more JSON field paths",
        ),
        ("--addr --ping", "--addr takes HOST:PORT"),
        (
            "--scenario --check",
            "--scenario takes one or more scenario files",
        ),
        (
            "--retries 0 --scenario scenarios/smoke.json",
            "--retries takes a positive number, got \"0\"",
        ),
    ] {
        // Nothing listens on the discard port: reaching the network would
        // report a connection error instead.
        let out = Command::new(env!("CARGO_BIN_EXE_contopt-client"))
            .current_dir(&repo)
            .env("CONTOPT_SERVER", "127.0.0.1:9")
            .args(args.split(' '))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert_eq!(stderr, format!("contopt-client: {message}\n"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// `--scenario` and `--allow-field` take every value up to the next flag:
/// each file is submitted, here to a port where nothing listens.
#[test]
fn list_flags_take_every_value_up_to_the_next_flag() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = ["scenarios/smoke.json", "scenarios/asm_smoke.json"];
    let out = Command::new(env!("CARGO_BIN_EXE_contopt-client"))
        .current_dir(&repo)
        .args(["--addr", "127.0.0.1:9", "--retries", "1", "--scenario"])
        .args(files)
        .args(["--check", "--allow-field", "pipeline", "passes"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), files.len(), "{stderr}");
    for (line, file) in lines.iter().zip(files) {
        let refused = format!("contopt-client: {file}: cannot reach sweep server: ");
        assert!(line.starts_with(&refused), "{stderr}");
    }
    assert!(out.stdout.is_empty());
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
