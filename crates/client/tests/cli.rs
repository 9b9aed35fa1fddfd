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
