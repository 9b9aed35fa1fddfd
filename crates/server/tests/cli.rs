//! The `contopt-server` command line rejects what it does not understand
//! before it binds or serves.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn unknown_arguments_are_rejected_before_serving() {
    for (args, message) in [
        (
            &["--addr", "127.0.0.1:0", "--jbos", "4"][..],
            "unknown flag \"--jbos\" (see --help)",
        ),
        (
            &["--addr", "127.0.0.1:0", "--jobs", "2", "4"],
            "unexpected argument \"4\" (see --help)",
        ),
        (
            &["--addr", "127.0.0.1:0", "--jobs", "1", "--jobs", "2"],
            "--jobs may be given only once",
        ),
        // An argument that begins with "--" is never a flag's value.
        (
            &["--addr", "--port-file", "/nonexistent/contopt.port"],
            "--addr takes HOST:PORT",
        ),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_contopt-server"))
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        // A server that accepted the arguments would serve until killed.
        let start = Instant::now();
        while child.try_wait().unwrap().is_none() && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(20));
        }
        if child.try_wait().unwrap().is_none() {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{args:?}: the server started serving");
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr, format!("contopt-server: {message}\n"), "{args:?}");
    }
}
