//! What every result is stamped with, so numbers taken on different hosts
//! or commits can be told apart: commit and dirty flag, a digest of the
//! sources (which works where the checkout is not a git repository), CPU
//! model, core count, compiler version and the workload seed.

use crate::Args;
use contopt_sim::JsonValue;
use std::path::Path;
use std::process::{Command, Stdio};

/// Files whose content identifies the code under test.
const SOURCE_ROOTS: [&str; 4] = [
    "crates",
    "perfbench/src",
    "Cargo.lock",
    "scenarios/fig9.json",
];

/// Collects the stamp for one invocation.
pub fn collect(args: &Args) -> JsonValue {
    let commit = run("git", &["rev-parse", "HEAD"]);
    let dirty = commit.as_ref().and_then(|_| {
        run("git", &["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty())
    });
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let opt = |v: Option<String>| v.map_or(JsonValue::Null, JsonValue::from);
    JsonValue::obj([
        ("workload", args.workload.name().into()),
        ("seed", args.seed.into()),
        ("trace", args.trace.into()),
        ("commit", opt(commit)),
        ("dirty", dirty.map_or(JsonValue::Null, JsonValue::from)),
        ("source_fnv", format!("{:016x}", source_digest()).into()),
        ("cpu", cpu.into()),
        ("nproc", crate::cells::nproc().into()),
        ("rustc", opt(run("rustc", &["--version"]))),
    ])
}

/// Runs a command and returns its trimmed standard output, if it succeeded.
fn run(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the paths and contents of the source files, in sorted order.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}
