//! Workspace-level integration tests for the static program verifier:
//! the `tests/analysis/` corpus of crafted-bad `.s` files golden-pins
//! the analyzer's canonical JSON diagnostics, fuzz-generated programs
//! must verify fully clean, every Table 1 suite kernel must verify
//! error-free, and the `--verify` CLI must map verdicts onto its
//! documented 0/1/2/3 exit codes.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_sim::isa::{analysis, asm_text};
use contopt_sim::{JsonValue, Scenario, ToJson};
use std::path::{Path, PathBuf};
use std::process::Command;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/analysis")
}

fn corpus_sources() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/analysis exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_diagnostics_are_golden_pinned() {
    let files = corpus_sources();
    assert!(
        files.len() >= 6,
        "corpus holds the crafted-bad programs: {files:?}"
    );
    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        let (_, report) = asm_text::parse_and_verify(&src)
            .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        assert!(
            report.has_errors(),
            "{} is in the corpus because it is bad",
            path.display()
        );
        let golden = path.with_extension("json");
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("{} golden missing: {e}", golden.display()));
        assert_eq!(
            report.to_json().to_string() + "\n",
            expected,
            "diagnostics drifted for {}; update {} intentionally",
            path.display(),
            golden.display()
        );
    }
}

#[test]
fn corpus_covers_every_pinned_error_kind() {
    // Each crafted file must trip the kind it is named for, with a span.
    for (stem, kind) in [
        ("use_before_init", "use_before_init"),
        ("wild_jump", "wild_jump"),
        ("oob_store", "out_of_bounds"),
        ("misaligned", "misaligned"),
        ("unbounded_loop", "unbounded_loop"),
        ("fall_off_end", "fall_off_end"),
    ] {
        let path = corpus_dir().join(format!("{stem}.s"));
        let src = std::fs::read_to_string(&path).unwrap();
        let (_, report) = asm_text::parse_and_verify(&src).unwrap();
        let hit = report.errors.iter().find(|e| e.kind.code() == kind);
        let hit = hit.unwrap_or_else(|| panic!("{stem}.s must report {kind}: {report}"));
        assert!(
            hit.span.is_some(),
            "text-parsed findings carry source spans: {hit:?}"
        );
    }
}

#[test]
fn fuzz_generated_programs_verify_clean_for_64_seeds() {
    // The property the generator promises by construction, checked by
    // the analyzer: no finding of any severity, every loop proved.
    for seed in 1..=64 {
        let report = analysis::verify(&contopt_sim::fuzz::program_for_seed(seed));
        assert!(report.is_clean(), "seed {seed}: {report}");
        assert_eq!(report.proved_loops, report.loops, "seed {seed}: {report}");
    }
}

#[test]
fn all_suite_kernels_verify_without_errors() {
    let suite = contopt_sim::workloads::suite();
    assert_eq!(suite.len(), 24, "the whole Table 1 suite");
    for w in suite {
        let report = analysis::verify(&w.program);
        assert!(!report.has_errors(), "{}: {report}", w.name);
    }
}

#[test]
fn verify_cli_maps_verdicts_to_exit_codes() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_contopt-experiments"))
            .current_dir(&repo)
            .args(args)
            .output()
            .expect("driver runs")
    };
    // Error-severity corpus file -> 1.
    let out = run(&["--verify", "tests/analysis/oob_store.s"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("out_of_bounds"),
        "{out:?}"
    );
    // Warnings-only kernel -> 2; --allow-warnings downgrades to 0.
    let hjoin = "crates/workloads/src/kernels/hjoin.s";
    assert_eq!(run(&["--verify", hjoin]).status.code(), Some(2));
    assert_eq!(
        run(&["--verify", hjoin, "--allow-warnings"]).status.code(),
        Some(0)
    );
    // A clean kernel and a clean scenario programs block -> 0.
    let out = run(&[
        "--verify",
        "crates/workloads/src/kernels/ptrch.s",
        "scenarios/asm_smoke.json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // Unreadable -> 3, and --json reports the machine-readable verdict.
    let out = run(&["--verify", "tests/analysis/does_not_exist.s", "--json"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("\"exit_code\": 3"),
        "{out:?}"
    );
}

/// `--verify PATH [--json]`: the exit code and stdout, with `PATH`
/// replaced by `<path>` so one program's outputs compare across files.
fn verify_cli(path: &Path, json: bool) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_contopt-experiments"));
    cmd.arg("--verify").arg(path);
    if json {
        cmd.arg("--json");
    }
    let out = cmd.output().expect("driver runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    (
        out.status.code(),
        stdout.replace(&path.display().to_string(), "<path>"),
    )
}

#[test]
fn one_program_text_reports_the_same_findings_from_every_intake() {
    // The same text as a bare .s file, as a scenario's "file" program and
    // as a scenario's inline "source": every intake assembles it once and
    // keeps the same spanned findings.
    let text = std::fs::read_to_string(corpus_dir().join("use_before_init.s")).unwrap();
    let dir = std::env::temp_dir().join(format!("contopt-intake-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let asm = dir.join("prog.s");
    std::fs::write(&asm, &text).unwrap();
    let scenario = |file: &str, program: String| {
        let path = dir.join(file);
        std::fs::write(
            &path,
            format!(
                r#"{{"version": 1, "name": "s", "insts": 1,
                "programs": [{{"name": "prog", {program}}}],
                "configs": [{{"label": "a", "workloads": ["prog"], "machine": {{}}}}]}}"#
            ),
        )
        .unwrap();
        path
    };
    let from_file = scenario("file.json", r#""file": "prog.s""#.to_string());
    let source = JsonValue::from(text.as_str());
    let inline = scenario("inline.json", format!(r#""source": {source}"#));

    // The loader refuses both with the same spanned finding.
    let refusal = |path: &Path| Scenario::load(path).unwrap_err().to_string();
    assert_eq!(refusal(&from_file), refusal(&inline));
    assert!(
        refusal(&from_file).contains("error[use_before_init] 5:9 (inst 0 @ 0x1000)"),
        "{}",
        refusal(&from_file)
    );

    // --verify prints the same findings and exit code for all three.
    for json in [false, true] {
        let expected = verify_cli(&inline, json);
        assert_eq!(verify_cli(&from_file, json), expected, "json: {json}");
        assert_eq!(verify_cli(&asm, json), expected, "json: {json}");
        assert_eq!(expected.0, Some(1));
    }
    let (_, json) = verify_cli(&from_file, true);
    assert!(json.contains(r#""line": 8"#), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}
