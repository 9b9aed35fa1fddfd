//! The `--verify` front-end: static program verification of `.s` files
//! and of a scenario's shipped `"programs"` block, reported per file
//! with the driver's 0/1/2/3 exit-code convention:
//!
//! * `0` — every program verified clean (or its warnings were allowed);
//! * `1` — at least one error-severity finding, or a file that failed to
//!   parse as assembler text / a scenario;
//! * `2` — warning-severity findings only, without `--allow-warnings`;
//! * `3` — a file could not be read at all.
//!
//! Every program comes through the scenario loader's intake,
//! [`ProgramSpec`]: a bare `.s` file becomes a spec named by its stem
//! under the default policy. Scenario files are decoded *leniently* here:
//! structure and semantics are enforced, but no program refuses the
//! file, so CI output names every finding instead of stopping at the
//! first. Each program gates by its [`VerifyPolicy`]'s
//! [`verdict`](VerifyPolicy::verdict), the loader's own ladder: a
//! `"skip"` program is reported but never gates, and a `"clean"`
//! program's warnings gate as errors — `--verify` is always at least as
//! strict as the loader.

use contopt_sim::{JsonValue, ProgramSpec, Scenario, ScenarioError, ToJson, Verdict, VerifyPolicy};
use std::path::Path;

/// The aggregate severity of a verification run, ordered by how loudly
/// CI should fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerifyOutcome {
    /// No findings that gate (clean, allowed warnings, or skipped).
    Clean,
    /// Warning-severity findings only, and warnings were not allowed.
    Warnings,
    /// Error-severity findings, or a file that failed to parse.
    Errors,
    /// A file could not be read.
    Unreadable,
}

impl VerifyOutcome {
    /// The driver's exit code for this outcome.
    pub fn exit_code(self) -> u8 {
        match self {
            VerifyOutcome::Clean => 0,
            VerifyOutcome::Errors => 1,
            VerifyOutcome::Warnings => 2,
            VerifyOutcome::Unreadable => 3,
        }
    }
}

/// The verification result for one input file.
#[derive(Debug, Clone)]
pub struct FileVerdict {
    /// The path as given on the command line.
    pub path: String,
    /// Why the file could not be verified at all (I/O or parse failure);
    /// `programs` is empty when set.
    pub failure: Option<String>,
    /// The file's programs, in declaration order, each with its policy
    /// and report.
    pub programs: Vec<ProgramSpec>,
    /// This file's aggregate outcome under the run's warning policy.
    pub outcome: VerifyOutcome,
}

/// Verifies one input file — `.s` assembler text by extension, a
/// scenario JSON file otherwise.
pub fn verify_file(path: &Path, allow_warnings: bool) -> FileVerdict {
    let shown = path.display().to_string();
    let failed = |failure: String, outcome| FileVerdict {
        path: shown.clone(),
        failure: Some(failure),
        programs: Vec::new(),
        outcome,
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return failed(format!("cannot read: {e}"), VerifyOutcome::Unreadable),
    };
    let programs = if path.extension().is_some_and(|x| x == "s") {
        let name = path
            .file_stem()
            .map_or_else(|| shown.clone(), |s| s.to_string_lossy().into_owned());
        ProgramSpec::inline(name, text).map(|spec| vec![spec])
    } else {
        JsonValue::parse(&text)
            .map_err(ScenarioError::from)
            .and_then(|doc| Scenario::from_json(&doc, path.parent()))
            .and_then(|sc| sc.validate().map(|()| sc.programs))
    };
    let programs = match programs {
        Ok(programs) => programs,
        Err(e) => return failed(e.to_string(), VerifyOutcome::Errors),
    };
    let outcome = programs
        .iter()
        .map(|p| match p.verify.verdict(&p.report) {
            Verdict::Errors => VerifyOutcome::Errors,
            Verdict::Warnings if !allow_warnings => VerifyOutcome::Warnings,
            _ => VerifyOutcome::Clean,
        })
        .fold(VerifyOutcome::Clean, VerifyOutcome::max);
    FileVerdict {
        path: shown,
        failure: None,
        programs,
        outcome,
    }
}

/// Verifies every path and returns the verdicts with the run's combined
/// outcome.
pub fn verify_files(
    paths: &[impl AsRef<Path>],
    allow_warnings: bool,
) -> (Vec<FileVerdict>, VerifyOutcome) {
    let verdicts: Vec<FileVerdict> = paths
        .iter()
        .map(|p| verify_file(p.as_ref(), allow_warnings))
        .collect();
    let outcome = verdicts
        .iter()
        .map(|v| v.outcome)
        .fold(VerifyOutcome::Clean, VerifyOutcome::max);
    (verdicts, outcome)
}

/// Renders one file's verdict as human-readable lines.
pub fn render_text(v: &FileVerdict) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if let Some(failure) = &v.failure {
        let _ = writeln!(out, "FAIL     {}: {failure}", v.path);
        return out;
    }
    if v.programs.is_empty() {
        let _ = writeln!(out, "ok       {} (no programs)", v.path);
        return out;
    }
    for p in &v.programs {
        let skip = if p.verify == VerifyPolicy::Skip {
            " [policy: skip]"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<8} {}: {}: {} error(s), {} warning(s){skip}",
            p.report.verdict(),
            v.path,
            p.name,
            p.report.errors.len(),
            p.report.warnings.len(),
        );
        for e in &p.report.errors {
            let _ = writeln!(out, "         {e}");
        }
        for w in &p.report.warnings {
            let _ = writeln!(out, "         {w}");
        }
    }
    out
}

/// Renders a whole run as one JSON document (`--verify --json`).
pub fn render_json(verdicts: &[FileVerdict], outcome: VerifyOutcome) -> JsonValue {
    let files = verdicts.iter().map(|v| {
        let mut fields = vec![("path", JsonValue::from(v.path.as_str()))];
        if let Some(failure) = &v.failure {
            fields.push(("failure", failure.as_str().into()));
        }
        fields.push((
            "programs",
            JsonValue::arr(v.programs.iter().map(|p| {
                JsonValue::obj([
                    ("name", p.name.as_str().into()),
                    ("policy", p.verify.as_str().into()),
                    ("report", p.report.to_json()),
                ])
            })),
        ));
        fields.push((
            "outcome",
            match v.outcome {
                VerifyOutcome::Clean => "clean",
                VerifyOutcome::Warnings => "warnings",
                VerifyOutcome::Errors => "errors",
                VerifyOutcome::Unreadable => "unreadable",
            }
            .into(),
        ));
        JsonValue::obj(fields)
    });
    JsonValue::obj([
        ("files", JsonValue::arr(files)),
        ("exit_code", u64::from(outcome.exit_code()).into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("contopt-verify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn clean_asm_file_exits_zero() {
        let path = tmp(
            "clean.s",
            "        li r1, 3\nl:      subq r1, 1, r1\n        bne r1, l\n        halt\n",
        );
        let v = verify_file(&path, false);
        assert_eq!(v.outcome, VerifyOutcome::Clean, "{v:?}");
        assert_eq!(v.programs.len(), 1);
        assert_eq!(v.programs[0].name, "clean");
    }

    #[test]
    fn error_warning_and_io_outcomes_map_to_exit_codes() {
        let bad = tmp("bad.s", "        addq r9, 1, r1\n        halt\n");
        assert_eq!(verify_file(&bad, false).outcome, VerifyOutcome::Errors);
        let warn = tmp(
            "warn.s",
            "l:      li r1, 1\n        bne r1, l\n        halt\n",
        );
        assert_eq!(verify_file(&warn, false).outcome, VerifyOutcome::Warnings);
        assert_eq!(
            verify_file(&warn, true).outcome,
            VerifyOutcome::Clean,
            "--allow-warnings downgrades"
        );
        let unparsable = tmp("nope.s", "        frobz r1\n");
        let v = verify_file(&unparsable, false);
        assert_eq!(v.outcome, VerifyOutcome::Errors);
        assert!(v.failure.is_some());
        let missing = std::path::Path::new("/nonexistent/none.s");
        assert_eq!(
            verify_file(missing, false).outcome,
            VerifyOutcome::Unreadable
        );
        assert_eq!(VerifyOutcome::Unreadable.exit_code(), 3);
        assert_eq!(VerifyOutcome::Errors.exit_code(), 1);
        assert_eq!(VerifyOutcome::Warnings.exit_code(), 2);
        assert_eq!(VerifyOutcome::Clean.exit_code(), 0);
    }

    #[test]
    fn scenario_findings_are_enumerated_leniently() {
        // The loader would refuse this file; --verify names the finding.
        let sc = tmp(
            "bad_sc.json",
            r#"{"version": 1, "name": "s", "insts": 1,
                "programs": [{"name": "p", "source": "        addq r9, 1, r1\n        halt"}],
                "configs": [{"label": "a", "workloads": ["p"], "machine": {}}]}"#,
        );
        let v = verify_file(&sc, false);
        assert_eq!(v.outcome, VerifyOutcome::Errors);
        assert_eq!(v.programs.len(), 1);
        assert!(v.programs[0].report.has_errors());
        // A skip-policy program never gates.
        let sc = tmp(
            "skip_sc.json",
            r#"{"version": 1, "name": "s", "insts": 1,
                "programs": [{"name": "p", "verify": "skip",
                              "source": "        addq r9, 1, r1\n        halt"}],
                "configs": [{"label": "a", "workloads": ["p"], "machine": {}}]}"#,
        );
        assert_eq!(verify_file(&sc, false).outcome, VerifyOutcome::Clean);
    }

    #[test]
    fn json_rendering_embeds_canonical_reports() {
        let warn = tmp(
            "warn2.s",
            "l:      li r1, 1\n        bne r1, l\n        halt\n",
        );
        let (verdicts, outcome) = verify_files(&[&warn], false);
        let doc = render_json(&verdicts, outcome).pretty();
        assert!(doc.contains("\"unprovable_loop\""), "{doc}");
        assert!(doc.contains("\"exit_code\": 2"), "{doc}");
        let text = render_text(&verdicts[0]);
        assert!(text.contains("warning[unprovable_loop]"), "{text}");
    }
}
