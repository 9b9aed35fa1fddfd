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
//! Scenario files are loaded *leniently* here: verification findings are
//! enumerated and reported even where [`Scenario::load`] would refuse to
//! load the file, so CI output names every finding instead of stopping
//! at the first. Per-program [`VerifyPolicy`] is honored: a `"skip"`
//! program is reported but never gates, and a `"clean"` program's
//! warnings gate as errors — `--verify` is always at least as strict as
//! the loader.

use contopt_sim::isa::{asm_text, AnalysisReport};
use contopt_sim::{JsonValue, Scenario, ScenarioError, ToJson, VerifyPolicy};
use std::path::Path;

/// The aggregate severity of a verification run, ordered by how loudly
/// CI should fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    fn rank(self) -> u8 {
        match self {
            VerifyOutcome::Clean => 0,
            VerifyOutcome::Warnings => 1,
            VerifyOutcome::Errors => 2,
            VerifyOutcome::Unreadable => 3,
        }
    }

    /// The more severe of two outcomes.
    pub fn merge(self, other: VerifyOutcome) -> VerifyOutcome {
        if other.rank() > self.rank() {
            other
        } else {
            self
        }
    }
}

/// One verified program inside a file.
#[derive(Debug, Clone)]
pub struct ProgramVerdict {
    /// The program's name (the `.s` file stem for bare assembler files).
    pub name: String,
    /// The program's declared [`VerifyPolicy`] (`AllowWarnings` for bare
    /// `.s` files, which declare none).
    pub policy: VerifyPolicy,
    /// The analyzer's findings.
    pub report: AnalysisReport,
}

/// The verification result for one input file.
#[derive(Debug, Clone)]
pub struct FileVerdict {
    /// The path as given on the command line.
    pub path: String,
    /// Why the file could not be verified at all (I/O or parse failure);
    /// `programs` is empty when set.
    pub failure: Option<String>,
    /// Per-program verdicts, in declaration order.
    pub programs: Vec<ProgramVerdict>,
    /// This file's aggregate outcome under the run's warning policy.
    pub outcome: VerifyOutcome,
}

/// How one program's report gates, under its policy and the run-wide
/// `--allow-warnings` escape hatch.
fn program_outcome(v: &ProgramVerdict, allow_warnings: bool) -> VerifyOutcome {
    match v.policy {
        VerifyPolicy::Skip => VerifyOutcome::Clean,
        _ if v.report.has_errors() => VerifyOutcome::Errors,
        VerifyPolicy::Clean if !v.report.is_clean() => VerifyOutcome::Errors,
        _ if !v.report.warnings.is_empty() && !allow_warnings => VerifyOutcome::Warnings,
        _ => VerifyOutcome::Clean,
    }
}

/// Verifies one input file — `.s` assembler text by extension, a
/// scenario JSON file otherwise.
pub fn verify_file(path: &Path, allow_warnings: bool) -> FileVerdict {
    let shown = path.display().to_string();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            return FileVerdict {
                path: shown,
                failure: Some(format!("cannot read: {e}")),
                programs: Vec::new(),
                outcome: VerifyOutcome::Unreadable,
            }
        }
    };
    let programs = if path.extension().is_some_and(|x| x == "s") {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| shown.clone());
        match asm_text::parse_and_verify(&text) {
            Ok((_, report)) => vec![ProgramVerdict {
                name,
                policy: VerifyPolicy::default(),
                report,
            }],
            Err(e) => {
                return FileVerdict {
                    path: shown,
                    failure: Some(format!("assembler: {e}")),
                    programs: Vec::new(),
                    outcome: VerifyOutcome::Errors,
                }
            }
        }
    } else {
        match scenario_verdicts(&text, path.parent()) {
            Ok(programs) => programs,
            Err(e) => {
                return FileVerdict {
                    path: shown,
                    failure: Some(e.to_string()),
                    programs: Vec::new(),
                    outcome: VerifyOutcome::Errors,
                }
            }
        }
    };
    let outcome = programs
        .iter()
        .map(|v| program_outcome(v, allow_warnings))
        .fold(VerifyOutcome::Clean, VerifyOutcome::merge);
    FileVerdict {
        path: shown,
        failure: None,
        programs,
        outcome,
    }
}

/// Parses a scenario leniently — structure and semantics are enforced,
/// but verification verdicts are *collected*, not load-gated — and
/// returns one verdict per shipped program.
fn scenario_verdicts(
    text: &str,
    base: Option<&Path>,
) -> Result<Vec<ProgramVerdict>, ScenarioError> {
    let sc = Scenario::from_json(&JsonValue::parse(text)?, base)?;
    sc.validate()?;
    Ok(sc
        .programs
        .iter()
        .map(|spec| ProgramVerdict {
            name: spec.name.clone(),
            policy: spec.verify,
            report: spec.verify_report(),
        })
        .collect())
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
        .fold(VerifyOutcome::Clean, VerifyOutcome::merge);
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
        let skip = if p.policy == VerifyPolicy::Skip {
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
                    ("policy", p.policy.as_str().into()),
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
