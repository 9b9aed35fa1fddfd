//! Scenario execution and the golden-report regression harness.
//!
//! This module connects the checked-in [`Scenario`] files to the parallel
//! [`Lab`] engine and pins their results:
//!
//! * [`scenario_plan`] lowers a scenario to a deduplicated [`Plan`];
//! * [`record_goldens`] / [`check_goldens`] write and byte-compare any
//!   list of [`Golden`]s: a scenario's cell reports ([`scenario_goldens`]),
//!   an [ablation](crate::ablation_golden) or a remote sweep's replies,
//!   turning any result drift into a CI failure.

use crate::lab::{Lab, Plan};
use contopt_sim::{file_stem, JsonValue, Scenario, ScenarioError};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Lowers a scenario to a deduplicated simulation [`Plan`].
pub fn scenario_plan(sc: &Scenario) -> Result<Plan, ScenarioError> {
    let mut plan = Plan::new();
    for cfg in &sc.configs {
        for w in sc.workloads_for(cfg)? {
            plan.cell(cfg.machine, &w);
        }
    }
    Ok(plan)
}

/// The golden file pinning one simulation cell:
/// `<dir>/<scenario>/<label>/<workload>.json`, each name mapped through
/// [`file_stem`]. [`Scenario::validate`] rejects the names that would
/// make two cells share a file or write outside `dir`.
pub fn golden_path(dir: &Path, scenario: &str, label: &str, workload: &str) -> PathBuf {
    dir.join(file_stem(scenario))
        .join(file_stem(label))
        .join(format!("{}.json", file_stem(workload)))
}

/// A pinned result: the golden file that pins it and the canonical text
/// a fresh run produced for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    /// The golden file.
    pub path: PathBuf,
    /// The fresh run's canonical text.
    pub text: String,
}

/// Every cell of `sc` as a [`Golden`] under `dir`, in declaration order:
/// the cell's canonical report at its [`golden_path`]. Cells already
/// simulated by [`Lab::execute`] come from the cache.
pub fn scenario_goldens(
    lab: &mut Lab,
    sc: &Scenario,
    dir: &Path,
) -> Result<Vec<Golden>, ScenarioError> {
    let mut goldens = Vec::new();
    for cfg in &sc.configs {
        for w in sc.workloads_for(cfg)? {
            goldens.push(Golden {
                path: golden_path(dir, &sc.name, &cfg.label, w.name),
                text: lab.run(cfg.machine, &w).canonical_json(),
            });
        }
    }
    Ok(goldens)
}

/// One detected difference between a fresh run and the recorded goldens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenDrift {
    /// The golden file involved.
    pub path: PathBuf,
    /// How it differs.
    pub kind: DriftKind,
}

/// The ways a golden can disagree with a fresh run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriftKind {
    /// No golden file is recorded.
    Missing,
    /// The recorded bytes differ from the fresh run's canonical text.
    Changed {
        /// The first differing line, with context, so drift is
        /// diagnosable straight from CI logs.
        diff: LineDiff,
        /// JSON field paths that differed but are not covered by the
        /// [`TolerancePolicy`] in force (empty for an exact-match check).
        disallowed: Vec<String>,
    },
}

/// The first line where a fresh canonical report diverges from its
/// recorded golden.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineDiff {
    /// 1-based line number of the first divergence.
    pub line: usize,
    /// The golden's line (empty if the golden ended first).
    pub expected: String,
    /// The fresh run's line (empty if the fresh output ended first).
    pub actual: String,
    /// Up to two common lines immediately preceding the divergence.
    pub context: Vec<String>,
}

/// Finds the first differing line between two texts; `None` when equal.
#[expect(
    clippy::expect_used,
    reason = "the equal arm only matches when both sides are present"
)]
pub fn first_divergence(expected: &str, actual: &str) -> Option<LineDiff> {
    let mut exp = expected.lines();
    let mut act = actual.lines();
    let mut context: Vec<String> = Vec::new();
    let mut line = 0;
    loop {
        line += 1;
        match (exp.next(), act.next()) {
            (None, None) => return None,
            (e, a) if e == a => {
                if context.len() == 2 {
                    context.remove(0);
                }
                context.push(e.expect("both sides present when equal").to_string());
            }
            (e, a) => {
                return Some(LineDiff {
                    line,
                    expected: e.unwrap_or_default().to_string(),
                    actual: a.unwrap_or_default().to_string(),
                    context,
                })
            }
        }
    }
}

/// The per-file comparison policy for [`check_goldens`].
///
/// The default is **exact**: a golden matches only byte-for-byte. For an
/// intentional model change, an explicit list of JSON field paths can be
/// opted in; those fields (and anything nested under them) may differ
/// while every other field must still match exactly. A path permits
/// itself, any dotted descendant, and any array element under it —
/// `"pipeline"` covers `pipeline.ipc`, and `"passes.cp-ra"` covers every
/// counter in that block.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TolerancePolicy {
    allowed: Vec<String>,
}

impl TolerancePolicy {
    /// The default policy: byte-for-byte equality, no exceptions.
    pub fn exact() -> TolerancePolicy {
        TolerancePolicy::default()
    }

    /// A policy permitting the listed JSON field paths to differ.
    pub fn allowing<I: IntoIterator<Item = S>, S: Into<String>>(fields: I) -> TolerancePolicy {
        TolerancePolicy {
            allowed: fields.into_iter().map(Into::into).collect(),
        }
    }

    /// Whether this is the exact-match policy (no opted-in fields).
    pub fn is_exact(&self) -> bool {
        self.allowed.is_empty()
    }

    /// Whether a differing leaf path is covered by the opt-in list.
    fn permits(&self, path: &str) -> bool {
        self.allowed.iter().any(|a| {
            path == a
                || path
                    .strip_prefix(a.as_str())
                    .is_some_and(|rest| rest.starts_with('.') || rest.starts_with('['))
        })
    }
}

/// Collects the dotted paths of every leaf difference between two JSON
/// documents (array elements as `xs[3]`; a length or type mismatch is
/// reported at the containing path).
fn json_diff_paths(expected: &JsonValue, actual: &JsonValue, at: &str, out: &mut Vec<String>) {
    let join = |key: &str| {
        if at.is_empty() {
            key.to_string()
        } else {
            format!("{at}.{key}")
        }
    };
    match (expected, actual) {
        (JsonValue::Object(e), JsonValue::Object(a)) => {
            for (k, ev) in e {
                match a.iter().find(|(ak, _)| ak == k) {
                    Some((_, av)) => json_diff_paths(ev, av, &join(k), out),
                    None => out.push(join(k)),
                }
            }
            for (k, _) in a {
                if !e.iter().any(|(ek, _)| ek == k) {
                    out.push(join(k));
                }
            }
        }
        (JsonValue::Array(e), JsonValue::Array(a)) if e.len() == a.len() => {
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                json_diff_paths(ev, av, &format!("{at}[{i}]"), out);
            }
        }
        (e, a) if e == a => {}
        _ => out.push(if at.is_empty() {
            "$".to_string()
        } else {
            at.to_string()
        }),
    }
}

/// Compares recorded golden text against a fresh canonical serialization
/// under `policy`: `None` when the bytes match, or when every difference
/// is covered by the policy's opt-in list.
fn drift_between(recorded: &str, canonical: &str, policy: &TolerancePolicy) -> Option<DriftKind> {
    if recorded == canonical {
        return None;
    }
    // Exact mode (the default and the CI path) never parses; every byte
    // difference drifts.
    let disallowed = if policy.is_exact() {
        Vec::new()
    } else {
        match (JsonValue::parse(recorded), JsonValue::parse(canonical)) {
            (Ok(exp), Ok(act)) => {
                let mut paths = Vec::new();
                json_diff_paths(&exp, &act, "", &mut paths);
                let outside: Vec<String> =
                    paths.into_iter().filter(|p| !policy.permits(p)).collect();
                if outside.is_empty() {
                    return None; // every difference was opted in
                }
                outside
            }
            // Unparseable golden: report it as a plain change.
            _ => Vec::new(),
        }
    };
    // Bytes can differ while every line compares equal (a missing
    // trailing newline, CRLF endings): `lines()` normalizes both, so
    // synthesize a diff rather than treating "no differing line" as
    // impossible.
    let diff = first_divergence(recorded, canonical).unwrap_or_else(|| LineDiff {
        line: 0,
        expected: format!("{} bytes", recorded.len()),
        actual: format!(
            "{} bytes (line endings or trailing newline differ)",
            canonical.len()
        ),
        context: Vec::new(),
    });
    Some(DriftKind::Changed { diff, disallowed })
}

/// The overall outcome of a golden `--check` run, ordered by severity
/// (`Ok < MissingGolden < Drift < Error`). Each maps to a distinct
/// process exit code so CI and the sweep server can report the precise
/// cause without parsing logs: `0` everything matched, `2` only missing
/// goldens (record them), `1` at least one recorded golden drifted, `3`
/// the check itself failed (unreadable scenario, I/O, protocol — and,
/// for remote sweeps, a server-side per-cell failure: `contopt-client`
/// maps each `cell_error` frame to [`Error`](Self::Error) while still
/// checking the surviving sibling cells).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckOutcome {
    /// Every cell matched its recorded golden.
    #[default]
    Ok,
    /// Some cells have no recorded golden, but nothing drifted.
    MissingGolden,
    /// At least one recorded golden differs from the fresh run.
    Drift,
    /// The check could not complete (load, I/O, or transport failure).
    Error,
}

impl CheckOutcome {
    /// Classifies a completed check's drift list: [`Drift`](Self::Drift)
    /// if any recorded golden changed, else [`MissingGolden`](Self::MissingGolden)
    /// if any golden was absent, else [`Ok`](Self::Ok).
    pub fn from_drifts(drifts: &[GoldenDrift]) -> CheckOutcome {
        if drifts
            .iter()
            .any(|d| matches!(d.kind, DriftKind::Changed { .. }))
        {
            CheckOutcome::Drift
        } else if drifts.is_empty() {
            CheckOutcome::Ok
        } else {
            CheckOutcome::MissingGolden
        }
    }

    /// Combines two outcomes, keeping the more severe.
    pub fn merge(self, other: CheckOutcome) -> CheckOutcome {
        self.max(other)
    }

    /// The process exit code this outcome reports.
    pub fn exit_code(self) -> u8 {
        match self {
            CheckOutcome::Ok => 0,
            CheckOutcome::Drift => 1,
            CheckOutcome::MissingGolden => 2,
            CheckOutcome::Error => 3,
        }
    }
}

impl fmt::Display for GoldenDrift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            DriftKind::Missing => write!(f, "missing golden {}", self.path.display()),
            DriftKind::Changed { diff, disallowed } => {
                write!(
                    f,
                    "result drift in {} at line {}:",
                    self.path.display(),
                    diff.line
                )?;
                for c in &diff.context {
                    write!(f, "\n    {c}")?;
                }
                write!(f, "\n  - expected: {}", diff.expected)?;
                write!(f, "\n  + actual:   {}", diff.actual)?;
                if !disallowed.is_empty() {
                    write!(
                        f,
                        "\n  fields outside the tolerance policy: {}",
                        disallowed.join(", ")
                    )?;
                }
                Ok(())
            }
        }
    }
}

/// Writes each golden's text to its path, creating directories as needed
/// and replacing any previous file.
pub fn record_goldens(goldens: &[Golden]) -> io::Result<()> {
    for g in goldens {
        if let Some(parent) = g.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&g.path, &g.text)?;
    }
    Ok(())
}

/// Compares each golden's fresh text against the file recorded at its
/// path, per `policy` (byte equality by default; opted-in fields may
/// differ). Returns every drift found, in order (empty = every result
/// reproduces its pinned file); a file that does not exist is
/// [`DriftKind::Missing`].
pub fn check_goldens(goldens: &[Golden], policy: &TolerancePolicy) -> io::Result<Vec<GoldenDrift>> {
    let mut drifts = Vec::new();
    for g in goldens {
        let kind = match std::fs::read_to_string(&g.path) {
            Ok(recorded) => drift_between(&recorded, &g.text, policy),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Some(DriftKind::Missing),
            Err(e) => return Err(e),
        };
        drifts.extend(kind.map(|kind| GoldenDrift {
            path: g.path.clone(),
            kind,
        }));
    }
    Ok(drifts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_sim::{MachineConfig, ScenarioConfig};

    #[test]
    fn smoke_plan_has_four_cells() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/smoke.json");
        let plan = scenario_plan(&Scenario::load(path).unwrap()).unwrap();
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn colliding_sanitized_labels_are_rejected() {
        let cfg = |label: &str| ScenarioConfig {
            label: label.to_string(),
            machine: MachineConfig::default_paper(),
            workloads: vec!["twf".to_string()],
        };
        let sc = Scenario {
            name: "collide".to_string(),
            insts: 1_000,
            ablation: None,
            programs: vec![],
            configs: vec![cfg("fetch bound"), cfg("fetch_bound")],
        };
        // The labels are distinct as strings but share one golden
        // directory, so the scenario fails validation, before any cell
        // simulates or any file is touched.
        assert_eq!(
            sc.validate(),
            Err(ScenarioError::LabelCollision {
                a: "fetch bound".to_string(),
                b: "fetch_bound".to_string(),
            })
        );
    }

    #[test]
    fn golden_paths_are_sanitized() {
        let p = golden_path(Path::new("goldens"), "fig8", "fetch bound+opt", "mcf");
        assert_eq!(
            p,
            Path::new("goldens")
                .join("fig8")
                .join("fetch_bound_opt")
                .join("mcf.json")
        );
    }

    #[test]
    fn first_divergence_reports_line_and_context() {
        assert_eq!(first_divergence("a\nb\n", "a\nb\n"), None);
        let d = first_divergence("a\nb\nc\nx\ne\n", "a\nb\nc\ny\ne\n").unwrap();
        assert_eq!(d.line, 4);
        assert_eq!(d.expected, "x");
        assert_eq!(d.actual, "y");
        assert_eq!(d.context, ["b", "c"], "at most two preceding lines");
        // One side ending early is a divergence with an empty line.
        let d = first_divergence("a\n", "a\nb\n").unwrap();
        assert_eq!(
            (d.line, d.expected.as_str(), d.actual.as_str()),
            (2, "", "b")
        );
    }

    #[test]
    fn trailing_newline_only_drift_is_reported_not_a_panic() {
        // Bytes differ but `lines()` sees identical content on both
        // sides; the checker must report drift, not panic.
        let dir = std::env::temp_dir().join(format!("contopt-nl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sc = Scenario {
            name: "nl".to_string(),
            insts: 10_000,
            ablation: None,
            programs: vec![],
            configs: vec![ScenarioConfig {
                label: "baseline".to_string(),
                machine: MachineConfig::default_paper(),
                workloads: vec!["twf".to_string()],
            }],
        };
        let mut lab = Lab::new(sc.insts);
        let goldens = scenario_goldens(&mut lab, &sc, &dir).unwrap();
        record_goldens(&goldens).unwrap();
        // Strip the canonical trailing newline from the recorded golden.
        let text = std::fs::read_to_string(&goldens[0].path).unwrap();
        std::fs::write(&goldens[0].path, text.trim_end_matches('\n')).unwrap();
        let drifts = check_goldens(&goldens, &TolerancePolicy::exact()).unwrap();
        assert_eq!(drifts.len(), 1);
        let DriftKind::Changed { diff, .. } = &drifts[0].kind else {
            panic!("expected Changed, got {:?}", drifts[0].kind);
        };
        assert!(diff.actual.contains("trailing newline"), "{diff:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_outcome_classification_and_exit_codes() {
        let missing = GoldenDrift {
            path: PathBuf::from("g/a.json"),
            kind: DriftKind::Missing,
        };
        let changed = GoldenDrift {
            path: PathBuf::from("g/b.json"),
            kind: DriftKind::Changed {
                diff: LineDiff {
                    line: 1,
                    expected: "a".into(),
                    actual: "b".into(),
                    context: vec![],
                },
                disallowed: vec![],
            },
        };
        assert_eq!(CheckOutcome::from_drifts(&[]), CheckOutcome::Ok);
        assert_eq!(
            CheckOutcome::from_drifts(std::slice::from_ref(&missing)),
            CheckOutcome::MissingGolden
        );
        // Drift dominates missing: a changed golden is the regression.
        assert_eq!(
            CheckOutcome::from_drifts(&[missing, changed]),
            CheckOutcome::Drift
        );
        assert_eq!(CheckOutcome::Ok.exit_code(), 0);
        assert_eq!(CheckOutcome::Drift.exit_code(), 1);
        assert_eq!(CheckOutcome::MissingGolden.exit_code(), 2);
        assert_eq!(CheckOutcome::Error.exit_code(), 3);
        assert_eq!(
            CheckOutcome::MissingGolden.merge(CheckOutcome::Drift),
            CheckOutcome::Drift
        );
        assert_eq!(
            CheckOutcome::Error.merge(CheckOutcome::Drift),
            CheckOutcome::Error
        );
    }

    #[test]
    fn goldens_built_from_remote_text_check_like_local_ones() {
        // A remote client has no Lab: it pairs each reply's report text
        // with the cell's golden_path. Those goldens must check exactly
        // like the ones a local run builds.
        let dir = std::env::temp_dir().join(format!("contopt-cell-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sc = Scenario {
            name: "cellcheck".to_string(),
            insts: 10_000,
            ablation: None,
            programs: vec![],
            configs: vec![ScenarioConfig {
                label: "baseline".to_string(),
                machine: MachineConfig::default_paper(),
                workloads: vec!["twf".to_string()],
            }],
        };
        let mut lab = Lab::new(sc.insts);
        record_goldens(&scenario_goldens(&mut lab, &sc, &dir).unwrap()).unwrap();
        let canonical = lab
            .run(
                MachineConfig::default_paper(),
                &contopt_sim::workloads::build("twf").unwrap(),
            )
            .canonical_json();
        let remote = |workload: &str, text: &str| Golden {
            path: golden_path(&dir, "cellcheck", "baseline", workload),
            text: text.to_string(),
        };
        let policy = TolerancePolicy::exact();
        assert_eq!(
            check_goldens(&[remote("twf", &canonical)], &policy).unwrap(),
            []
        );
        // A perturbed report drifts; an unknown cell is missing.
        let perturbed = canonical.replace("\"cycles\"", "\"cycles_x\"");
        let drifts = check_goldens(&[remote("twf", &perturbed)], &policy).unwrap();
        let [drift] = &drifts[..] else {
            panic!("perturbed report must drift: {drifts:?}");
        };
        assert!(matches!(drift.kind, DriftKind::Changed { .. }));
        let drifts = check_goldens(&[remote("mcf", &canonical)], &policy).unwrap();
        let [missing] = &drifts[..] else {
            panic!("unrecorded cell is missing: {drifts:?}");
        };
        assert!(matches!(missing.kind, DriftKind::Missing));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drift_display_shows_the_diff() {
        let drift = GoldenDrift {
            path: PathBuf::from("goldens/smoke/optimized/twf.json"),
            kind: DriftKind::Changed {
                diff: LineDiff {
                    line: 17,
                    expected: "    \"cycles\": 100,".into(),
                    actual: "    \"cycles\": 101,".into(),
                    context: vec!["  \"pipeline\": {".into()],
                },
                disallowed: vec!["pipeline.cycles".into()],
            },
        };
        let text = drift.to_string();
        assert!(text.contains("at line 17"), "{text}");
        assert!(text.contains("- expected:     \"cycles\": 100,"), "{text}");
        assert!(text.contains("+ actual:       \"cycles\": 101,"), "{text}");
        assert!(text.contains("pipeline.cycles"), "{text}");
    }

    #[test]
    fn tolerance_policy_permits_opted_in_subtrees_only() {
        let p = TolerancePolicy::allowing(["pipeline.ipc", "passes"]);
        assert!(!p.is_exact());
        assert!(p.permits("pipeline.ipc"));
        assert!(p.permits("passes.cp-ra.moves_eliminated"));
        assert!(p.permits("passes[0]"));
        assert!(!p.permits("pipeline.cycles"));
        assert!(!p.permits("pipeline.ipcx"), "no bare prefix matching");
        assert!(TolerancePolicy::exact().is_exact());
    }

    #[test]
    fn json_diff_paths_finds_leaf_differences() {
        let a = JsonValue::parse(r#"{"x": {"y": 1, "z": [1, 2]}, "w": 3}"#).unwrap();
        let b = JsonValue::parse(r#"{"x": {"y": 2, "z": [1, 5]}, "w": 3}"#).unwrap();
        let mut paths = Vec::new();
        json_diff_paths(&a, &b, "", &mut paths);
        assert_eq!(paths, ["x.y", "x.z[1]"]);
        // A missing key is reported at its path.
        let c = JsonValue::parse(r#"{"x": {"y": 1, "z": [1, 2]}}"#).unwrap();
        paths.clear();
        json_diff_paths(&a, &c, "", &mut paths);
        assert_eq!(paths, ["w"]);
    }
}
