//! The counterfactual ablation engine: per-pass *cycle* attribution.
//!
//! The paper's central claim is about cycles recovered, not events
//! counted: which mechanism — CP/RA, RLE/SF, value feedback, early
//! execution — bought how much speedup on which workload (the Figure
//! 10/11 ablation story). A [`Report`] attributes *events* per pass; this
//! module attributes *cycles*, by controlled removal. For every
//! `(configuration, workload)` cell of a scenario it plans, through the
//! [`Lab`] (cells dedupe by configuration fingerprint), the machines
//!
//! * **full**: the pass set as configured;
//! * **baseline**: the optimizer removed entirely;
//! * **leave-one-out**: one stock pass removed, for every stock pass
//!   (removing an inactive pass is the identity, so its cell is the full
//!   cell and its marginal is exactly zero);
//! * **add-one-in**, when the scenario's `"ablation": {"add_one_in":
//!   true}` asks: the baseline plus exactly one pass.
//!
//! Each pass's `marginal_cycles[p] = cycles(all \ {p}) − cycles(all)` is
//! the cycles the machine loses when only `p` is taken away; the
//! **interaction residual** `(cycles(baseline) − cycles(all)) −
//! Σ_p marginal_cycles[p]` is the recovery the marginals do not explain,
//! non-zero exactly when the mechanisms overlap or enable each other.
//! Speedups go through the error-safe `speedup_over`. The result is an
//! [`AblationReport`]: its canonical JSON is the golden
//! `goldens/<scenario>/ablation.json` ([`ablation_golden`]), and its
//! `Display` is the table an `--ablate` run prints.

use crate::lab::{Lab, Plan};
use crate::scenario::Golden;
use contopt_sim::{
    file_stem, JsonValue, MachineConfig, OptStats, OptimizerConfig, PassId, Report, Scenario,
    ScenarioConfig, ScenarioError, SpeedupError, ToJson,
};
use std::fmt;
use std::path::{Path, PathBuf};

/// The full result of ablating one scenario: per configuration, per
/// workload, per stock pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationReport {
    /// The scenario the matrix was expanded from.
    pub scenario: String,
    /// Dynamic-instruction budget per simulation cell.
    pub insts: u64,
    /// Whether the add-one-in direction was simulated.
    pub add_one_in: bool,
    /// One entry per scenario configuration with at least one active
    /// pass, in declaration order.
    pub configs: Vec<ConfigAblation>,
}

/// The ablation of one labelled scenario configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigAblation {
    /// The configuration's label in the scenario file.
    pub label: String,
    /// Names of the stock passes active in the configuration, in
    /// [`PassId::ALL`] order.
    pub active: Vec<String>,
    /// One entry per workload the configuration runs on.
    pub workloads: Vec<WorkloadAblation>,
}

/// Per-pass cycle attribution for one (configuration, workload) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadAblation {
    /// Table 1 short name.
    pub workload: String,
    /// Cycles of the baseline machine (optimizer removed entirely).
    pub baseline_cycles: u64,
    /// Cycles with the full pass set.
    pub full_cycles: u64,
    /// Speedup of the full pass set over the baseline
    /// (via the error-safe `speedup_over`).
    pub speedup: f64,
    /// One row per stock pass, in [`PassId::ALL`] order —
    /// inactive passes included, with a marginal of exactly zero.
    pub rows: Vec<PassAblation>,
}

/// One pass's counterfactual row.
#[derive(Debug, Clone, PartialEq)]
pub struct PassAblation {
    /// The pass name ([`PassId::name`]).
    pub pass: String,
    /// Whether the pass is active in the configuration. An inactive
    /// pass's leave-one-out cell *is* the full cell (removal is the
    /// identity), so its marginal is exactly zero by construction.
    pub active: bool,
    /// Events the pass earned in the full run — its *signature* counters
    /// from its [`contopt_sim::PassStats`] block (e.g. `loads_removed` for
    /// RLE/SF, `executed_early` for early execution), as the Table 3 and
    /// scenario tables report them. This is the event column the cycle
    /// columns sit next to, not an exhaustive sum of the block.
    pub events: u64,
    /// Cycles with every pass except this one.
    pub loo_cycles: u64,
    /// Speedup of the leave-one-out machine over the baseline.
    pub speedup_without: f64,
    /// The add-one-in counterfactual, when the scenario requested it.
    pub add_one_in: Option<AddOneIn>,
}

/// The add-one-in direction: the pass alone on the baseline machine
/// (still paying the configured pipeline cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddOneIn {
    /// Cycles with only this pass active.
    pub cycles: u64,
    /// Speedup of the only-this-pass machine over the baseline.
    pub speedup: f64,
}

impl WorkloadAblation {
    /// Cycles the full pass set recovered over the baseline (negative if
    /// the optimizer cost cycles on this workload).
    pub fn recovered_cycles(&self) -> i64 {
        self.baseline_cycles as i64 - self.full_cycles as i64
    }

    /// Sum of the per-pass marginals — what leave-one-out attribution
    /// explains of the total recovery.
    pub fn marginal_sum(&self) -> i64 {
        self.rows.iter().map(|r| self.marginal_cycles(r)).sum()
    }

    /// The recovery the marginals do not explain:
    /// [`recovered_cycles`](Self::recovered_cycles) −
    /// [`marginal_sum`](Self::marginal_sum). Positive when mechanisms
    /// overlap (each looks dispensable because another covers for it),
    /// negative when they enable each other (each looks bigger than its
    /// solo contribution).
    pub fn interaction_residual(&self) -> i64 {
        self.recovered_cycles() - self.marginal_sum()
    }

    /// One pass's marginal cycles: `cycles(all \ {p}) − cycles(all)`.
    /// Derived, never stored, so it cannot drift from the cell cycles.
    pub fn marginal_cycles(&self, row: &PassAblation) -> i64 {
        row.loo_cycles as i64 - self.full_cycles as i64
    }

    /// One pass's share of the total recovered cycles, in percent
    /// (`0.0` when nothing was recovered). Shares can exceed 100% or go
    /// negative in aggregate — the interaction residual is exactly the
    /// part they do not account for.
    pub fn speedup_share_pct(&self, row: &PassAblation) -> f64 {
        let recovered = self.recovered_cycles();
        if recovered == 0 {
            0.0
        } else {
            100.0 * self.marginal_cycles(row) as f64 / recovered as f64
        }
    }
}

impl AblationReport {
    /// The canonical golden-file serialization: pretty-printed JSON plus
    /// a trailing newline, byte-identical across runs for identical
    /// results (same contract as `Report::canonical_json`).
    pub fn canonical_json(&self) -> String {
        let mut out = self.to_json().pretty();
        out.push('\n');
        out
    }
}

impl ToJson for AblationReport {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("scenario", self.scenario.as_str().into()),
            ("insts", self.insts.into()),
            ("add_one_in", self.add_one_in.into()),
            (
                "configs",
                JsonValue::arr(self.configs.iter().map(|c| c.to_json())),
            ),
        ])
    }
}

impl ToJson for ConfigAblation {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("label", self.label.as_str().into()),
            (
                "active",
                JsonValue::arr(self.active.iter().map(|p| p.as_str().into())),
            ),
            (
                "workloads",
                JsonValue::arr(self.workloads.iter().map(|w| w.to_json())),
            ),
        ])
    }
}

impl ToJson for WorkloadAblation {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("workload", self.workload.as_str().into()),
            ("baseline_cycles", self.baseline_cycles.into()),
            ("full_cycles", self.full_cycles.into()),
            ("recovered_cycles", self.recovered_cycles().into()),
            ("speedup", self.speedup.into()),
            ("marginal_sum", self.marginal_sum().into()),
            ("interaction_residual", self.interaction_residual().into()),
            (
                "passes",
                JsonValue::arr(self.rows.iter().map(|r| {
                    let mut fields = vec![
                        ("pass", JsonValue::from(r.pass.as_str())),
                        ("active", r.active.into()),
                        ("events", r.events.into()),
                        ("loo_cycles", r.loo_cycles.into()),
                        ("marginal_cycles", self.marginal_cycles(r).into()),
                        ("speedup_share_pct", self.speedup_share_pct(r).into()),
                        ("speedup_without", r.speedup_without.into()),
                    ];
                    if let Some(a) = &r.add_one_in {
                        fields.push((
                            "add_one_in",
                            JsonValue::obj([
                                ("cycles", a.cycles.into()),
                                ("speedup", a.speedup.into()),
                            ]),
                        ));
                    }
                    JsonValue::obj(fields)
                })),
            ),
        ])
    }
}

impl fmt::Display for AblationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Counterfactual ablation of scenario {:?} ({} insts/cell{})",
            self.scenario,
            self.insts,
            if self.add_one_in {
                ", with add-one-in"
            } else {
                ""
            }
        )?;
        for cfg in &self.configs {
            writeln!(f)?;
            writeln!(
                f,
                "config {:?} (active passes: {})",
                cfg.label,
                cfg.active.join(", ")
            )?;
            for w in &cfg.workloads {
                writeln!(
                    f,
                    "  {}: baseline {} cy, full {} cy, speedup {:.3}x, \
                     recovered {} cy (marginals {} + interaction {})",
                    w.workload,
                    w.baseline_cycles,
                    w.full_cycles,
                    w.speedup,
                    w.recovered_cycles(),
                    w.marginal_sum(),
                    w.interaction_residual()
                )?;
                // Wide enough for the longest row label,
                // "value-feedback (off)" (20 chars), so an inactive pass
                // cannot push its cycle columns out of alignment.
                write!(
                    f,
                    "  {:<20} {:>10} {:>10} {:>11} {:>8} {:>9}",
                    "pass", "events", "loo.cyc", "marg.cyc", "share%", "spd.w/o"
                )?;
                if self.add_one_in {
                    write!(f, " {:>10} {:>9}", "only.cyc", "only.spd")?;
                }
                writeln!(f)?;
                for r in &w.rows {
                    let name = if r.active {
                        r.pass.clone()
                    } else {
                        format!("{} (off)", r.pass)
                    };
                    write!(
                        f,
                        "  {:<20} {:>10} {:>10} {:>11} {:>7.1}% {:>8.3}x",
                        name,
                        r.events,
                        r.loo_cycles,
                        w.marginal_cycles(r),
                        w.speedup_share_pct(r),
                        r.speedup_without
                    )?;
                    if let Some(a) = &r.add_one_in {
                        write!(f, " {:>10} {:>8.3}x", a.cycles, a.speedup)?;
                    }
                    writeln!(f)?;
                }
            }
        }
        Ok(())
    }
}

/// A failure while planning or computing an ablation.
#[derive(Debug)]
pub enum AblationError {
    /// The scenario itself is unusable (unknown workloads…).
    Scenario(ScenarioError),
    /// No configuration in the scenario has an active pass to ablate.
    NothingToAblate(String),
    /// A speedup between two cells of the matrix was undefined — only
    /// possible if a configuration change perturbs the retired stream,
    /// which would be a simulator bug worth failing loudly on.
    Speedup {
        /// The configuration label involved.
        label: String,
        /// The workload involved.
        workload: String,
        /// The underlying typed error.
        err: SpeedupError,
    },
}

impl fmt::Display for AblationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AblationError::Scenario(e) => write!(f, "{e}"),
            AblationError::NothingToAblate(name) => write!(
                f,
                "scenario {name:?} has no configuration with an active optimizer pass to ablate"
            ),
            AblationError::Speedup {
                label,
                workload,
                err,
            } => write!(f, "config {label:?} on {workload:?}: {err}"),
        }
    }
}

impl std::error::Error for AblationError {}

impl From<ScenarioError> for AblationError {
    fn from(e: ScenarioError) -> AblationError {
        AblationError::Scenario(e)
    }
}

/// The counterfactual machines for one scenario configuration.
struct Variants {
    active: Vec<PassId>,
    full: MachineConfig,
    baseline: MachineConfig,
    /// One leave-one-out machine per stock pass, in [`PassId::ALL`] order.
    loo: Vec<(PassId, MachineConfig)>,
    /// One keep-only machine per stock pass, when add-one-in is on.
    add_in: Option<Vec<(PassId, MachineConfig)>>,
}

impl Variants {
    /// `None` when the configuration has no active pass (nothing to
    /// remove): baseline configs ride along in the scenario but are not
    /// ablated.
    fn of(cfg: &ScenarioConfig, add_one_in: bool) -> Option<Variants> {
        let opt = cfg.machine.optimizer;
        let active = opt.active_passes();
        if active.is_empty() {
            return None;
        }
        let machine = |optimizer: OptimizerConfig| MachineConfig {
            optimizer,
            ..cfg.machine
        };
        Some(Variants {
            active,
            full: cfg.machine,
            baseline: machine(OptimizerConfig::baseline()),
            loo: PassId::ALL
                .into_iter()
                .map(|p| (p, machine(opt.without_passes(&[p]))))
                .collect(),
            add_in: add_one_in.then(|| {
                PassId::ALL
                    .into_iter()
                    .map(|p| (p, machine(opt.only_passes(&[p]))))
                    .collect()
            }),
        })
    }

    /// Every machine of the matrix, for plan declaration.
    fn machines(&self) -> impl Iterator<Item = MachineConfig> + '_ {
        [self.full, self.baseline]
            .into_iter()
            .chain(self.loo.iter().map(|(_, m)| *m))
            .chain(self.add_in.iter().flatten().map(|(_, m)| *m))
    }
}

/// Whether the scenario's ablation block requests the add-one-in
/// direction (absent block = leave-one-out only).
fn wants_add_one_in(sc: &Scenario) -> bool {
    sc.ablation.is_some_and(|a| a.add_one_in)
}

/// Declares the scenario's full counterfactual matrix into one
/// deduplicated [`Plan`]. The plan's cell count equals the number of
/// *unique configuration fingerprints*, not `configs × passes`: a
/// leave-one-out of an inactive pass collapses onto the full cell, an
/// add-one-in of an inactive pass collapses onto the baseline cell, and
/// variants shared between scenario configurations collapse across them.
pub fn ablation_plan(sc: &Scenario) -> Result<Plan, AblationError> {
    let add_in = wants_add_one_in(sc);
    let mut plan = Plan::new();
    let mut any = false;
    for cfg in &sc.configs {
        let Some(v) = Variants::of(cfg, add_in) else {
            continue;
        };
        any = true;
        let ws = sc.workloads_for(cfg)?;
        for machine in v.machines() {
            plan.config(machine, &ws);
        }
    }
    if !any {
        return Err(AblationError::NothingToAblate(sc.name.clone()));
    }
    Ok(plan)
}

/// The signature event counter of one pass in a full run: the counters
/// its [`contopt_sim::PassStats`] block owns, as the scenario and Table 3
/// renderings report them.
fn pass_events(stats: &OptStats, id: PassId) -> u64 {
    match id {
        PassId::CpRa => {
            stats.moves_eliminated + stats.strength_reductions + stats.branch_inferences
        }
        PassId::RleSf => stats.loads_removed,
        PassId::ValueFeedback => stats.feedback_integrations,
        PassId::EarlyExec => stats.executed_early,
    }
}

/// Computes the per-pass cycle attribution for every ablatable
/// configuration of the scenario. Cells already simulated by
/// [`Lab::execute`] (on the [`ablation_plan`]) come from the cache; any
/// cell not pre-executed is simulated on demand.
pub fn ablation_report(lab: &mut Lab, sc: &Scenario) -> Result<AblationReport, AblationError> {
    let add_in = wants_add_one_in(sc);
    let speedup = |new: &Report, base: &Report, label: &str, workload: &str| {
        new.speedup_over(base)
            .map_err(|err| AblationError::Speedup {
                label: label.to_string(),
                workload: workload.to_string(),
                err,
            })
    };
    let mut configs = Vec::new();
    for cfg in &sc.configs {
        let Some(v) = Variants::of(cfg, add_in) else {
            continue;
        };
        let mut workloads = Vec::new();
        for w in sc.workloads_for(cfg)? {
            let full = lab.run(v.full, &w);
            let base = lab.run(v.baseline, &w);
            let mut rows = Vec::new();
            for (i, (id, machine)) in v.loo.iter().enumerate() {
                let loo = lab.run(*machine, &w);
                let add_one_in = match &v.add_in {
                    Some(add) => {
                        let only = lab.run(add[i].1, &w);
                        Some(AddOneIn {
                            cycles: only.pipeline.cycles,
                            speedup: speedup(&only, &base, &cfg.label, w.name)?,
                        })
                    }
                    None => None,
                };
                rows.push(PassAblation {
                    pass: id.name().to_string(),
                    active: v.active.contains(id),
                    events: pass_events(full.passes.block(*id), *id),
                    loo_cycles: loo.pipeline.cycles,
                    speedup_without: speedup(&loo, &base, &cfg.label, w.name)?,
                    add_one_in,
                });
            }
            workloads.push(WorkloadAblation {
                workload: w.name.to_string(),
                baseline_cycles: base.pipeline.cycles,
                full_cycles: full.pipeline.cycles,
                speedup: speedup(&full, &base, &cfg.label, w.name)?,
                rows,
            });
        }
        configs.push(ConfigAblation {
            label: cfg.label.clone(),
            active: v.active.iter().map(|id| id.name().to_string()).collect(),
            workloads,
        });
    }
    if configs.is_empty() {
        return Err(AblationError::NothingToAblate(sc.name.clone()));
    }
    Ok(AblationReport {
        scenario: sc.name.clone(),
        insts: sc.insts,
        add_one_in: add_in,
        configs,
    })
}

/// The golden file pinning a scenario's ablation:
/// `<dir>/<scenario>/ablation.json` (next to the scenario's per-cell
/// report goldens, which live one directory further down).
pub fn ablation_golden_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(file_stem(scenario)).join("ablation.json")
}

/// The scenario's ablation as a [`Golden`]: the [`AblationReport`]'s
/// canonical JSON at [`ablation_golden_path`].
pub fn ablation_golden(lab: &mut Lab, sc: &Scenario, dir: &Path) -> Result<Golden, AblationError> {
    Ok(Golden {
        path: ablation_golden_path(dir, &sc.name),
        text: ablation_report(lab, sc)?.canonical_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{check_goldens, record_goldens, DriftKind, TolerancePolicy};
    use contopt_sim::AblationSpec;

    fn tiny_scenario(add_one_in: bool) -> Scenario {
        Scenario {
            name: "tiny".into(),
            insts: 20_000,
            ablation: add_one_in.then_some(AblationSpec { add_one_in }),
            programs: vec![],
            configs: vec![
                ScenarioConfig {
                    label: "baseline".into(),
                    machine: MachineConfig::default_paper(),
                    workloads: vec!["twf".into()],
                },
                ScenarioConfig {
                    label: "optimized".into(),
                    machine: MachineConfig::default_with_optimizer(),
                    workloads: vec!["twf".into()],
                },
            ],
        }
    }

    #[test]
    fn plan_counts_unique_fingerprints_not_n_times_passes() {
        // Full + baseline + 4 distinct leave-one-outs = 6 unique machines
        // on one workload; the baseline config contributes nothing new
        // (its machine *is* the ablation baseline).
        let plan = ablation_plan(&tiny_scenario(false)).unwrap();
        assert_eq!(plan.len(), 6);
        // With add-one-in, four keep-only machines join: 10.
        let plan = ablation_plan(&tiny_scenario(true)).unwrap();
        assert_eq!(plan.len(), 10);
    }

    #[test]
    fn inactive_pass_cells_collapse_onto_existing_fingerprints() {
        // feedback-only has two active passes; the two inactive passes'
        // leave-one-out machines are identical to the full machine, so the
        // matrix is full + baseline + 2 real leave-one-outs = 4 cells.
        let mut sc = tiny_scenario(false);
        sc.configs[1].machine.optimizer = OptimizerConfig::feedback_only();
        let plan = ablation_plan(&sc).unwrap();
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn baseline_only_scenarios_are_a_typed_error() {
        let mut sc = tiny_scenario(false);
        sc.configs.truncate(1);
        let err = ablation_plan(&sc).unwrap_err();
        assert!(matches!(err, AblationError::NothingToAblate(_)), "{err}");
        let mut lab = Lab::new(sc.insts);
        let err = ablation_report(&mut lab, &sc).unwrap_err();
        assert!(matches!(err, AblationError::NothingToAblate(_)), "{err}");
    }

    #[test]
    fn report_marginals_are_consistent_with_the_cells() {
        let sc = tiny_scenario(true);
        let mut lab = Lab::new(sc.insts);
        lab.execute(&ablation_plan(&sc).unwrap(), 2);
        let r = ablation_report(&mut lab, &sc).unwrap();
        assert_eq!(r.configs.len(), 1, "baseline config is not ablated");
        assert!(r.add_one_in);
        let w = &r.configs[0].workloads[0];
        assert_eq!(w.rows.len(), 4, "one row per stock pass");
        for row in &w.rows {
            assert!(row.active, "every default pass is active");
            assert!(row.add_one_in.is_some());
            // Each leave-one-out machine can never beat the full set on
            // these kernels by construction of the mechanisms; allow
            // equality (a pass can be cycle-neutral on a tiny budget).
            assert!(
                w.marginal_cycles(row) >= 0,
                "{}: marginal {}",
                row.pass,
                w.marginal_cycles(row)
            );
        }
        assert_eq!(
            w.interaction_residual(),
            w.recovered_cycles() - w.marginal_sum()
        );
    }

    #[test]
    fn golden_round_trip_detects_drift() {
        let dir = std::env::temp_dir().join(format!("contopt-ablate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sc = tiny_scenario(false);
        let mut lab = Lab::new(sc.insts);
        let goldens = [ablation_golden(&mut lab, &sc, &dir).unwrap()];
        record_goldens(&goldens).unwrap();
        let path = &goldens[0].path;
        assert!(path.ends_with("tiny/ablation.json"));
        let exact = TolerancePolicy::exact();
        assert!(check_goldens(&goldens, &exact).unwrap().is_empty());
        // Perturb the recorded golden: drift, with a named first line.
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::write(path, text.replace("\"insts\": 20000", "\"insts\": 21000")).unwrap();
        let drifts = check_goldens(&goldens, &exact).unwrap();
        assert_eq!(drifts.len(), 1);
        assert!(matches!(drifts[0].kind, DriftKind::Changed { .. }));
        // A policy covering the differing field accepts it.
        let lenient = TolerancePolicy::allowing(["insts"]);
        assert!(check_goldens(&goldens, &lenient).unwrap().is_empty());
        // A missing golden is drift, not a pass.
        let _ = std::fs::remove_dir_all(&dir);
        let drifts = check_goldens(&goldens, &exact).unwrap();
        assert_eq!(drifts[0].kind, DriftKind::Missing);
    }

    fn sample() -> AblationReport {
        AblationReport {
            scenario: "demo".into(),
            insts: 1_000,
            add_one_in: true,
            configs: vec![ConfigAblation {
                label: "optimized".into(),
                active: vec!["cp-ra".into(), "early-exec".into()],
                workloads: vec![WorkloadAblation {
                    workload: "twf".into(),
                    baseline_cycles: 1_000,
                    full_cycles: 800,
                    speedup: 1.25,
                    rows: vec![
                        PassAblation {
                            pass: "cp-ra".into(),
                            active: true,
                            events: 40,
                            loo_cycles: 950,
                            speedup_without: 1.05,
                            add_one_in: Some(AddOneIn {
                                cycles: 900,
                                speedup: 1.11,
                            }),
                        },
                        PassAblation {
                            pass: "rle-sf".into(),
                            active: false,
                            events: 0,
                            loo_cycles: 800,
                            speedup_without: 1.25,
                            add_one_in: Some(AddOneIn {
                                cycles: 1_000,
                                speedup: 1.0,
                            }),
                        },
                    ],
                }],
            }],
        }
    }

    #[test]
    fn attribution_math_is_derived_from_cycles() {
        let r = sample();
        let w = &r.configs[0].workloads[0];
        assert_eq!(w.recovered_cycles(), 200);
        assert_eq!(w.marginal_cycles(&w.rows[0]), 150);
        assert_eq!(w.marginal_cycles(&w.rows[1]), 0, "inactive pass is free");
        assert_eq!(w.marginal_sum(), 150);
        assert_eq!(w.interaction_residual(), 50);
        assert!((w.speedup_share_pct(&w.rows[0]) - 75.0).abs() < 1e-12);
        assert_eq!(w.speedup_share_pct(&w.rows[1]), 0.0);
    }

    #[test]
    fn zero_recovery_share_is_guarded() {
        let w = WorkloadAblation {
            workload: "x".into(),
            baseline_cycles: 500,
            full_cycles: 500,
            speedup: 1.0,
            rows: vec![PassAblation {
                pass: "cp-ra".into(),
                active: true,
                events: 0,
                loo_cycles: 510,
                speedup_without: 0.98,
                add_one_in: None,
            }],
        };
        assert_eq!(w.recovered_cycles(), 0);
        assert_eq!(w.speedup_share_pct(&w.rows[0]), 0.0, "no NaN/inf");
        assert_eq!(w.marginal_cycles(&w.rows[0]), 10);
        assert_eq!(w.interaction_residual(), -10);
    }

    #[test]
    fn canonical_json_is_parseable_and_complete() {
        let r = sample();
        let text = r.canonical_json();
        assert!(text.ends_with('\n'));
        let doc = JsonValue::parse(&text).unwrap();
        let row = doc
            .get("configs")
            .and_then(JsonValue::as_array)
            .and_then(|c| c[0].get("workloads"))
            .and_then(JsonValue::as_array)
            .and_then(|w| w[0].get("passes"))
            .and_then(JsonValue::as_array)
            .expect("passes array")
            .first()
            .unwrap();
        // Non-negative integers reparse as UInt; the signed serialization
        // only shows when a value is actually negative.
        assert_eq!(
            row.get("marginal_cycles"),
            Some(&JsonValue::UInt(150)),
            "{row:?}"
        );
        assert!(row.get("add_one_in").is_some());
        // The negative-capable fields really serialize signed.
        let w = WorkloadAblation {
            workload: "x".into(),
            baseline_cycles: 100,
            full_cycles: 130,
            speedup: 0.77,
            rows: vec![],
        };
        let j = w.to_json();
        assert_eq!(j.get("recovered_cycles"), Some(&JsonValue::Int(-30)));
    }

    #[test]
    fn display_renders_cycle_columns_next_to_event_columns() {
        let text = sample().to_string();
        assert!(text.contains("marg.cyc"), "{text}");
        assert!(text.contains("events"), "{text}");
        assert!(text.contains("share%"), "{text}");
        assert!(text.contains("only.cyc"), "{text}");
        assert!(text.contains("rle-sf (off)"), "{text}");
        assert!(text.contains("interaction"), "{text}");
    }
}
