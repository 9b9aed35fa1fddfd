//! The counterfactual ablation engine: per-pass *cycle* attribution.
//!
//! PR 4's per-pass stats attribute optimizer *events* to the pass that
//! earned them; this module attributes *cycles*, the quantity the paper's
//! speedup claims are actually about, by controlled removal. For every
//! `(configuration, workload)` cell of a scenario it plans the
//! counterfactual matrix —
//!
//! * the **full** pass set as configured,
//! * **leave-one-out**: the same machine with exactly one stock pass
//!   removed, for every stock pass (removal of an inactive pass is the
//!   identity, so its cell deduplicates onto the full cell and its
//!   marginal is exactly zero without simulating anything),
//! * the **baseline** (optimizer removed entirely), and
//! * optionally **add-one-in**: the baseline plus exactly one pass
//!   (enabled by the scenario's `"ablation": {"add_one_in": true}`),
//!
//! — expands it into the existing [`Lab`] plan/execute engine (cells
//! dedupe by configuration fingerprint and fan across workers for free),
//! and computes `marginal_cycles[p] = cycles(all \ {p}) − cycles(all)`,
//! the interaction residual, and speedup shares through the error-safe
//! `speedup_over` API. The result is a
//! [`contopt_sim::AblationReport`], whose canonical JSON the golden
//! harness pins under `goldens/<scenario>/ablation.json`
//! ([`ablation_golden`], recorded and checked by
//! [`record_goldens`](crate::record_goldens) /
//! [`check_goldens`](crate::check_goldens)).

use crate::lab::{Lab, Plan};
use crate::scenario::Golden;
use contopt_sim::{
    file_stem, AblationReport, AddOneIn, ConfigAblation, MachineConfig, OptStats, OptimizerConfig,
    PassAblation, PassId, Report, Scenario, ScenarioConfig, ScenarioError, SpeedupError,
    WorkloadAblation,
};
use std::fmt;
use std::path::{Path, PathBuf};

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
}
