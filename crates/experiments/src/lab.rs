//! The experiment runner: simulates workloads under machine configurations
//! and caches results so figures sharing a configuration don't re-simulate.
//!
//! The runner is a plan/execute engine: a scenario file *declares* its
//! `(configuration, workload)` cells into a [`Plan`], [`Lab::execute`]
//! dedupes the cells and fans the unique, not-yet-cached ones across
//! [`run_parallel`]'s scoped worker threads, and the renderers then read
//! the filled cache. Cells are keyed by [`CellKey`], the same identity
//! the sweep server caches by and the wire fingerprint is computed from:
//! the normalized machine, the workload name and, for a scenario-shipped
//! program, its text. Two configurations that simulate identically share
//! one cell, and two programs that share a name never do.

use contopt_sim::workloads::Workload;
use contopt_sim::{run_parallel, CellKey, JsonValue, MachineConfig, Report, SimSession, ToJson};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Default dynamic-instruction budget per benchmark (all workloads halt
/// naturally below this).
pub const DEFAULT_INSTS: u64 = 2_000_000;

/// A declared set of `(configuration, workload)` simulation cells,
/// deduplicated by [`CellKey`].
///
/// # Examples
///
/// ```
/// use contopt_experiments::Plan;
/// use contopt_sim::MachineConfig;
///
/// let mut plan = Plan::new();
/// let w = contopt_sim::workloads::build("untst").unwrap();
/// plan.cell(MachineConfig::default_paper(), &w);
/// plan.cell(MachineConfig::default_paper(), &w); // deduped
/// assert_eq!(plan.len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Plan {
    cells: Vec<(CellKey, MachineConfig, Workload)>,
    seen: HashSet<CellKey>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Plan {
        Plan::default()
    }

    /// Declares one cell; duplicates (by [`CellKey`]) are ignored.
    pub fn cell(&mut self, cfg: MachineConfig, w: &Workload) {
        let key = CellKey::of(&cfg, w);
        if self.seen.insert(key.clone()) {
            self.cells.push((key, cfg, w.clone()));
        }
    }

    /// Declares `cfg` on every workload in `ws`.
    pub fn config(&mut self, cfg: MachineConfig, ws: &[Workload]) {
        for w in ws {
            self.cell(cfg, w);
        }
    }

    /// Absorbs every cell of `other`.
    pub fn merge(&mut self, other: &Plan) {
        for (_, cfg, w) in &other.cells {
            self.cell(*cfg, w);
        }
    }

    /// Number of unique cells declared.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are declared.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The deduplicated cell keys, in declaration order. Two plans that
    /// would simulate the same cells — however their configurations were
    /// constructed — yield equal key sets.
    pub fn fingerprints(&self) -> Vec<CellKey> {
        self.cells.iter().map(|(key, ..)| key.clone()).collect()
    }
}

/// Runs simulations through [`SimSession`] and memoizes their reports.
///
/// # Examples
///
/// ```no_run
/// use contopt_experiments::Lab;
/// use contopt_sim::MachineConfig;
///
/// let mut lab = Lab::new(2_000_000);
/// let w = contopt_sim::workloads::build("untst").unwrap();
/// let base = lab.run(MachineConfig::default_paper(), &w);
/// let opt = lab.run(MachineConfig::default_with_optimizer(), &w);
/// println!("untst speedup: {:.3}", opt.speedup_over(&base).unwrap());
/// ```
pub struct Lab {
    insts: u64,
    cache: HashMap<CellKey, Arc<Report>>,
}

impl Lab {
    /// Creates a lab with an instruction budget per benchmark.
    pub fn new(insts: u64) -> Lab {
        Lab {
            insts,
            cache: HashMap::new(),
        }
    }

    /// The per-benchmark instruction budget.
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// The cached report for a Table 1 benchmark's cell, if
    /// [`run`](Self::run) or [`execute`](Self::execute) already simulated
    /// it.
    pub fn cached(&self, cfg: &MachineConfig, workload: &str) -> Option<Arc<Report>> {
        self.cache
            .get(&CellKey::new(cfg, workload, None))
            .map(Arc::clone)
    }

    #[expect(
        clippy::expect_used,
        reason = "lab sessions are built from validated configurations"
    )]
    fn session(&self, cfg: MachineConfig, w: &Workload) -> SimSession {
        SimSession::builder()
            .machine(cfg)
            .program(Arc::clone(&w.program))
            .insts(self.insts)
            .build()
            .expect("lab configurations are structurally valid")
    }

    /// Simulates every not-yet-cached cell of `plan` across `jobs` scoped
    /// worker threads and fills the cache. Parallelism cannot perturb
    /// results: each cell is an independent cold-state simulation, and the
    /// cache is keyed identically however many workers ran.
    #[expect(
        clippy::expect_used,
        reason = "a panicking simulation is a sweep-harness bug"
    )]
    pub fn execute(&mut self, plan: &Plan, jobs: usize) {
        let todo: Vec<(&CellKey, SimSession)> = plan
            .cells
            .iter()
            .filter(|(key, ..)| !self.cache.contains_key(key))
            .map(|(key, cfg, w)| (key, self.session(*cfg, w)))
            .collect();
        let reports = run_parallel(&todo, jobs, |(_, session)| session.run());
        for ((key, _), report) in todo.into_iter().zip(reports) {
            let report = report.expect("sweep worker panicked");
            self.cache.insert(key.clone(), Arc::new(report));
        }
    }

    /// Simulates `w` under `cfg`, memoized by [`CellKey`]. Cells already
    /// filled by [`execute`](Self::execute) return from the cache without
    /// simulating.
    pub fn run(&mut self, cfg: MachineConfig, w: &Workload) -> Arc<Report> {
        let key = CellKey::of(&cfg, w);
        if let Some(r) = self.cache.get(&key) {
            return Arc::clone(r);
        }
        let report = Arc::new(self.session(cfg, w).run());
        self.cache.insert(key, Arc::clone(&report));
        report
    }
}

/// Geometric-mean speedups per suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteMeans {
    /// SPECint geometric mean.
    pub specint: f64,
    /// SPECfp geometric mean.
    pub specfp: f64,
    /// mediabench geometric mean.
    pub mediabench: f64,
}

impl SuiteMeans {
    /// Geometric mean across the three suite means.
    pub fn overall(&self) -> f64 {
        (self.specint * self.specfp * self.mediabench).cbrt()
    }
}

impl ToJson for SuiteMeans {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("specint", self.specint.into()),
            ("specfp", self.specfp.into()),
            ("mediabench", self.mediabench.into()),
            ("overall", self.overall().into()),
        ])
    }
}

/// Geometric mean of a slice of positive values.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_math() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        geomean(&[]);
    }

    #[test]
    fn lab_memoizes() {
        let mut lab = Lab::new(50_000);
        let w = contopt_sim::workloads::build("twf").unwrap();
        let a = lab.run(MachineConfig::default_paper(), &w);
        let b = lab.run(MachineConfig::default_paper(), &w);
        assert!(Arc::ptr_eq(&a, &b), "second run must come from the cache");
    }

    #[test]
    fn cache_keys_are_config_fingerprints() {
        // Two differently-constructed but behaviourally identical
        // configurations must share one cell: a disabled optimizer's knob
        // fields cannot matter.
        let mut lab = Lab::new(50_000);
        let w = contopt_sim::workloads::build("twf").unwrap();
        let a_cfg = MachineConfig::default_paper();
        let mut b_cfg = MachineConfig::default_paper();
        b_cfg.optimizer.mbc_entries = 7; // inert: optimizer disabled
        let a = lab.run(a_cfg, &w);
        let b = lab.run(b_cfg, &w);
        assert!(Arc::ptr_eq(&a, &b), "normalized configs share a cell");
    }

    #[test]
    fn execute_fills_the_cache() {
        let mut lab = Lab::new(50_000);
        let w = contopt_sim::workloads::build("twf").unwrap();
        let mut plan = Plan::new();
        plan.cell(MachineConfig::default_paper(), &w);
        plan.cell(MachineConfig::default_with_optimizer(), &w);
        assert!(lab.cached(&MachineConfig::default_paper(), "twf").is_none());
        lab.execute(&plan, 2);
        let base = lab
            .cached(&MachineConfig::default_paper(), "twf")
            .expect("executed");
        // A subsequent run() must come from the cache, not re-simulate.
        let again = lab.run(MachineConfig::default_paper(), &w);
        assert!(Arc::ptr_eq(&base, &again));
    }

    #[test]
    fn plan_dedupes_and_merges() {
        let ws = contopt_sim::workloads::suite();
        let mut a = Plan::new();
        a.config(MachineConfig::default_paper(), &ws);
        let n = a.len();
        assert_eq!(n, ws.len());
        let mut b = Plan::new();
        b.config(MachineConfig::default_paper(), &ws);
        b.config(MachineConfig::default_with_optimizer(), &ws);
        a.merge(&b);
        assert_eq!(a.len(), 2 * n, "merge dedupes shared cells");
    }

    #[test]
    fn programs_that_share_a_name_are_separate_cells() {
        let build = |name| contopt_sim::workloads::build(name).unwrap();
        let k = |program| Workload {
            name: "k",
            ..build(program)
        };
        let mut lab = Lab::new(20_000);
        let cfg = MachineConfig::default_paper();
        let twf = lab.run(cfg, &k("twf"));
        let untst = lab.run(cfg, &k("untst"));
        assert!(!Arc::ptr_eq(&twf, &untst), "two programs, two reports");
        assert_eq!(
            untst.pipeline.cycles,
            lab.run(cfg, &build("untst")).pipeline.cycles
        );
        assert_ne!(twf.pipeline.cycles, untst.pipeline.cycles);
        // The same program twice is one cell, in a plan as in the cache.
        assert!(Arc::ptr_eq(&twf, &lab.run(cfg, &k("twf"))));
        let mut plan = Plan::new();
        plan.config(cfg, &[k("twf"), k("untst"), k("twf")]);
        assert_eq!(plan.len(), 2);
        let mut fresh = Lab::new(20_000);
        fresh.execute(&plan, 2);
        assert_eq!(fresh.run(cfg, &k("untst")).pipeline, untst.pipeline);
        assert_eq!(fresh.run(cfg, &k("twf")).pipeline, twf.pipeline);
    }
}
