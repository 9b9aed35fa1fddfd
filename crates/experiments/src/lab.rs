//! The experiment runner: simulates workloads under machine configurations
//! and caches results so figures sharing a configuration don't re-simulate.
//!
//! The runner is a plan/execute engine: a scenario file *declares* its
//! `(configuration, workload)` cells into a [`Plan`], [`Lab::execute`]
//! dedupes the cells and fans the unique, not-yet-cached ones across
//! scoped worker threads, and the renderers then read the filled cache.
//! Results are keyed by a fingerprint derived from the configuration
//! itself ([`OptimizerConfig::normalized`](contopt_sim::OptimizerConfig::normalized)
//! plus every machine field), so two configurations that simulate
//! identically share one cell and no caller-supplied string key can
//! silently collide.

use contopt_sim::workloads::{suite, Workload};
use contopt_sim::{JsonValue, MachineConfig, Report, SimSession, ToJson};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Default dynamic-instruction budget per benchmark (all workloads halt
/// naturally below this).
pub const DEFAULT_INSTS: u64 = 2_000_000;

/// A cache key naming one simulation cell: the *behavioural fingerprint*
/// of a machine configuration plus the workload name. The optimizer block
/// is normalized so configurations that cannot differ in simulation
/// compare (and hash) equal.
type CellKey = (MachineConfig, &'static str);

fn cell_key(cfg: &MachineConfig, workload: &'static str) -> CellKey {
    let fingerprint = MachineConfig {
        optimizer: cfg.optimizer.normalized(),
        ..*cfg
    };
    (fingerprint, workload)
}

/// A declared set of `(configuration, workload)` simulation cells,
/// deduplicated by configuration fingerprint.
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
    cells: Vec<(MachineConfig, &'static str)>,
    seen: HashSet<CellKey>,
}

impl Plan {
    /// An empty plan.
    pub fn new() -> Plan {
        Plan::default()
    }

    fn insert(&mut self, cfg: MachineConfig, name: &'static str) {
        if self.seen.insert(cell_key(&cfg, name)) {
            self.cells.push((cfg, name));
        }
    }

    /// Declares one cell; duplicates (by fingerprint) are ignored.
    pub fn cell(&mut self, cfg: MachineConfig, w: &Workload) {
        self.insert(cfg, w.name);
    }

    /// Declares `cfg` on every workload in `ws`.
    pub fn config(&mut self, cfg: MachineConfig, ws: &[Workload]) {
        for w in ws {
            self.cell(cfg, w);
        }
    }

    /// Absorbs every cell of `other`.
    pub fn merge(&mut self, other: &Plan) {
        for (cfg, name) in &other.cells {
            self.insert(*cfg, name);
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

    /// The deduplicated cell fingerprints (normalized configuration plus
    /// workload name), in declaration order. Two plans that would simulate
    /// the same cells — however their configurations were constructed —
    /// yield equal fingerprint sets.
    pub fn fingerprints(&self) -> Vec<(MachineConfig, &'static str)> {
        self.cells
            .iter()
            .map(|(cfg, name)| cell_key(cfg, name))
            .collect()
    }
}

/// The default worker count for [`Lab::execute`]: the `CONTOPT_JOBS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`]. Setting `CONTOPT_JOBS=0` (like
/// passing `--jobs 0` to the binary) explicitly requests auto-detection —
/// it is never an error and never means "serialize".
pub fn default_jobs() -> usize {
    std::env::var("CONTOPT_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
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
    workloads: Vec<Workload>,
    cache: HashMap<CellKey, Arc<Report>>,
}

impl Lab {
    /// Creates a lab with an instruction budget per benchmark.
    pub fn new(insts: u64) -> Lab {
        Lab {
            insts,
            workloads: suite(),
            cache: HashMap::new(),
        }
    }

    /// The workload suite under test.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// Registers a scenario-defined workload so [`execute`](Self::execute)
    /// can resolve it by name. Re-registering an identical workload is a
    /// no-op; registering a different program under an existing name
    /// panics (the cell cache is keyed by name).
    pub fn register(&mut self, w: Workload) {
        if let Some(prev) = self.workloads.iter().find(|p| p.name == w.name) {
            assert!(
                *prev.program == *w.program,
                "workload {:?} re-registered with a different program",
                w.name
            );
            return;
        }
        self.workloads.push(w);
    }

    /// The per-benchmark instruction budget.
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// The cached report for a cell, if [`run`](Self::run) or
    /// [`execute`](Self::execute) already simulated it.
    pub fn cached(&self, cfg: &MachineConfig, workload: &'static str) -> Option<Arc<Report>> {
        self.cache.get(&cell_key(cfg, workload)).map(Arc::clone)
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
        reason = "worker panics and missing cells are sweep-harness bugs"
    )]
    pub fn execute(&mut self, plan: &Plan, jobs: usize) {
        let todo: Vec<(CellKey, SimSession)> = plan
            .cells
            .iter()
            .filter_map(|(cfg, name)| {
                let key = cell_key(cfg, name);
                if self.cache.contains_key(&key) {
                    return None;
                }
                let w = self
                    .workloads
                    .iter()
                    .find(|w| w.name == *name)
                    .unwrap_or_else(|| panic!("plan names unknown workload {name}"));
                Some((key, self.session(*cfg, w)))
            })
            .collect();
        if todo.is_empty() {
            return;
        }

        let jobs = jobs.max(1).min(todo.len());
        let next = AtomicUsize::new(0);
        let mut reports: Vec<Option<Report>> = (0..todo.len()).map(|_| None).collect();
        let done = std::thread::scope(|s| {
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some((_, session)) = todo.get(i) else {
                                return out;
                            };
                            out.push((i, session.run()));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect::<Vec<_>>()
        });
        for (i, report) in done {
            reports[i] = Some(report);
        }
        for ((key, _), report) in todo.into_iter().zip(reports) {
            let report = report.expect("every claimed cell produced a report");
            self.cache.insert(key, Arc::new(report));
        }
    }

    /// Simulates `w` under `cfg`, memoized by configuration fingerprint.
    /// Cells already filled by [`execute`](Self::execute) return from the
    /// cache without simulating.
    pub fn run(&mut self, cfg: MachineConfig, w: &Workload) -> Arc<Report> {
        let key = cell_key(&cfg, w.name);
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
        let lab = Lab::new(10_000);
        let ws = lab.workloads();
        let mut a = Plan::new();
        a.config(MachineConfig::default_paper(), ws);
        let n = a.len();
        assert_eq!(n, ws.len());
        let mut b = Plan::new();
        b.config(MachineConfig::default_paper(), ws);
        b.config(MachineConfig::default_with_optimizer(), ws);
        a.merge(&b);
        assert_eq!(a.len(), 2 * n, "merge dedupes shared cells");
    }
}
