//! Which simulation cells each workload runs, in which order, and the
//! canonical reports they must reproduce.

use contopt_client::protocol::{CellReply, PlanCell};
use contopt_experiments::{golden_path, Plan};
use contopt_sim::workloads::Workload as Kernel;
use contopt_sim::{JsonValue, MachineConfig, Scenario, SimSession};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The figure sweep every workload is drawn from.
pub const FIG9: &str = "scenarios/fig9.json";

/// The checked-in golden reports.
const GOLDENS: &str = "goldens";

/// The four lowest-IPC kernels on fig9's baseline machine (simulated IPC
/// 0.33–0.45 in `goldens/fig9/baseline`): most of their cycles change no
/// pipeline state.
const STALL_KERNELS: [&str; 4] = ["gap", "vpr", "twf", "hjoin"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 72 fig9 cells through `Lab::execute` on every core.
    Fig9Local,
    /// fig9's baseline machine on the four lowest-IPC kernels, one worker.
    StallBase,
}

impl Workload {
    /// Parses a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fig9_local" => Some(Workload::Fig9Local),
            "stall_base" => Some(Workload::StallBase),
            _ => None,
        }
    }

    /// The name `--workload` and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Local => "fig9_local",
            Workload::StallBase => "stall_base",
        }
    }

    /// Worker threads the workload's sweeps run on.
    pub fn jobs(self) -> usize {
        match self {
            Workload::StallBase => 1,
            Workload::Fig9Local => nproc(),
        }
    }

    /// The workload's cells: its kernels under its machines.
    pub fn cells(self, seed: u64, insts: Option<u64>) -> Result<CellSet, String> {
        match self {
            Workload::StallBase => fig9_cells(Some(&STALL_KERNELS), Some("baseline"), seed, insts),
            Workload::Fig9Local => fig9_cells(None, None, seed, insts),
        }
    }

    /// Every fig9 machine on the workload's kernels: the cells the traced
    /// run times layer by layer, so each per-machine metric exists on every
    /// workload.
    pub fn layer_cells(self, seed: u64, insts: Option<u64>) -> Result<CellSet, String> {
        let kernels = (self == Workload::StallBase).then_some(&STALL_KERNELS[..]);
        fig9_cells(kernels, None, seed, insts)
    }
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One simulation cell.
#[derive(Clone)]
pub struct Cell {
    /// The fig9 configuration label (`baseline`, `feedback`, `feedback+opt`).
    pub label: String,
    /// The machine the cell simulates.
    pub machine: MachineConfig,
    /// The kernel it runs.
    pub kernel: Kernel,
}

impl Cell {
    /// The label as written in metric names (`feedback+opt` → `feedback_opt`).
    pub fn metric_label(&self) -> String {
        self.label.replace('+', "_")
    }

    /// A cold-machine session for this cell.
    pub fn session(&self, insts: u64) -> Result<SimSession, String> {
        SimSession::builder()
            .machine(self.machine)
            .program(Arc::clone(&self.kernel.program))
            .insts(insts)
            .build()
            .map_err(|e| format!("{}/{}: {e}", self.label, self.kernel.name))
    }

    /// The cell as a sweep-service request entry.
    pub fn plan_cell(&self) -> PlanCell {
        PlanCell {
            label: self.label.clone(),
            machine: self.machine,
            workload: self.kernel.name.to_string(),
        }
    }
}

/// A workload's cells in the seed's order, under one instruction budget.
pub struct CellSet {
    /// Dynamic-instruction budget per cell.
    pub insts: u64,
    /// The cells, permuted by the workload seed.
    pub cells: Vec<Cell>,
}

impl CellSet {
    /// The cells as an experiments [`Plan`], in the seed's order.
    pub fn plan(&self) -> Plan {
        let mut plan = Plan::new();
        for c in &self.cells {
            plan.cell(c.machine, &c.kernel);
        }
        plan
    }

    /// The cells in the order of `perm`, as a sweep-service request.
    pub fn plan_cells(&self, perm: &[usize]) -> Vec<PlanCell> {
        perm.iter().map(|&i| self.cells[i].plan_cell()).collect()
    }
}

/// Loads fig9 and keeps the cells whose kernel is in `kernels` and whose
/// label is `label` (`None` keeps all), shuffled by `seed`. `insts`
/// overrides the scenario's budget (self-test only).
fn fig9_cells(
    kernels: Option<&[&str]>,
    label: Option<&str>,
    seed: u64,
    insts: Option<u64>,
) -> Result<CellSet, String> {
    let sc = Scenario::load(FIG9).map_err(|e| format!("{FIG9}: {e}"))?;
    let mut cells = Vec::new();
    for cfg in &sc.configs {
        if label.is_some_and(|l| l != cfg.label) {
            continue;
        }
        for kernel in sc.workloads_for(cfg).map_err(|e| e.to_string())? {
            if kernels.is_some_and(|ks| !ks.contains(&kernel.name)) {
                continue;
            }
            cells.push(Cell {
                label: cfg.label.clone(),
                machine: cfg.machine,
                kernel,
            });
        }
    }
    let perm = permutation(cells.len(), seed);
    let mut shuffled: Vec<Option<Cell>> = cells.into_iter().map(Some).collect();
    let cells = perm.iter().filter_map(|&i| shuffled[i].take()).collect();
    Ok(CellSet {
        insts: insts.unwrap_or(sc.insts),
        cells,
    })
}

/// A seeded Fisher–Yates permutation of `0..n` (splitmix64 stream).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    perm
}

/// The canonical report text every cell must reproduce, keyed by
/// `(label, kernel)`.
pub struct Expected {
    reports: HashMap<(String, String), String>,
    /// Retired instructions summed over the cells.
    pub retired: u64,
}

impl Expected {
    /// Reads the cells' fig9 goldens. With an overridden budget no golden
    /// applies, so each cell is simulated once here instead and every later
    /// pass must reproduce that report byte for byte.
    pub fn load(set: &CellSet, budget_overridden: bool) -> Result<Expected, String> {
        let mut reports = HashMap::new();
        let mut retired = 0;
        for c in &set.cells {
            let text = if budget_overridden {
                c.session(set.insts)?.run().canonical_json()
            } else {
                let path = golden_path(Path::new(GOLDENS), "fig9", &c.label, c.kernel.name);
                std::fs::read_to_string(&path)
                    .map_err(|e| format!("golden {}: {e}", path.display()))?
            };
            retired += JsonValue::parse(&text)
                .ok()
                .and_then(|doc| doc.get("pipeline")?.get("retired")?.as_u64())
                .ok_or_else(|| {
                    format!("{}/{}: report has no retired count", c.label, c.kernel.name)
                })?;
            reports.insert((c.label.clone(), c.kernel.name.to_string()), text);
        }
        Ok(Expected { reports, retired })
    }
}

/// Cells attempted and cells failed: errored, panicked, or a report that
/// differs from its expected text.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Cell answers checked.
    pub attempted: u64,
    /// Answers that were missing or wrong.
    pub failed: u64,
}

impl Tally {
    /// Checks one cell's report text (`None` = the cell produced none).
    pub fn check(&mut self, expected: &Expected, label: &str, kernel: &str, got: Option<&str>) {
        self.attempted += 1;
        let want = expected
            .reports
            .get(&(label.to_string(), kernel.to_string()));
        if want.is_none() || want.map(String::as_str) != got {
            self.failed += 1;
            let why = if got.is_none() {
                "no report"
            } else {
                "report differs from golden"
            };
            eprintln!("perfbench: FAILED cell {label}/{kernel}: {why}");
        }
    }

    /// Checks every reply of one served sweep.
    pub fn check_replies(&mut self, expected: &Expected, replies: &[CellReply]) {
        for r in replies {
            let text = r.report().map(|c| c.report.as_str());
            self.check(expected, r.label(), r.workload(), text);
        }
    }

    /// Counts `n` cells that were attempted but produced nothing.
    pub fn fail_all(&mut self, n: usize, why: &str) {
        self.attempted += n as u64;
        self.failed += n as u64;
        eprintln!("perfbench: FAILED {n} cells: {why}");
    }
}
