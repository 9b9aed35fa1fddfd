//! The untraced run: the end-to-end metrics of one workload.
//!
//! The run repeats passes while another one fits in `--seconds`. A pass
//! first times one set-up in a fresh process. It then sets the workload up
//! afresh (scenario, cells, `Lab`) and makes one cold sweep in which every
//! cell is simulated. Every report of every sweep is checked against its
//! golden.

use crate::cells::{CellSet, Expected, Tally};
use crate::{median, peak_rss_mb, Args, Metric, Outcome};
use contopt_experiments::{Lab, Plan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups timed per run at least; `setup_s` is their median.
const SETUPS: usize = 9;

/// A set-up workload, ready for its first timed call.
pub struct Rig {
    set: CellSet,
    plan: Plan,
    lab: Lab,
}

/// Sets a workload up: loads the scenario, picks and orders the cells, and
/// builds the `Lab` (its suite).
pub fn setup(args: &Args) -> Result<Rig, String> {
    let set = args.workload.cells(args.seed, args.insts)?;
    Ok(Rig {
        plan: set.plan(),
        lab: Lab::new(set.insts),
        set,
    })
}

impl Rig {
    /// Runs every cell cold through `Lab::execute`; returns the sweep's
    /// wall time.
    fn cold(&mut self, jobs: usize, exp: &Expected, tally: &mut Tally) -> f64 {
        let t = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| self.lab.execute(&self.plan, jobs)));
        let secs = t.elapsed().as_secs_f64();
        if ran.is_err() {
            tally.fail_all(self.set.cells.len(), "Lab::execute panicked");
            return secs;
        }
        for c in &self.set.cells {
            let report = self.lab.cached(&c.machine, c.kernel.name);
            let text = report.map(|r| r.canonical_json());
            tally.check(exp, &c.label, c.kernel.name, text.as_deref());
        }
        secs
    }
}

/// Times one set-up from process start to the first timed call: this
/// program re-run with `--setup-only`, from spawn to exit. A fresh process
/// pays every first-use cost, such as assembling the kernel suite.
fn timed_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--setup-only", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()]);
    if let Some(n) = args.insts {
        cmd.args(["--insts", &n.to_string()]);
    }
    let t = Instant::now();
    let status = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("set-up process: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("set-up process failed: {status}"));
    }
    Ok(secs)
}

/// The untraced run of `args.workload`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let jobs = args.workload.jobs();
    let exp = Expected::load(
        &args.workload.cells(args.seed, args.insts)?,
        args.insts.is_some(),
    )?;
    let mut tally = Tally::default();
    let (mut setups, mut sweeps) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut fastest_pass = Duration::MAX;
    while sweeps.is_empty() || start.elapsed().saturating_add(fastest_pass) <= args.seconds {
        // Set-ups spread over the run see the same mix of host phases as
        // the passes.
        setups.push(timed_setup(args)?);
        let t = Instant::now();
        let mut rig = setup(args)?;
        sweeps.push(rig.cold(jobs, &exp, &mut tally));
        fastest_pass = fastest_pass.min(t.elapsed());
    }
    while setups.len() < SETUPS {
        setups.push(timed_setup(args)?);
    }
    eprintln!(
        "perfbench: {} passes and {} set-ups in {:.1?}; sweeps {sweeps:.4?}",
        sweeps.len(),
        setups.len(),
        start.elapsed(),
    );
    // Other tenants of the host slow it by 30-70% in phases that last from
    // seconds to minutes. The mean pass varies smoothly with the share of a
    // run spent in slow phases, so it spreads less over runs than the
    // fastest or the median pass.
    let sweep_s = sweeps.iter().sum::<f64>() / sweeps.len() as f64;
    Ok(Outcome {
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("sweep_s", sweep_s, "s"),
            Metric::new("sim_mips", exp.retired as f64 / sweep_s / 1e6, "MIPS"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        tally,
    })
}
