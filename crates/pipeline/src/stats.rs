//! Pipeline-level statistics and the run report.

use contopt::{MbcStats, OptStats, PassStats};
use contopt_bpred::PredictorStats;
use contopt_mem::HierarchyStats;
use std::fmt;

/// Cycle-level statistics of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Instructions dispatched into the out-of-order schedulers (excludes
    /// instructions fully handled in the optimizer).
    pub dispatched_to_ooo: u64,
    /// Instructions that bypassed the schedulers entirely (optimizer
    /// `Done` class plus nops).
    pub bypassed_ooo: u64,
    /// Loads that accessed the data cache.
    pub dcache_loads: u64,
    /// Loads satisfied without a cache access (removed by RLE/SF).
    pub loads_bypassed: u64,
    /// Cycles rename stalled for a full reorder buffer.
    pub rob_stall_cycles: u64,
    /// Cycles rename stalled for a full scheduler.
    pub sched_stall_cycles: u64,
    /// Cycles fetch was silent waiting on a mispredicted branch.
    pub mispredict_stall_cycles: u64,
    /// Mispredicted control instructions redirected after executing.
    pub late_redirects: u64,
    /// Mispredicted control instructions redirected from the optimizer.
    pub early_redirects: u64,
}

impl PipelineStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }
}

/// Why a speedup ratio cannot be formed from a pair of reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SpeedupError {
    /// The two runs retired different instruction streams; their cycle
    /// counts are not comparable.
    MismatchedStreams {
        /// Instructions retired by the run being measured.
        ours: u64,
        /// Instructions retired by the baseline run.
        baseline: u64,
    },
    /// At least one run simulated zero cycles, so the ratio is undefined
    /// (it would be `inf` or `NaN`).
    EmptyRun {
        /// Cycles of the run being measured.
        ours: u64,
        /// Cycles of the baseline run.
        baseline: u64,
    },
}

impl fmt::Display for SpeedupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpeedupError::MismatchedStreams { ours, baseline } => write!(
                f,
                "speedup requires identical instruction streams \
                 (retired {ours} vs baseline {baseline})"
            ),
            SpeedupError::EmptyRun { ours, baseline } => write!(
                f,
                "speedup undefined over an empty run \
                 (cycles {ours} vs baseline {baseline})"
            ),
        }
    }
}

impl std::error::Error for SpeedupError {}

/// The guarded cycle ratio shared by [`RunReport::speedup_over`] and the
/// sim facade's `Report::speedup_over`: one implementation, so the two
/// can never disagree on edge-case handling.
pub(crate) fn speedup(ours: &PipelineStats, baseline: &PipelineStats) -> Result<f64, SpeedupError> {
    if ours.retired != baseline.retired {
        return Err(SpeedupError::MismatchedStreams {
            ours: ours.retired,
            baseline: baseline.retired,
        });
    }
    if ours.cycles == 0 || baseline.cycles == 0 {
        return Err(SpeedupError::EmptyRun {
            ours: ours.cycles,
            baseline: baseline.cycles,
        });
    }
    Ok(baseline.cycles as f64 / ours.cycles as f64)
}

/// Everything measured in one run: pipeline, optimizer, predictor, memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Core pipeline counters.
    pub pipeline: PipelineStats,
    /// Aggregate optimizer counters (Table 3 inputs): always the sum of
    /// the [`passes`](Self::passes) blocks.
    pub optimizer: OptStats,
    /// The same optimizer counters attributed to the pass that earned
    /// them (plus the engine block for shared denominators).
    pub passes: PassStats,
    /// Memory Bypass Cache counters (lookups, hits, inserts, flushes).
    pub mbc: MbcStats,
    /// Branch predictor counters.
    pub predictor: PredictorStats,
    /// Cache hierarchy counters.
    pub memory: HierarchyStats,
}

impl RunReport {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.pipeline.ipc()
    }

    /// A multi-line human-readable summary of the run.
    ///
    /// # Examples
    ///
    /// ```
    /// use contopt_pipeline::RunReport;
    /// let text = RunReport::default().summary();
    /// assert!(text.contains("cycles"));
    /// ```
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let p = &self.pipeline;
        let o = &self.optimizer;
        let _ = writeln!(
            out,
            "cycles {:>12}   retired {:>12}   IPC {:.3}",
            p.cycles,
            p.retired,
            p.ipc()
        );
        let _ = writeln!(
            out,
            "dispatched to OoO {:>10}   bypassed {:>10} ({:.1}%)",
            p.dispatched_to_ooo,
            p.bypassed_ooo,
            if p.retired > 0 {
                100.0 * p.bypassed_ooo as f64 / p.retired as f64
            } else {
                0.0
            }
        );
        let _ = writeln!(
            out,
            "optimizer: {:.1}% early, {:.1}% mispredicts recovered, {:.1}% addrs generated, {:.1}% loads removed",
            o.pct_executed_early(),
            o.pct_mispredicts_recovered(),
            o.pct_mem_addr_generated(),
            o.pct_loads_removed()
        );
        let _ = writeln!(
            out,
            "MBC: {} lookups, {} hits, {} inserts, {} flushes",
            self.mbc.lookups, self.mbc.hits, self.mbc.inserts, self.mbc.flushes
        );
        let _ = writeln!(
            out,
            "branches: {:.2}% direction accuracy; {} early / {} late redirects",
            100.0 * self.predictor.cond_accuracy(),
            p.early_redirects,
            p.late_redirects
        );
        let _ = writeln!(
            out,
            "caches: L1I {:.2}% miss, L1D {:.2}% miss, L2 {:.2}% miss",
            100.0 * self.memory.l1i.miss_rate(),
            100.0 * self.memory.l1d.miss_rate(),
            100.0 * self.memory.l2.miss_rate()
        );
        out
    }

    /// Speedup of this run over a baseline run of the same program.
    ///
    /// Returns a typed [`SpeedupError`] — never panics and never yields
    /// `inf`/`NaN` — when the two runs retired different streams or either
    /// simulated zero cycles.
    pub fn speedup_over(&self, baseline: &RunReport) -> Result<f64, SpeedupError> {
        speedup(&self.pipeline, &baseline.pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_math() {
        let s = PipelineStats {
            cycles: 100,
            retired: 250,
            ..PipelineStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(PipelineStats::default().ipc(), 0.0);
    }

    #[test]
    fn summary_mentions_key_metrics() {
        let mut r = RunReport::default();
        r.pipeline.cycles = 10;
        r.pipeline.retired = 20;
        let text = r.summary();
        assert!(text.contains("IPC 2.000"));
        assert!(text.contains("loads removed"));
        assert!(text.contains("L1D"));
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let mut a = RunReport::default();
        let mut b = RunReport::default();
        a.pipeline.cycles = 80;
        a.pipeline.retired = 100;
        b.pipeline.cycles = 100;
        b.pipeline.retired = 100;
        assert!((a.speedup_over(&b).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn speedup_rejects_mismatched_and_empty_runs() {
        let mut a = RunReport::default();
        let mut b = RunReport::default();
        a.pipeline.cycles = 80;
        a.pipeline.retired = 100;
        b.pipeline.cycles = 100;
        b.pipeline.retired = 99;
        assert_eq!(
            a.speedup_over(&b),
            Err(SpeedupError::MismatchedStreams {
                ours: 100,
                baseline: 99
            })
        );
        b.pipeline.retired = 100;
        b.pipeline.cycles = 0;
        assert_eq!(
            a.speedup_over(&b),
            Err(SpeedupError::EmptyRun {
                ours: 80,
                baseline: 0
            })
        );
        // Both empty (two default reports) is still an error, not NaN.
        assert!(RunReport::default()
            .speedup_over(&RunReport::default())
            .is_err());
    }
}
