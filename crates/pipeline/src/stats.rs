//! Pipeline-level statistics.

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
}
