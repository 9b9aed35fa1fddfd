//! Optimizer statistics — the raw counters behind Table 3, split per pass.
//!
//! Counters are accumulated per *pass* ([`PassStats`]): each pass's
//! charge sites record into the block named after it, and the Table 3
//! aggregate is always **derived** as the sum of the blocks
//! ([`PassStats::total`]), never maintained separately — so the per-pass
//! attribution map cannot drift from the aggregates the paper's
//! evaluation reports.

use crate::passes::PassId;

/// Shared guarded percentage: `100 * num / den`, and `0.0` (never
/// `NaN`/`inf`) when the denominator is zero. Every derived percentage in
/// the stats blocks ([`OptStats::pct_executed_early`],
/// [`crate::MbcStats::pct_hits`], …) goes through this one function so
/// zero-denominator handling cannot diverge between them.
pub fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Event counters accumulated by the optimizer.
///
/// The derived percentages ([`OptStats::pct_executed_early`] etc.) are the
/// quantities Table 3 of the paper reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Dynamic instructions processed by the rename/optimize stage.
    pub insts: u64,
    /// Instructions whose outputs were fully determined in the optimizer
    /// (early-executed ALU ops, resolved branches, eliminated moves, and
    /// forwarded loads) — the paper's "exec. early".
    pub executed_early: u64,
    /// Conditional-branch instances resolved in the optimizer.
    pub branches_resolved_early: u64,
    /// Mispredicted conditional branches (as reported by the pipeline).
    pub mispredicted_branches: u64,
    /// Mispredicted conditional branches that the optimizer resolved —
    /// the paper's "recov. mispred. brs.".
    pub mispredicts_recovered_early: u64,
    /// Loads + stores processed.
    pub mem_ops: u64,
    /// Loads + stores whose effective address was fully generated in the
    /// optimizer — the paper's "ld/st addr. gen.".
    pub mem_addr_generated: u64,
    /// Loads processed.
    pub loads: u64,
    /// Loads converted to moves by RLE/SF — the paper's "lds removed".
    pub loads_removed: u64,
    /// MBC forwards rejected by strict value checking (stale entries from
    /// speculative unknown-address stores).
    pub mbc_rejects: u64,
    /// Register moves eliminated through reassociation.
    pub moves_eliminated: u64,
    /// Multiplies strength-reduced to shifts.
    pub strength_reductions: u64,
    /// Register values inferred from branch directions.
    pub branch_inferences: u64,
    /// Values fed back from execution that converted a live table entry.
    pub feedback_integrations: u64,
    /// Instructions that could not be optimized due to the intra-bundle
    /// serial-addition limit.
    pub chain_limited: u64,
    /// Loads denied an MBC query due to the intra-bundle memory-chain limit.
    pub mem_chain_limited: u64,
    /// Table invalidations at discrete-optimization trace boundaries (§3.4).
    pub trace_resets: u64,
}

impl OptStats {
    /// Percentage of the instruction stream executed in the optimizer.
    pub fn pct_executed_early(&self) -> f64 {
        pct(self.executed_early, self.insts)
    }

    /// Percentage of mispredicted branches recovered at the optimizer.
    pub fn pct_mispredicts_recovered(&self) -> f64 {
        pct(self.mispredicts_recovered_early, self.mispredicted_branches)
    }

    /// Percentage of memory operations with addresses generated early.
    pub fn pct_mem_addr_generated(&self) -> f64 {
        pct(self.mem_addr_generated, self.mem_ops)
    }

    /// Percentage of loads removed by RLE/SF.
    pub fn pct_loads_removed(&self) -> f64 {
        pct(self.loads_removed, self.loads)
    }

    /// Accumulates another stats block into this one (used to aggregate over
    /// a benchmark suite).
    pub fn merge(&mut self, o: &OptStats) {
        self.insts += o.insts;
        self.executed_early += o.executed_early;
        self.branches_resolved_early += o.branches_resolved_early;
        self.mispredicted_branches += o.mispredicted_branches;
        self.mispredicts_recovered_early += o.mispredicts_recovered_early;
        self.mem_ops += o.mem_ops;
        self.mem_addr_generated += o.mem_addr_generated;
        self.loads += o.loads;
        self.loads_removed += o.loads_removed;
        self.mbc_rejects += o.mbc_rejects;
        self.moves_eliminated += o.moves_eliminated;
        self.strength_reductions += o.strength_reductions;
        self.branch_inferences += o.branch_inferences;
        self.feedback_integrations += o.feedback_integrations;
        self.chain_limited += o.chain_limited;
        self.mem_chain_limited += o.mem_chain_limited;
        self.trace_resets += o.trace_resets;
    }
}

/// The optimizer counters attributed to the pass that earned them.
///
/// Each pass's charge sites record into the block named after it
/// ([`PassId::name`]); counters that no single pass owns — the stream
/// denominators and the engine-level structural limits — land in
/// [`engine`](Self::engine). The aggregate [`OptStats`] is always
/// *derived* as the elementwise sum of the five blocks
/// ([`total`](Self::total)) and never maintained separately, so per-pass
/// and aggregate numbers cannot drift apart.
///
/// The attribution convention, per counter:
///
/// | Block | Counters |
/// |-------|----------|
/// | `engine` | `insts`, `mispredicted_branches`, `mem_ops`, `loads`, `mem_addr_generated` (address knowledge may come from any pass), `chain_limited`, `trace_resets` |
/// | `cp-ra` | `moves_eliminated`, `strength_reductions`, `branch_inferences` |
/// | `rle-sf` | `loads_removed`, `mbc_rejects`, `mem_chain_limited` |
/// | `value-feedback` | `feedback_integrations` |
/// | `early-exec` | `executed_early`, `branches_resolved_early`, `mispredicts_recovered_early` |
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Counters attributable to no single pass: stream denominators and
    /// engine-level structural limits (§6.2 chain budgets, §3.4 trace
    /// resets, address generation).
    pub engine: OptStats,
    /// Constant propagation / reassociation (§3, §3.1).
    pub cp_ra: OptStats,
    /// Redundant load elimination / store forwarding (§3.2).
    pub rle_sf: OptStats,
    /// Value feedback (§4).
    pub value_feedback: OptStats,
    /// Early execution / early branch resolution (§3.3).
    pub early_exec: OptStats,
}

/// Name of the [`PassStats::engine`] block in name-keyed listings (the
/// four pass blocks use [`PassId::name`]).
pub const ENGINE_BLOCK: &str = "engine";

impl PassStats {
    /// The block owned by a stock pass unit.
    pub fn block(&self, id: PassId) -> &OptStats {
        match id {
            PassId::CpRa => &self.cp_ra,
            PassId::RleSf => &self.rle_sf,
            PassId::ValueFeedback => &self.value_feedback,
            PassId::EarlyExec => &self.early_exec,
        }
    }

    /// Every block with its stable name, engine first then the pass units
    /// in pipeline order. This is the one key ordering every name-keyed
    /// export (`Report::to_json`'s `"passes"` object, table rendering)
    /// derives from.
    pub fn named_blocks(&self) -> [(&'static str, &OptStats); 5] {
        [
            (ENGINE_BLOCK, &self.engine),
            (PassId::CpRa.name(), &self.cp_ra),
            (PassId::RleSf.name(), &self.rle_sf),
            (PassId::ValueFeedback.name(), &self.value_feedback),
            (PassId::EarlyExec.name(), &self.early_exec),
        ]
    }

    /// The aggregate Table 3 counters: the elementwise sum of all five
    /// blocks. This is the *only* way the aggregate exists.
    pub fn total(&self) -> OptStats {
        let mut out = OptStats::default();
        for (_, block) in self.named_blocks() {
            out.merge(block);
        }
        out
    }

    /// Accumulates another attribution map into this one, block by block
    /// (used to aggregate over a benchmark suite).
    pub fn merge(&mut self, o: &PassStats) {
        self.engine.merge(&o.engine);
        self.cp_ra.merge(&o.cp_ra);
        self.rle_sf.merge(&o.rle_sf);
        self.value_feedback.merge(&o.value_feedback);
        self.early_exec.merge(&o.early_exec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        let s = OptStats {
            insts: 200,
            executed_early: 52,
            mispredicted_branches: 40,
            mispredicts_recovered_early: 5,
            mem_ops: 100,
            mem_addr_generated: 65,
            loads: 50,
            loads_removed: 10,
            ..OptStats::default()
        };
        assert!((s.pct_executed_early() - 26.0).abs() < 1e-9);
        assert!((s.pct_mispredicts_recovered() - 12.5).abs() < 1e-9);
        assert!((s.pct_mem_addr_generated() - 65.0).abs() < 1e-9);
        assert!((s.pct_loads_removed() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_denominators_are_zero() {
        let s = OptStats::default();
        assert_eq!(s.pct_executed_early(), 0.0);
        assert_eq!(s.pct_mispredicts_recovered(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = OptStats {
            insts: 10,
            loads: 2,
            ..OptStats::default()
        };
        let b = OptStats {
            insts: 5,
            loads: 3,
            loads_removed: 1,
            ..OptStats::default()
        };
        a.merge(&b);
        assert_eq!(a.insts, 15);
        assert_eq!(a.loads, 5);
        assert_eq!(a.loads_removed, 1);
    }

    #[test]
    fn pct_guards_zero_denominators() {
        assert_eq!(pct(5, 0), 0.0);
        assert!((pct(1, 8) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn total_is_the_elementwise_block_sum() {
        let mut p = PassStats::default();
        p.engine.insts = 100;
        p.engine.loads = 10;
        p.cp_ra.moves_eliminated = 3;
        p.rle_sf.loads_removed = 4;
        p.value_feedback.feedback_integrations = 5;
        p.early_exec.executed_early = 6;
        let t = p.total();
        assert_eq!(t.insts, 100);
        assert_eq!(t.loads, 10);
        assert_eq!(t.moves_eliminated, 3);
        assert_eq!(t.loads_removed, 4);
        assert_eq!(t.feedback_integrations, 5);
        assert_eq!(t.executed_early, 6);
    }

    #[test]
    fn named_blocks_use_pass_names_in_pipeline_order() {
        let p = PassStats::default();
        let names: Vec<&str> = p.named_blocks().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["engine", "cp-ra", "rle-sf", "value-feedback", "early-exec"]
        );
        assert_eq!(p.block(PassId::RleSf), &OptStats::default());
    }

    #[test]
    fn pass_stats_merge_is_blockwise() {
        let mut a = PassStats::default();
        a.cp_ra.moves_eliminated = 1;
        let mut b = PassStats::default();
        b.cp_ra.moves_eliminated = 2;
        b.early_exec.executed_early = 7;
        a.merge(&b);
        assert_eq!(a.cp_ra.moves_eliminated, 3);
        assert_eq!(a.early_exec.executed_early, 7);
        assert_eq!(a.total().executed_early, 7);
    }
}
