//! The run report: the one result of a simulation run.

use crate::json::{JsonValue, ToJson};
use contopt::{MbcStats, OptStats, PassStats};
use contopt_bpred::PredictorStats;
use contopt_isa::analysis::{AnalysisReport, Diagnostic};
use contopt_mem::HierarchyStats;
use contopt_pipeline::{Machine, PipelineStats};
use std::fmt;

/// Everything one simulation run measured, in one place: the cycle-level
/// pipeline counters, the optimizer's Table 3 counters, the Memory Bypass
/// Cache counters, the branch predictor, and the cache hierarchy.
///
/// This is the one result of a run. It gathers the per-crate stats
/// blocks ([`PipelineStats`], [`OptStats`], [`MbcStats`], …) the way the
/// paper's evaluation reads them together; each remains accessible as a
/// field for detailed analysis. [`Report::of`] reads them from a finished
/// [`Machine`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Core pipeline counters (cycles, retired, stalls, redirects).
    pub pipeline: PipelineStats,
    /// Aggregate optimizer counters (Table 3 inputs). Always equals the
    /// sum of the [`passes`](Self::passes) blocks — the aggregate is
    /// derived, never separately maintained.
    pub optimizer: OptStats,
    /// The same optimizer counters attributed to the pass that
    /// earned them ([`contopt::PassId::name`]-keyed in JSON), plus the
    /// `engine` block for shared denominators and structural limits.
    pub passes: PassStats,
    /// Memory Bypass Cache counters.
    pub mbc: MbcStats,
    /// Branch predictor counters.
    pub predictor: PredictorStats,
    /// Cache hierarchy counters.
    pub memory: HierarchyStats,
    /// The dynamic-instruction budget the session ran under.
    pub insts_budget: u64,
}

impl Report {
    /// The report of a finished machine that ran under an
    /// `insts_budget`-instruction budget: the one place where a machine
    /// becomes a report.
    pub fn of(machine: &Machine, insts_budget: u64) -> Report {
        let opt = machine.optimizer();
        Report {
            pipeline: *machine.stats(),
            optimizer: opt.stats(),
            passes: opt.pass_stats(),
            mbc: opt.mbc_stats(),
            predictor: machine.predictor().stats(),
            memory: machine.memory().stats(),
            insts_budget,
        }
    }

    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.pipeline.ipc()
    }

    /// Speedup of this run over a baseline run of the same program: the
    /// baseline's cycles over this run's.
    ///
    /// Returns a typed [`SpeedupError`] — never panics and never yields
    /// `inf`/`NaN` — when the two runs retired different instruction
    /// streams or either simulated zero cycles.
    pub fn speedup_over(&self, baseline: &Report) -> Result<f64, SpeedupError> {
        let (ours, base) = (&self.pipeline, &baseline.pipeline);
        if ours.retired != base.retired {
            return Err(SpeedupError::MismatchedStreams {
                ours: ours.retired,
                baseline: base.retired,
            });
        }
        if ours.cycles == 0 || base.cycles == 0 {
            return Err(SpeedupError::EmptyRun {
                ours: ours.cycles,
                baseline: base.cycles,
            });
        }
        Ok(base.cycles as f64 / ours.cycles as f64)
    }

    /// A multi-line human-readable summary of the run.
    ///
    /// # Examples
    ///
    /// ```
    /// use contopt_sim::Report;
    /// let text = Report::default().summary();
    /// assert!(text.contains("cycles"));
    /// assert!(text.contains("MBC"));
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

    /// The canonical golden-file serialization: pretty-printed JSON plus a
    /// trailing newline. Byte-identical across runs for identical results
    /// (the simulator is deterministic and the serializer emits fields in
    /// one fixed order), so the golden regression harness compares files
    /// with plain byte equality.
    pub fn canonical_json(&self) -> String {
        let mut out = self.to_json().pretty();
        out.push('\n');
        out
    }

    /// Serializes the full report as JSON.
    ///
    /// The `"optimizer"` object carries the aggregate counters (via the
    /// same [`ToJson`] impl the per-pass blocks use, so the two cannot
    /// drift in shape or float formatting) plus the Table 3 derived
    /// percentages; `"passes"` is the [`contopt::PassId::name`]-keyed
    /// attribution map in the stable [`PassStats::named_blocks`] order.
    pub fn to_json(&self) -> JsonValue {
        let p = &self.pipeline;
        let o = &self.optimizer;
        let JsonValue::Object(mut optimizer) = o.to_json() else {
            unreachable!("OptStats serializes as an object");
        };
        optimizer.extend([
            ("pct_executed_early".into(), o.pct_executed_early().into()),
            (
                "pct_mispredicts_recovered".into(),
                o.pct_mispredicts_recovered().into(),
            ),
            (
                "pct_mem_addr_generated".into(),
                o.pct_mem_addr_generated().into(),
            ),
            ("pct_loads_removed".into(), o.pct_loads_removed().into()),
        ]);
        JsonValue::obj([
            (
                "pipeline",
                JsonValue::obj([
                    ("cycles", p.cycles.into()),
                    ("retired", p.retired.into()),
                    ("ipc", p.ipc().into()),
                    ("dispatched_to_ooo", p.dispatched_to_ooo.into()),
                    ("bypassed_ooo", p.bypassed_ooo.into()),
                    ("dcache_loads", p.dcache_loads.into()),
                    ("loads_bypassed", p.loads_bypassed.into()),
                    ("rob_stall_cycles", p.rob_stall_cycles.into()),
                    ("sched_stall_cycles", p.sched_stall_cycles.into()),
                    ("mispredict_stall_cycles", p.mispredict_stall_cycles.into()),
                    ("early_redirects", p.early_redirects.into()),
                    ("late_redirects", p.late_redirects.into()),
                ]),
            ),
            ("optimizer", JsonValue::Object(optimizer)),
            ("passes", self.passes.to_json()),
            (
                "mbc",
                JsonValue::obj([
                    ("lookups", self.mbc.lookups.into()),
                    ("hits", self.mbc.hits.into()),
                    ("inserts", self.mbc.inserts.into()),
                    ("flushes", self.mbc.flushes.into()),
                    ("pct_hits", self.mbc.pct_hits().into()),
                ]),
            ),
            (
                "predictor",
                JsonValue::obj([
                    ("cond_predictions", self.predictor.cond_predictions.into()),
                    (
                        "cond_mispredictions",
                        self.predictor.cond_mispredictions.into(),
                    ),
                    ("cond_accuracy", self.predictor.cond_accuracy().into()),
                ]),
            ),
            (
                "memory",
                JsonValue::obj([
                    ("l1i_miss_rate", self.memory.l1i.miss_rate().into()),
                    ("l1d_miss_rate", self.memory.l1d.miss_rate().into()),
                    ("l2_miss_rate", self.memory.l2.miss_rate().into()),
                ]),
            ),
            ("insts_budget", self.insts_budget.into()),
        ])
    }
}

/// The raw counters, in `OptStats` declaration order. Both the aggregate
/// `"optimizer"` object and every `"passes"` block serialize through this
/// one impl, so their shapes and float formatting cannot drift.
impl ToJson for OptStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("insts", self.insts.into()),
            ("executed_early", self.executed_early.into()),
            (
                "branches_resolved_early",
                self.branches_resolved_early.into(),
            ),
            ("mispredicted_branches", self.mispredicted_branches.into()),
            (
                "mispredicts_recovered_early",
                self.mispredicts_recovered_early.into(),
            ),
            ("mem_ops", self.mem_ops.into()),
            ("mem_addr_generated", self.mem_addr_generated.into()),
            ("loads", self.loads.into()),
            ("loads_removed", self.loads_removed.into()),
            ("mbc_rejects", self.mbc_rejects.into()),
            ("moves_eliminated", self.moves_eliminated.into()),
            ("strength_reductions", self.strength_reductions.into()),
            ("branch_inferences", self.branch_inferences.into()),
            ("feedback_integrations", self.feedback_integrations.into()),
            ("chain_limited", self.chain_limited.into()),
            ("mem_chain_limited", self.mem_chain_limited.into()),
            ("trace_resets", self.trace_resets.into()),
        ])
    }
}

/// The per-pass attribution map: one counters object per block, keyed by
/// pass name (plus `"engine"`), in the stable
/// [`PassStats::named_blocks`] order.
impl ToJson for PassStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(
            self.named_blocks()
                .into_iter()
                .map(|(name, block)| (name, block.to_json())),
        )
    }
}

/// The static analyzer's canonical JSON: keys in alphabetical order,
/// findings in report order, PCs as hex strings, and a finding's
/// `line`/`col` only when it came from text — byte-stable across runs,
/// so the diagnostics corpus under `tests/analysis/` is golden-pinned.
impl ToJson for AnalysisReport {
    fn to_json(&self) -> JsonValue {
        fn finding<K>(d: &Diagnostic<K>, code: &str) -> JsonValue {
            let mut fields = Vec::new();
            if let Some(s) = d.span {
                fields.push(("col", u64::from(s.col).into()));
            }
            fields.push(("detail", d.detail.as_str().into()));
            fields.push(("index", d.index.into()));
            fields.push(("kind", code.into()));
            if let Some(s) = d.span {
                fields.push(("line", u64::from(s.line).into()));
            }
            fields.push(("pc", format!("{:#x}", d.pc).into()));
            JsonValue::obj(fields)
        }
        let errors = self.errors.iter().map(|e| finding(e, e.kind.code()));
        let warnings = self.warnings.iter().map(|w| finding(w, w.kind.code()));
        JsonValue::obj([
            ("blocks", self.blocks.into()),
            ("errors", JsonValue::arr(errors)),
            ("insts", self.insts.into()),
            ("loops", self.loops.into()),
            ("proved_loops", self.proved_loops.into()),
            ("reachable_blocks", self.reachable_blocks.into()),
            ("verdict", self.verdict().into()),
            ("warnings", JsonValue::arr(warnings)),
        ])
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
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

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_isa::{analysis, asm_text};

    fn verify_src(src: &str) -> AnalysisReport {
        analysis::verify(&asm_text::parse(src).expect("parse"))
    }

    #[test]
    fn analysis_json_is_canonical_and_ordered() {
        let rep = verify_src("addq r5, 1, r6\nhalt\n");
        let json = rep.to_json().to_string();
        assert!(json.starts_with("{\"blocks\":"), "{json}");
        assert!(json.contains("\"kind\":\"use_before_init\""), "{json}");
        assert!(json.contains("\"verdict\":\"errors\""), "{json}");
        // Byte-stable across runs.
        assert_eq!(
            json,
            verify_src("addq r5, 1, r6\nhalt\n").to_json().to_string()
        );
    }

    #[test]
    fn analysis_json_carries_spans() {
        let (p, spans) =
            asm_text::parse_with_spans("li r1, 1\naddq r9, 1, r2\nhalt\n").expect("parse");
        let json = analysis::verify_with_spans(&p, &spans)
            .to_json()
            .to_string();
        assert!(json.contains("\"line\":2"), "{json}");
    }

    #[test]
    fn summary_mentions_key_metrics() {
        let mut r = Report::default();
        r.pipeline.cycles = 10;
        r.pipeline.retired = 20;
        let text = r.summary();
        assert!(text.contains("IPC 2.000"));
        assert!(text.contains("loads removed"));
        assert!(text.contains("L1D"));
        assert!(text.contains("MBC"));
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let mut a = Report::default();
        let mut b = Report::default();
        a.pipeline.cycles = 80;
        a.pipeline.retired = 100;
        b.pipeline.cycles = 100;
        b.pipeline.retired = 100;
        assert!((a.speedup_over(&b).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn speedup_rejects_mismatched_and_empty_runs() {
        let mut a = Report::default();
        let mut b = Report::default();
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
        assert!(Report::default().speedup_over(&Report::default()).is_err());
    }

    #[test]
    fn speedup_never_panics_or_returns_non_finite() {
        let mut a = Report::default();
        a.pipeline.cycles = 80;
        a.pipeline.retired = 100;
        // Mismatched streams: a typed error, not a panic.
        let mut other = Report::default();
        other.pipeline.cycles = 90;
        other.pipeline.retired = 90;
        assert!(matches!(
            a.speedup_over(&other),
            Err(SpeedupError::MismatchedStreams {
                ours: 100,
                baseline: 90
            })
        ));
        // Zero-cycle runs on either side: a typed error, not inf/NaN.
        let empty = Report::default();
        assert!(matches!(
            a.speedup_over(&Report {
                pipeline: PipelineStats {
                    retired: 100,
                    ..PipelineStats::default()
                },
                ..Report::default()
            }),
            Err(SpeedupError::EmptyRun { .. })
        ));
        assert!(empty.speedup_over(&empty).is_err());
        // Every Ok value is finite by construction.
        let mut b = Report::default();
        b.pipeline.cycles = 100;
        b.pipeline.retired = 100;
        assert!(a.speedup_over(&b).unwrap().is_finite());
    }

    #[test]
    fn json_has_all_sections() {
        let j = Report::default().to_json().to_string();
        for key in [
            "pipeline",
            "optimizer",
            "passes",
            "mbc",
            "predictor",
            "memory",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn json_passes_map_is_name_keyed_in_stable_order() {
        let mut r = Report::default();
        r.passes.rle_sf.loads_removed = 4;
        r.passes.early_exec.executed_early = 9;
        let j = r.to_json();
        let passes = j.get("passes").expect("passes object");
        let keys: Vec<&str> = passes
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["engine", "cp-ra", "rle-sf", "value-feedback", "early-exec"]
        );
        assert_eq!(
            passes
                .get("rle-sf")
                .and_then(|b| b.get("loads_removed"))
                .and_then(JsonValue::as_u64),
            Some(4)
        );
        // Every block shares the aggregate's counter shape (same serializer).
        let counter_keys = |v: &JsonValue| -> Vec<String> {
            v.as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        let agg = r.optimizer.to_json();
        for (_, block) in passes.as_object().unwrap() {
            assert_eq!(counter_keys(block), counter_keys(&agg));
        }
    }
}
