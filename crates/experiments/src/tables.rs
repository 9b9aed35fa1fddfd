//! Regenerators for the paper's tables (1, 2, and 3).

use crate::figures::{check_figure, labelled, FigureError, OPTIMIZED};
use crate::lab::Lab;
use contopt_sim::emu::Emulator;
use contopt_sim::workloads::{suite, Suite};
use contopt_sim::{JsonValue, MachineConfig, PassStats, Scenario, ToJson};
use std::fmt;

/// Table 1 — the experimental workload and its dynamic instruction counts.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// One row per benchmark.
    pub rows: Vec<Table1Row>,
}

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Suite label.
    pub suite: String,
    /// Benchmark short name.
    pub name: String,
    /// What the kernel models.
    pub description: String,
    /// Committed dynamic instructions.
    pub insts: u64,
}

impl ToJson for Table1Row {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("suite", self.suite.as_str().into()),
            ("name", self.name.as_str().into()),
            ("description", self.description.as_str().into()),
            ("insts", self.insts.into()),
        ])
    }
}

impl ToJson for Table1 {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([("rows", self.rows.to_json())])
    }
}

/// Regenerates Table 1 by running every workload functionally.
#[expect(
    clippy::expect_used,
    reason = "every suite workload halts within its budget"
)]
pub fn table1(lab: &Lab) -> Table1 {
    let rows = suite()
        .iter()
        .map(|w| {
            let mut emu = Emulator::new(w.program.clone());
            let s = emu.run_to_halt(lab.insts().max(10_000_000)).expect("halts");
            Table1Row {
                suite: w.suite.to_string(),
                name: w.name.to_string(),
                description: w.description.to_string(),
                insts: s.insts,
            }
        })
        .collect();
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1. Experimental Workload")?;
        writeln!(f, "{:-<78}", "")?;
        writeln!(
            f,
            "{:<12} {:<8} {:>12}  Kernel",
            "Type", "App.", "Total Insts."
        )?;
        let mut last = String::new();
        for r in &self.rows {
            let suite = if r.suite == last {
                String::new()
            } else {
                r.suite.clone()
            };
            last = r.suite.clone();
            writeln!(
                f,
                "{:<12} {:<8} {:>12}  {}",
                suite, r.name, r.insts, r.description
            )?;
        }
        Ok(())
    }
}

/// Table 2 — the simulated machine configuration.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rendered `(parameter, value)` rows.
    pub rows: Vec<(String, String)>,
}

impl ToJson for Table2 {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([(
            "rows",
            JsonValue::arr(self.rows.iter().map(|(k, v)| {
                JsonValue::obj([
                    ("parameter", k.as_str().into()),
                    ("value", v.as_str().into()),
                ])
            })),
        )])
    }
}

/// Regenerates Table 2 from the default configurations.
pub fn table2() -> Table2 {
    let m = MachineConfig::default_with_optimizer();
    let h = m.hierarchy;
    let rows = vec![
        (
            "Fetch/Decode/Rename".into(),
            format!("{} insts/cycle", m.fetch_width),
        ),
        ("Retire".into(), format!("{} insts/cycle", m.retire_width)),
        (
            "BrPred".into(),
            format!(
                "{}-bit gshare, {}-entry BTB",
                m.predictor.history_bits, m.predictor.btb_entries
            ),
        ),
        (
            "Pipeline".into(),
            format!(
                "{} cycles (min) for BR res (if not executed early)",
                MachineConfig::default_paper().min_branch_penalty()
            ),
        ),
        (
            "Scheduler".into(),
            format!(
                "four {}-entry schedulers (int, complex int, fp, mem)",
                m.scheduler_entries
            ),
        ),
        (
            "Inst Window".into(),
            format!("max. {} in-flight insts", m.rob_entries),
        ),
        (
            "ExeUnits".into(),
            format!(
                "{} Simple IALUs, {} Complex IALU, {} FPALUs, {} Agen",
                m.simple_int_fus, m.complex_int_fus, m.fp_fus, m.agen_fus
            ),
        ),
        (
            "L1 I Cache".into(),
            format!("{}, {} cycle", h.l1i, h.l1i_latency),
        ),
        (
            "L1 D Cache".into(),
            format!("{}, {} ports, {} cycles", h.l1d, h.l1d_ports, h.l1d_latency),
        ),
        (
            "L2 Unified Cache".into(),
            format!("{}, {} cycles", h.l2, h.l2_latency),
        ),
        (
            "Memory".into(),
            format!("{} cycle latency", h.memory_latency),
        ),
        (
            "Optimizer".into(),
            format!(
                "{} stages, Memory Bypass Cache of {} entries, 4 rd/4wr ports",
                m.optimizer.extra_stages, m.optimizer.mbc_entries
            ),
        ),
    ];
    Table2 { rows }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 2. Simulated Machine Configuration")?;
        writeln!(f, "{:-<70}", "")?;
        for (k, v) in &self.rows {
            writeln!(f, "{k:<20} {v}")?;
        }
        Ok(())
    }
}

/// Table 3 — effects of continuous optimization, per suite.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// One row per suite plus the all-benchmark average.
    pub rows: Vec<Table3Row>,
}

/// One Table 3 row (percentages plus the per-pass attribution the
/// aggregates are derived from).
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Suite label (or "avg").
    pub suite: String,
    /// % of the instruction stream executed in the optimizer.
    pub exec_early: f64,
    /// % of mispredicted branches recovered at the optimizer.
    pub recovered_mispredicts: f64,
    /// % of loads+stores with addresses generated in the optimizer.
    pub addr_generated: f64,
    /// % of loads removed by RLE/SF.
    pub loads_removed: f64,
    /// Counters attributed per pass, summed over the suite.
    pub passes: PassStats,
}

impl ToJson for Table3Row {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("suite", self.suite.as_str().into()),
            ("exec_early", self.exec_early.into()),
            ("recovered_mispredicts", self.recovered_mispredicts.into()),
            ("addr_generated", self.addr_generated.into()),
            ("loads_removed", self.loads_removed.into()),
            ("passes", self.passes.to_json()),
        ])
    }
}

impl ToJson for Table3 {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([("rows", self.rows.to_json())])
    }
}

/// Renders Table 3 from `scenarios/table3.json`'s `optimized` runs. Each
/// row carries the per-pass attribution blocks summed over its suite, and
/// its percentages come from their aggregate, [`PassStats::total`].
pub fn table3(lab: &mut Lab, sc: &Scenario) -> Result<Table3, FigureError> {
    check_figure("table3", sc)?;
    let opt = labelled(sc, OPTIMIZED)?.machine;
    let runs: Vec<_> = suite()
        .into_iter()
        .map(|w| {
            let r = lab.run(opt, &w);
            (w, r)
        })
        .collect();
    let row = |suite: String, passes: PassStats| {
        let agg = passes.total();
        Table3Row {
            suite,
            exec_early: agg.pct_executed_early(),
            recovered_mispredicts: agg.pct_mispredicts_recovered(),
            addr_generated: agg.pct_mem_addr_generated(),
            loads_removed: agg.pct_loads_removed(),
            passes,
        }
    };
    let mut rows = Vec::new();
    let mut all = PassStats::default();
    for suite in [Suite::SpecInt, Suite::SpecFp, Suite::MediaBench] {
        let mut passes = PassStats::default();
        for (_, r) in runs.iter().filter(|(w, _)| w.suite == suite) {
            passes.merge(&r.passes);
        }
        all.merge(&passes);
        rows.push(row(suite.to_string(), passes));
    }
    rows.push(row("avg".into(), all));
    Ok(Table3 { rows })
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 3. Effects of continuous optimization")?;
        writeln!(f, "{:-<76}", "")?;
        writeln!(
            f,
            "{:<12} {:>11} {:>20} {:>16} {:>12}",
            "Benchmark", "exec. early", "recov. mispred. brs.", "ld/st addr. gen.", "lds removed"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>10.1}% {:>19.1}% {:>15.1}% {:>11.1}%",
                r.suite, r.exec_early, r.recovered_mispredicts, r.addr_generated, r.loads_removed
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "Per-pass attribution (counters summed per suite; aggregates above are their sum)"
        )?;
        writeln!(
            f,
            "{:<12} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
            "Benchmark",
            "cp-ra.elim",
            "cp-ra.infer",
            "rle-sf.lds",
            "rle-sf.rej",
            "vf.integr",
            "ee.early",
            "ee.brs"
        )?;
        for r in &self.rows {
            let p = &r.passes;
            writeln!(
                f,
                "{:<12} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
                r.suite,
                p.cp_ra.moves_eliminated + p.cp_ra.strength_reductions,
                p.cp_ra.branch_inferences,
                p.rle_sf.loads_removed,
                p.rle_sf.mbc_rejects,
                p.value_feedback.feedback_integrations,
                p.early_exec.executed_early,
                p.early_exec.branches_resolved_early
            )?;
        }
        Ok(())
    }
}
