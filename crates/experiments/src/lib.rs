//! # contopt-experiments — regenerating the paper's evaluation
//!
//! One function per table and figure in the evaluation of *Continuous
//! Optimization* (ISCA 2005), each returning a structured, serializable
//! result that also renders as a paper-style text table:
//!
//! | Regenerator | Paper artifact |
//! |-------------|----------------|
//! | [`table1`]  | Table 1 — experimental workload |
//! | [`table2`]  | Table 2 — simulated machine configuration |
//! | [`fig6`]    | Figure 6 — per-benchmark speedup |
//! | [`table3`]  | Table 3 — effects of continuous optimization |
//! | [`fig8`]    | Figure 8 — fetch-bound / exec-bound machine models |
//! | [`fig9`]    | Figure 9 — value feedback alone vs. with optimization |
//! | [`fig10`]   | Figure 10 — intra-bundle dependence depth |
//! | [`fig11`]   | Figure 11 — optimizer pipeline-stage latency |
//! | [`fig12`]   | Figure 12 — value-feedback transmission delay |
//!
//! The `contopt-experiments` binary drives them:
//! `cargo run --release -p contopt-experiments -- --all`.
//!
//! Everything here runs through the [`contopt_sim`] facade: the [`Lab`]
//! builds one `SimSession` per (configuration, workload) pair and caches
//! the unified reports keyed by configuration fingerprint.
//!
//! The machines of Figures 6 and 8–12 and Table 3 are defined once, in
//! the checked-in `scenarios/<name>.json` files ([`contopt_sim::Scenario`]).
//! [`scenario_plan`] lowers a parsed file to a [`Plan`]; [`Lab::execute`]
//! fans the deduplicated plan across scoped worker threads (`--jobs N` /
//! `CONTOPT_JOBS` on the binary); the renderers then read the scenario's
//! results from the cache, after [`check_figure`] has confirmed they can
//! draw the file. [`scenario_goldens`] pairs each cell's report with its
//! file under `goldens/` as a [`Golden`], and [`record_goldens`] /
//! [`check_goldens`] pin any list of them, so result drift fails CI
//! (`--scenario … --record/--check` on the binary).
//!
//! On top of the scenarios sits the **counterfactual ablation engine**
//! (`--ablate` on the binary): [`ablation_plan`] expands each scenario
//! cell into its full / leave-one-out / baseline / add-one-in
//! counterfactuals (deduplicated by configuration fingerprint through the
//! same [`Lab`]), and [`ablation_report`] attributes *cycles* — not just
//! events — per optimizer pass, with interaction residuals and
//! `speedup_over`-based shares ([`ablation_golden`] pins the result
//! through the same [`record_goldens`]/[`check_goldens`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablation;
mod figures;
mod lab;
mod scenario;
mod tables;
mod verify;

pub use ablation::{
    ablation_golden, ablation_golden_path, ablation_plan, ablation_report, AblationError,
    AblationReport, AddOneIn, ConfigAblation, PassAblation, WorkloadAblation,
};
pub use figures::{
    check_figure, fig10, fig11, fig12, fig6, fig8, fig9, Fig6, FigureError, SuiteFigure,
};
pub use lab::{geomean, Lab, Plan, SuiteMeans, DEFAULT_INSTS};
pub use scenario::{
    check_goldens, first_divergence, golden_path, record_goldens, scenario_goldens, scenario_plan,
    unpinned_goldens, CheckOutcome, DriftKind, Golden, GoldenDrift, LineDiff, TolerancePolicy,
};
pub use tables::{table1, table2, table3, Table1, Table1Row, Table2, Table3, Table3Row};
pub use verify::{
    render_json as render_verify_json, render_text as render_verify_text, verify_file,
    verify_files, FileVerdict, VerifyOutcome,
};
