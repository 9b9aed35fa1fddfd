//! # contopt-sim — the unified simulation facade
//!
//! One composable entry point over the whole *Continuous Optimization*
//! (ISCA 2005) reproduction: build a [`SimSession`] with the fluent
//! [`SimBuilder`], registering the machine model, the optimization
//! [`passes`](SimBuilder::passes), and a workload; run it; read one
//! unified [`Report`]. Construction is validated — every structural
//! impossibility is a typed [`Error`], never a panic.
//!
//! ```
//! use contopt_sim::{Pass, SimSession};
//!
//! // The paper's default optimized machine on the `untst` kernel.
//! let opt = SimSession::builder()
//!     .workload("untst")
//!     .passes([Pass::cp_ra(), Pass::rle_sf(), Pass::value_feedback(), Pass::early_exec()])
//!     .insts(60_000)
//!     .build()?;
//! // The baseline: same machine, no passes registered.
//! let base = SimSession::builder().workload("untst").insts(60_000).build()?;
//!
//! let speedup = opt.run().speedup_over(&base.run())?;
//! assert!(speedup > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The paper's ablation scenarios are pass lists, not preset
//! constructors: `[Pass::cp_ra(), Pass::early_exec()]` is CP/RA alone,
//! `[Pass::rle_sf(), Pass::early_exec()]` is RLE/SF alone,
//! `[Pass::value_feedback(), Pass::early_exec()]` is Figure 9's
//! "feedback alone", and omitting `passes` entirely is the baseline.
//! Custom [`OptPass`] implementations plug in through
//! [`SimBuilder::pass_set`].
//!
//! This crate is the only dependency downstream consumers need: it
//! re-exports the core optimizer types, the pipeline, and the substrate
//! crates ([`isa`], [`emu`], [`workloads`], [`mem`], [`bpred`]) as
//! modules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ablation;
mod cell;
mod error;
pub mod fuzz;
mod json;
mod report;
mod scenario;
mod session;

pub use ablation::{AblationReport, AddOneIn, ConfigAblation, PassAblation, WorkloadAblation};
pub use cell::{run_parallel, CellKey};
pub use error::Error;
pub use json::{JsonError, JsonErrorKind, JsonValue, ToJson};
pub use report::Report;
pub use scenario::{
    machine_from_json, machine_to_json, AblationSpec, ProgramSource, ProgramSpec, Scenario,
    ScenarioConfig, ScenarioError, VerifyPolicy, ALL_WORKLOADS, SCENARIO_VERSION,
};
pub use session::{
    SimBuilder, SimSession, DEFAULT_INSTS, MAX_MBC_ENTRIES, MAX_PREG_COUNT, MAX_WINDOW_SLOTS,
};

// The core optimizer surface (passes, configs, stats, symbolic algebra).
pub use contopt::{
    passes, pct, sym_add, sym_add_imm, sym_scaled_add, sym_shl, sym_sub, ConfigFieldError,
    ConfigScalar, CpRa, EarlyExec, Folded, Mbc, MbcStats, OptPass, OptStats, Optimizer,
    OptimizerConfig, Pass, PassId, PassSet, PassStats, PhysReg, PregFile, RenameReq, Renamed,
    RenamedClass, RleSf, SymValue, ValueFeedback, ENGINE_BLOCK, MAX_SCALE,
};

// The cycle-level machine.
pub use contopt_pipeline::{
    simulate, Machine, MachineConfig, PipelineStats, RunReport, SpeedupError, DEADLOCK_WINDOW,
};

/// The simulated instruction set and assembler.
pub use contopt_isa as isa;

/// The functional (oracle) emulator.
pub use contopt_emu as emu;

/// The Table 1 workload suite.
pub use contopt_workloads as workloads;

/// Cache and memory-hierarchy timing models.
pub use contopt_mem as mem;

/// The front-end branch predictor.
pub use contopt_bpred as bpred;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_cover_the_surface() {
        // Compile-time check that the facade names resolve.
        let _cfg: OptimizerConfig = PassSet::new().to_config();
        let _m: MachineConfig = MachineConfig::default_paper();
        let w = workloads::build("mcf").unwrap();
        assert_eq!(w.name, "mcf");
        let _ = isa::Asm::new();
    }
}
