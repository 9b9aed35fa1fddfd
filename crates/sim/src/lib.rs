//! # contopt-sim — the unified simulation facade
//!
//! One composable entry point over the whole *Continuous Optimization*
//! (ISCA 2005) reproduction: build a [`SimSession`] with the fluent
//! [`SimBuilder`], registering the machine model, the
//! [`optimizer`](SimBuilder::optimizer), and a workload; run it; read its
//! [`Report`], the one result of a run, which [`Report::of`] reads from
//! the finished [`Machine`]. Construction is validated — every structural
//! impossibility is a typed [`Error`], never a panic.
//!
//! ```
//! use contopt_sim::{OptimizerConfig, SimSession};
//!
//! // The paper's default optimized machine on the `untst` kernel.
//! let opt = SimSession::builder()
//!     .workload("untst")
//!     .optimizer(OptimizerConfig::default())
//!     .insts(60_000)
//!     .build()?;
//! // The baseline: same machine, no optimizer.
//! let base = SimSession::builder().workload("untst").insts(60_000).build()?;
//!
//! let speedup = opt.run().speedup_over(&base.run())?;
//! assert!(speedup > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The paper's ablation scenarios are pass subsets of the default
//! optimizer, not preset constructors: with `full =
//! OptimizerConfig::default()`, `full.only_passes(&[PassId::CpRa,
//! PassId::EarlyExec])` is CP/RA alone, `full.only_passes(&[PassId::RleSf,
//! PassId::EarlyExec])` is RLE/SF alone,
//! `full.only_passes(&[PassId::ValueFeedback, PassId::EarlyExec])` is
//! Figure 9's "feedback alone", and omitting `optimizer` is the baseline.
//!
//! This crate is the only dependency downstream consumers need: it
//! re-exports the core optimizer types, the pipeline, and the substrate
//! crates ([`isa`], [`emu`], [`workloads`], [`mem`], [`bpred`]) as
//! modules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cell;
pub mod cli;
mod error;
pub mod fuzz;
mod json;
mod report;
mod scenario;
mod session;

pub use cell::{default_jobs, run_parallel, CellKey};
pub use error::Error;
pub use json::{Expected, Fields, JsonError, JsonErrorKind, JsonValue, ToJson};
pub use report::{Report, SpeedupError};
pub use scenario::{
    check_program_names, file_stem, machine_from_json, machine_to_json, AblationSpec,
    ProgramSource, ProgramSpec, Scenario, ScenarioConfig, ScenarioError, VerifyPolicy,
    ALL_WORKLOADS, SCENARIO_VERSION,
};
pub use session::{
    SimBuilder, SimSession, DEFAULT_INSTS, MAX_MBC_ENTRIES, MAX_PREG_COUNT, MAX_WINDOW_SLOTS,
};

// The core optimizer surface (passes, configs, stats, symbolic algebra).
pub use contopt::{
    passes, pct, sym_add, sym_add_imm, sym_scaled_add, sym_shl, sym_sub, ConfigFieldError,
    ConfigScalar, Folded, Mbc, MbcStats, OptStats, Optimizer, OptimizerConfig, PassId, PassStats,
    PhysReg, PregFile, RenameReq, Renamed, RenamedClass, SymValue, ENGINE_BLOCK, MAX_SCALE,
};

// The cycle-level machine.
pub use contopt_pipeline::{Machine, MachineConfig, PipelineStats, DEADLOCK_WINDOW};

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
        let _cfg: OptimizerConfig = OptimizerConfig::default().only_passes(&PassId::ALL);
        let _m: MachineConfig = MachineConfig::default_paper();
        let w = workloads::build("mcf").unwrap();
        assert_eq!(w.name, "mcf");
        let _ = isa::Asm::new();
    }
}
