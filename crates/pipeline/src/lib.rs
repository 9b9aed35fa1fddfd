//! # contopt-pipeline — the cycle-level out-of-order machine
//!
//! A Pentium-4-like deeply pipelined, dynamically scheduled superscalar
//! timing model (Table 2 of *Continuous Optimization*, ISCA 2005) with the
//! continuous optimizer integrated into its rename stage. The same
//! [`Machine`] runs the baseline (optimizer disabled — a plain renamer) and
//! every optimizer configuration the paper evaluates, so speedups are
//! apples-to-apples cycle-count ratios over identical instruction streams.
//!
//! A finished machine exposes its counters through read-only accessors
//! ([`Machine::stats`], [`Machine::optimizer`], [`Machine::predictor`],
//! [`Machine::memory`]); `contopt_sim::Report::of` reads them into the one
//! result of a run.
//!
//! # Examples
//!
//! ```
//! use contopt_isa::{Asm, r};
//! use contopt_pipeline::{Machine, MachineConfig};
//!
//! let mut a = Asm::new();
//! a.li(r(1), 100);
//! a.label("loop");
//! a.subq(r(1), 1, r(1));
//! a.bne(r(1), "loop");
//! a.halt();
//! let program = a.finish()?;
//!
//! let mut base = Machine::new(MachineConfig::default_paper(), program.clone());
//! base.run(100_000);
//! let mut opt = Machine::new(MachineConfig::default_with_optimizer(), program);
//! opt.run(100_000);
//! assert_eq!(base.stats().retired, opt.stats().retired);
//! println!("speedup: {:.3}", base.stats().cycles as f64 / opt.stats().cycles as f64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod machine;
mod stats;

pub use config::MachineConfig;
pub use contopt_emu::ArchSnapshot;
pub use machine::{Machine, DEADLOCK_WINDOW};
pub use stats::PipelineStats;
