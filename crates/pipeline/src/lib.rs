//! # contopt-pipeline — the cycle-level out-of-order machine
//!
//! A Pentium-4-like deeply pipelined, dynamically scheduled superscalar
//! timing model (Table 2 of *Continuous Optimization*, ISCA 2005) with the
//! continuous optimizer integrated into its rename stage. The same
//! [`Machine`] runs the baseline (optimizer disabled — a plain renamer) and
//! every optimizer configuration the paper evaluates, so speedups are
//! apples-to-apples cycle-count ratios over identical instruction streams.
//!
//! # Examples
//!
//! ```
//! use contopt_isa::{Asm, r};
//! use contopt_pipeline::{simulate, MachineConfig};
//!
//! let mut a = Asm::new();
//! a.li(r(1), 100);
//! a.label("loop");
//! a.subq(r(1), 1, r(1));
//! a.bne(r(1), "loop");
//! a.halt();
//! let program = a.finish()?;
//!
//! let base = simulate(MachineConfig::default_paper(), program.clone(), 100_000);
//! let opt = simulate(MachineConfig::default_with_optimizer(), program, 100_000);
//! assert_eq!(base.pipeline.retired, opt.pipeline.retired);
//! println!("speedup: {:.3}", opt.speedup_over(&base)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod machine;
mod stats;

pub use config::MachineConfig;
pub use contopt_emu::ArchSnapshot;
pub use machine::{simulate, Machine, DEADLOCK_WINDOW};
pub use stats::{PipelineStats, RunReport, SpeedupError};
