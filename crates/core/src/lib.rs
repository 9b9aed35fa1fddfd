//! # contopt — continuous optimization
//!
//! A faithful implementation of the table-based hardware dynamic optimizer
//! from *Continuous Optimization* (Fahs, Rafacz, Patel & Lumetta, ISCA
//! 2005 / UILU-ENG-04-2207). The optimizer lives in the rename stage of an
//! out-of-order processor and applies dataflow optimizations to **every**
//! fetched instruction — no profiling, no trace cache:
//!
//! * **Constant propagation / reassociation (CP/RA)** — each architectural
//!   register's RAT entry carries a symbolic value
//!   `(base_preg << scale) ± offset` ([`SymValue`]); adds, subtracts,
//!   shifts, and scaled adds fold into it ([`sym_add`], [`sym_shl`], …).
//! * **Redundant load elimination / store forwarding (RLE/SF)** — a
//!   128-entry [`Mbc`] keyed by aligned address + offset + size forwards
//!   recently stored or loaded values, converting loads into moves.
//! * **Value feedback** — execution results return to the tables after a
//!   transmission delay ([`FeedbackQueue`]) and CAM-convert symbolic
//!   entries into known constants.
//! * **Early execution** — simple instructions with fully known inputs
//!   execute on the rename-stage ALUs ([`Optimizer::rename_bundle`]
//!   returns them as [`RenamedClass::Done`]), including early branch
//!   resolution, which shortens the misprediction penalty.
//!
//! Physical registers are managed by a reference-counting file
//! ([`PregFile`]) because optimization extends register lifetimes past the
//! classic deallocation point (§3.1).
//!
//! One flat [`OptimizerConfig`] switches the four mechanisms, the stock
//! passes named by [`PassId`], on and off and carries their parameters;
//! [`OptimizerConfig::only_passes`] and
//! [`OptimizerConfig::without_passes`] build the ablation subsets (see the
//! [`passes`] module).
//!
//! # Examples
//!
//! Drive a whole simulation through the `contopt_sim` builder facade,
//! here with the paper's default optimizer:
//!
//! ```
//! use contopt_sim::{OptimizerConfig, SimSession};
//! use contopt_sim::isa::{Asm, r};
//!
//! let mut a = Asm::new();
//! a.li(r(1), 40);
//! a.addq(r(1), 2, r(2));
//! a.halt();
//!
//! let session = SimSession::builder()
//!     .program(a.finish()?)
//!     .optimizer(OptimizerConfig::default())
//!     .build()?;
//! let report = session.run();
//! // Both instructions arrive in one 4-wide rename packet: the `li`
//! // executes on the rename-stage ALUs, while the dependent add is
//! // serial-addition-limited (§3.1) and goes to the OoO core.
//! assert_eq!(report.optimizer.executed_early, 1);
//! assert_eq!(report.optimizer.chain_limited, 1);
//! assert_eq!(report.pipeline.dispatched_to_ooo, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Or use the rename/optimize unit directly, one bundle at a time:
//!
//! ```
//! use contopt::{Optimizer, OptimizerConfig, RenameReq, RenamedClass};
//! use contopt_emu::{Emulator, Step};
//! use contopt_isa::{Asm, r};
//!
//! let mut a = Asm::new();
//! a.li(r(1), 40);
//! a.addq(r(1), 2, r(2));
//! a.halt();
//! let mut emu = Emulator::new(a.finish()?);
//! let mut opt = Optimizer::new(OptimizerConfig::default(), 512, |_| 0);
//!
//! let mut renamed = Vec::new();
//! let mut cycle = 0;
//! while let Step::Inst(d) = emu.step()? {
//!     // One instruction per bundle here; the pipeline batches up to four.
//!     renamed.extend(opt.rename_bundle(cycle, &[RenameReq { d, mispredicted: false }]));
//!     cycle += 1;
//! }
//! assert_eq!(renamed[0].class, RenamedClass::Done); // li executes early
//! assert_eq!(renamed[1].early_value, Some(42));     // 40 + 2 propagated
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod feedback;
mod mbc;
mod optimizer;
pub mod passes;
mod preg;
mod rat;
mod stats;
mod symval;

pub use config::{ConfigFieldError, ConfigScalar, OptimizerConfig};
pub use feedback::{Feedback, FeedbackQueue};
pub use mbc::{Mbc, MbcStats};
pub use optimizer::{Optimizer, RenameReq, Renamed, RenamedClass};
pub use passes::PassId;
pub use preg::{PhysReg, PregFile, SrcList, MAX_SRCS};
pub use rat::SymRat;
pub use stats::{pct, OptStats, PassStats, ENGINE_BLOCK};
pub use symval::{
    sym_add, sym_add_imm, sym_scaled_add, sym_shl, sym_sub, Folded, SymValue, MAX_SCALE,
};
