//! # contopt-emu — the functional emulator
//!
//! Interprets [`contopt_isa`] programs over a sparse memory image, producing
//! the committed dynamic instruction stream with *oracle* values
//! ([`DynInst`]). The cycle-level timing model replays this stream, and the
//! continuous optimizer checks every value it derives against it (the
//! paper's "strict expression and value checking").
//!
//! This crate plays the role SimpleScalar 3.0's functional core plays in the
//! paper's infrastructure (§4.2).
//!
//! # Examples
//!
//! ```
//! use contopt_isa::{Asm, r};
//! use contopt_emu::{Emulator, Step};
//!
//! let mut a = Asm::new();
//! a.li(r(1), 2);
//! a.addq(r(1), r(1), r(2));
//! a.halt();
//! let mut emu = Emulator::new(a.finish()?);
//! while let Step::Inst(d) = emu.step()? {
//!     println!("{:>4}  {}", d.seq, d.inst);
//! }
//! assert_eq!(emu.reg(r(2)), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dyninst;
mod machine;
mod mem_image;
mod snapshot;

pub use dyninst::{fnv1a, DynInst, STREAM_DIGEST_INIT};
pub use machine::{EmuError, Emulator, RunSummary, Step};
pub use mem_image::MemImage;
pub use snapshot::ArchSnapshot;
