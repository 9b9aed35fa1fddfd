//! # contopt-workloads — the synthetic benchmark suite
//!
//! Twenty-two benchmarks named after Table 1 of *Continuous Optimization*
//! (ISCA 2005) — ten SPECint2000, six SPECfp2000, and six mediabench
//! programs — plus two §5.2-style kernels (`ptrch`, `hjoin`) authored in
//! the assembler text format. The originals are Alpha binaries we cannot
//! ship or run, so each is replaced by a hand-written kernel in the
//! simulator's ISA that reproduces the *code shape* the paper attributes
//! to it — loop-carried induction chains, short-reuse memory traffic,
//! constant-rich addressing, and data-dependent branches (see `DESIGN.md`
//! §4 for the substitution argument). Dynamic instruction counts are
//! scaled from the paper's 100M–1000M down to a few hundred thousand per
//! benchmark.
//!
//! Every program deposits a checksum at [`CHECKSUM_ADDR`] before halting so
//! correctness is testable end-to-end.
//!
//! # Examples
//!
//! ```
//! use contopt_workloads::{suite, Suite};
//! let all = suite();
//! assert_eq!(all.len(), 24);
//! assert_eq!(all.iter().filter(|w| w.suite == Suite::SpecInt).count(), 10);
//! let mcf = all.iter().find(|w| w.name == "mcf").unwrap();
//! assert!(!mcf.program.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod common;
pub mod kernels;
mod mediabench;
mod specfp;
mod specint;

pub use common::{splitmix64, SplitMix64};
use contopt_isa::{AsmError, Program, DATA_BASE};

/// Finalizes a kernel recipe, panicking with the kernel's name and the
/// assembler's diagnosis if it does not assemble. Every recipe in this
/// crate defines the labels it references, so a failure here is a bug in
/// the recipe itself, not a recoverable condition.
pub(crate) fn must_assemble(res: Result<Program, AsmError>, kernel: &str) -> Program {
    res.unwrap_or_else(|e| panic!("{kernel} assembles: {e}"))
}
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Address of the 8-byte checksum every workload stores before halting.
pub const CHECKSUM_ADDR: u64 = DATA_BASE;

/// Benchmark suite grouping, matching Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC2000 integer.
    SpecInt,
    /// SPEC2000 floating point.
    SpecFp,
    /// mediabench.
    MediaBench,
    /// Text-format kernels beyond Table 1 (paper §5.2 style).
    Kernel,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::SpecInt => write!(f, "SPECint"),
            Suite::SpecFp => write!(f, "SPECfp"),
            Suite::MediaBench => write!(f, "mediabench"),
            Suite::Kernel => write!(f, "kernel"),
        }
    }
}

/// One benchmark: its Table 1 short name, a description, its suite, and the
/// assembled program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name as used in the paper's figures (`bzp`, `mcf`, `untst`, …).
    pub name: &'static str,
    /// What the kernel models.
    pub description: &'static str,
    /// Suite grouping.
    pub suite: Suite,
    /// The assembled program, shared so that cloning a workload (or
    /// handing it to many concurrent simulations) never copies the image.
    pub program: Arc<Program>,
}

macro_rules! workload {
    ($name:expr, $desc:expr, $suite:expr, $builder:path) => {
        Workload {
            name: $name,
            description: $desc,
            suite: $suite,
            program: Arc::new($builder()),
        }
    };
}

/// Builds the full 24-benchmark suite: Table 1 order, then the text-format
/// kernels.
///
/// The programs are assembled once per process and shared: every call
/// (and every [`build`] lookup) clones `Arc` handles to the same images,
/// so constructing many [`crate::Workload`] lists — one per scenario
/// config, one per `Lab` — never re-assembles a kernel.
pub fn suite() -> Vec<Workload> {
    static SUITE: OnceLock<Vec<Workload>> = OnceLock::new();
    SUITE.get_or_init(assemble_suite).clone()
}

/// Assembles all 24 kernels (called once, behind [`suite`]'s cache).
fn assemble_suite() -> Vec<Workload> {
    use Suite::*;
    vec![
        workload!(
            "bzp",
            "bzip2: histogram + run detection",
            SpecInt,
            specint::bzip2
        ),
        workload!(
            "era",
            "crafty: bitboard popcount evaluation",
            SpecInt,
            specint::crafty
        ),
        workload!(
            "eon",
            "eon: fixed-point vector geometry",
            SpecInt,
            specint::eon
        ),
        workload!(
            "gap",
            "gap: bytecode interpreter dispatch",
            SpecInt,
            specint::gap
        ),
        workload!("gcc", "gcc: token state machine", SpecInt, specint::gcc),
        workload!(
            "mcf",
            "mcf: sort_basket quicksort + arc chase",
            SpecInt,
            specint::mcf
        ),
        workload!(
            "prl",
            "perlbmk: string hashing + table probe",
            SpecInt,
            specint::perlbmk
        ),
        workload!("twf", "twolf: annealing swaps", SpecInt, specint::twolf),
        workload!(
            "vor",
            "vortex: record-field traversal",
            SpecInt,
            specint::vortex
        ),
        workload!(
            "vpr",
            "vpr: maze-routing grid relaxation",
            SpecInt,
            specint::vpr
        ),
        workload!(
            "amp",
            "ammp: dependent FP force chains",
            SpecFp,
            specfp::ammp
        ),
        workload!(
            "app",
            "applu: 3-point stencil sweeps",
            SpecFp,
            specfp::applu
        ),
        workload!("art", "art: neural dot products", SpecFp, specfp::art),
        workload!("eqk", "equake: sparse CSR matvec", SpecFp, specfp::equake),
        workload!("msa", "mesa: span rasterization", SpecFp, specfp::mesa),
        workload!(
            "mgd",
            "mgrid: multigrid restriction/prolongation",
            SpecFp,
            specfp::mgrid
        ),
        workload!(
            "g721d",
            "g721 decode: ADPCM reconstruction",
            MediaBench,
            mediabench::g721_decode
        ),
        workload!(
            "g721e",
            "g721 encode: ADPCM quantization",
            MediaBench,
            mediabench::g721_encode
        ),
        workload!(
            "mpg2d",
            "mpeg2 decode: 8x8 IDCT butterflies",
            MediaBench,
            mediabench::mpeg2_decode
        ),
        workload!(
            "mpg2e",
            "mpeg2 encode: SAD motion estimation",
            MediaBench,
            mediabench::mpeg2_encode
        ),
        workload!(
            "untst",
            "gsm untoast: short-term synthesis filter",
            MediaBench,
            mediabench::untoast
        ),
        workload!(
            "tst",
            "gsm toast: LTP cross-correlation",
            MediaBench,
            mediabench::toast
        ),
        workload!(
            "ptrch",
            "pointer chasing: serial dependent-load ring walk",
            Kernel,
            kernels::ptrch
        ),
        workload!(
            "hjoin",
            "hash join: table build + probe with linear probing",
            Kernel,
            kernels::hjoin
        ),
    ]
}

/// Builds one benchmark by short name (an `Arc`-cheap clone out of the
/// process-wide suite cache).
pub fn build(name: &str) -> Option<Workload> {
    suite().into_iter().find(|w| w.name == name)
}

/// The names of all 24 benchmarks, in suite order.
pub fn names() -> Vec<&'static str> {
    suite().into_iter().map(|w| w.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_emu::Emulator;

    const BUDGET: u64 = 5_000_000;

    #[test]
    fn every_workload_halts_with_a_checksum() {
        for w in suite() {
            let mut emu = Emulator::new(w.program.clone());
            let summary = emu
                .run_to_halt(BUDGET)
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name));
            assert!(
                summary.insts > 50_000,
                "{} too small: {} insts",
                w.name,
                summary.insts
            );
            assert!(
                summary.insts < 2_000_000,
                "{} too large: {} insts",
                w.name,
                summary.insts
            );
            let chk = emu.mem().read_u64(CHECKSUM_ADDR);
            assert_ne!(chk, 0, "{} produced a zero checksum", w.name);
        }
    }

    #[test]
    fn checksums_are_deterministic() {
        for name in ["mcf", "untst", "gap"] {
            let run = |w: &Workload| {
                let mut emu = Emulator::new(w.program.clone());
                emu.run_to_halt(BUDGET).unwrap();
                emu.mem().read_u64(CHECKSUM_ADDR)
            };
            let a = run(&build(name).unwrap());
            let b = run(&build(name).unwrap());
            assert_eq!(a, b, "{name} must be deterministic");
        }
    }

    #[test]
    fn suite_composition_matches_table1() {
        let names_in = |s: Suite| -> Vec<&str> {
            suite()
                .into_iter()
                .filter(|w| w.suite == s)
                .map(|w| w.name)
                .collect()
        };
        assert_eq!(names_in(Suite::SpecInt).len(), 10);
        assert_eq!(names_in(Suite::SpecFp).len(), 6);
        assert_eq!(names_in(Suite::MediaBench).len(), 6);
        assert_eq!(names_in(Suite::Kernel), ["ptrch", "hjoin"]);
        assert_eq!(names().len(), 24);
        assert!(build("nonexistent").is_none());
    }

    #[test]
    fn every_suite_kernel_round_trips_through_the_text_assembler() {
        use contopt_isa::asm_text;
        for w in suite() {
            let text = asm_text::emit(&w.program);
            let reparsed = asm_text::parse(&text)
                .unwrap_or_else(|e| panic!("{} re-assembly failed: {e}", w.name));
            assert_eq!(
                reparsed, *w.program,
                "{} does not round-trip through the text assembler",
                w.name
            );
        }
    }

    #[test]
    fn text_kernels_match_their_checked_in_sources() {
        // The `.s` sources are the ground truth for ptrch/hjoin: the suite
        // entries must be exactly what the text assembler produces.
        assert_eq!(
            *build("ptrch").unwrap().program,
            contopt_isa::asm_text::parse(kernels::PTRCH_SRC).unwrap()
        );
        assert_eq!(
            *build("hjoin").unwrap().program,
            contopt_isa::asm_text::parse(kernels::HJOIN_SRC).unwrap()
        );
    }

    #[test]
    fn suite_is_cached_and_shared() {
        let a = suite();
        let b = suite();
        for (wa, wb) in a.iter().zip(&b) {
            assert!(
                Arc::ptr_eq(&wa.program, &wb.program),
                "{} re-assembled",
                wa.name
            );
        }
        let mcf = build("mcf").unwrap();
        let cached = a.iter().find(|w| w.name == "mcf").unwrap();
        assert!(Arc::ptr_eq(&mcf.program, &cached.program));
    }

    #[test]
    fn workloads_exercise_memory_and_branches() {
        for w in suite() {
            let mut emu = Emulator::new(w.program.clone());
            let s = emu.run_to_halt(BUDGET).unwrap();
            assert!(s.cond_branches > 0, "{} has no branches", w.name);
            assert!(s.loads > 0, "{} has no loads", w.name);
            assert!(s.stores > 0, "{} has no stores", w.name);
        }
    }

    #[test]
    fn mcf_actually_sorts() {
        // The quicksort must leave the array ordered: read it back.
        let w = build("mcf").unwrap();
        let mut emu = Emulator::new(w.program.clone());
        emu.run_to_halt(BUDGET).unwrap();
        // The mutable array is the zeroed 512-quad region following the
        // pristine (nonzero) 512-quad region in the data layout.
        let pristine_base = w
            .program
            .data
            .iter()
            .find(|(_, bytes)| bytes.len() == 512 * 8 && bytes.iter().any(|&b| b != 0))
            .map(|(a, _)| *a)
            .expect("pristine array present");
        let arr_base = pristine_base + 512 * 8;
        let vals: Vec<u64> = (0..512)
            .map(|i| emu.mem().read_u64(arr_base + 8 * i))
            .collect();
        assert!(
            vals.windows(2).all(|w| w[0] <= w[1]),
            "mcf array is not sorted"
        );
    }
}
