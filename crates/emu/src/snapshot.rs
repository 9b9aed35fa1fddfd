//! The architectural-state summary differential tests compare.

use crate::Emulator;
use contopt_isa::{f, r};

/// End-of-run architectural state, reduced to a comparable value.
///
/// Two executions of the same program are architecturally equivalent iff
/// their snapshots are equal: same register files (FP compared as raw
/// bits, so NaN payloads and signed zeros count), same memory content
/// ([`crate::MemImage::content_digest`], which ignores page-mapping history),
/// same number of committed instructions, and the same committed stream
/// ([`crate::DynInst::fold_digest`] chain).
///
/// This is the oracle the differential fuzzer asserts on: the optimized
/// pipeline may *time* a program differently, but may never change what
/// it computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSnapshot {
    /// Integer register file (`r31` is always zero).
    pub regs: [u64; 32],
    /// FP register file as raw `f64` bit patterns.
    pub fregs: [u64; 32],
    /// Order-independent digest of memory content.
    pub mem_digest: u64,
    /// Committed dynamic instructions.
    pub retired: u64,
    /// In-order digest of the committed stream.
    pub stream_digest: u64,
}

impl ArchSnapshot {
    /// Captures the emulator's current architectural state.
    ///
    /// `retired` and `stream_digest` come from the caller because they
    /// are properties of the *committed stream*, not of the final state
    /// (a pipeline accumulates them at retire time; a pure emulator run
    /// folds them as it steps).
    pub fn capture(emu: &Emulator, retired: u64, stream_digest: u64) -> ArchSnapshot {
        let mut regs = [0u64; 32];
        let mut fregs = [0u64; 32];
        for i in 0..32u8 {
            regs[i as usize] = emu.reg(r(i));
            fregs[i as usize] = emu.freg(f(i)).to_bits();
        }
        ArchSnapshot {
            regs,
            fregs,
            mem_digest: emu.mem().content_digest(),
            retired,
            stream_digest,
        }
    }

    /// Describes the first divergence from `other`, or `None` if the
    /// snapshots are architecturally equal. The label pair names the two
    /// sides in the message (e.g. `("emulator", "optimized")`).
    pub fn diff(&self, other: &ArchSnapshot, labels: (&str, &str)) -> Option<String> {
        let (a, b) = labels;
        if self.retired != other.retired {
            return Some(format!(
                "retired count diverges: {a}={} {b}={}",
                self.retired, other.retired
            ));
        }
        if self.stream_digest != other.stream_digest {
            return Some(format!(
                "committed-stream digest diverges: {a}={:#x} {b}={:#x}",
                self.stream_digest, other.stream_digest
            ));
        }
        for i in 0..32 {
            if self.regs[i] != other.regs[i] {
                return Some(format!(
                    "r{i} diverges: {a}={:#x} {b}={:#x}",
                    self.regs[i], other.regs[i]
                ));
            }
        }
        for i in 0..32 {
            if self.fregs[i] != other.fregs[i] {
                return Some(format!(
                    "f{i} diverges (bits): {a}={:#x} {b}={:#x}",
                    self.fregs[i], other.fregs[i]
                ));
            }
        }
        if self.mem_digest != other.mem_digest {
            return Some(format!(
                "memory content diverges: {a}={:#x} {b}={:#x}",
                self.mem_digest, other.mem_digest
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_isa::Asm;

    fn run_snapshot(n: i64) -> ArchSnapshot {
        let mut a = Asm::new();
        a.li(r(1), n);
        a.li(r(2), 0);
        a.label("loop");
        a.addq(r(2), r(1), r(2));
        a.subq(r(1), 1, r(1));
        a.bne(r(1), "loop");
        a.halt();
        let mut emu = Emulator::new(a.finish().unwrap());
        let mut digest = crate::STREAM_DIGEST_INIT;
        let mut retired = 0;
        while let crate::Step::Inst(d) = emu.step().unwrap() {
            digest = d.fold_digest(digest);
            retired += 1;
        }
        ArchSnapshot::capture(&emu, retired, digest)
    }

    #[test]
    fn identical_runs_snapshot_equal() {
        let a = run_snapshot(10);
        let b = run_snapshot(10);
        assert_eq!(a, b);
        assert_eq!(a.diff(&b, ("a", "b")), None);
    }

    #[test]
    fn different_programs_diverge_with_a_readable_diff() {
        let a = run_snapshot(10);
        let b = run_snapshot(11);
        assert_ne!(a, b);
        let msg = a.diff(&b, ("ten", "eleven")).unwrap();
        assert!(msg.contains("ten="), "{msg}");
    }
}
