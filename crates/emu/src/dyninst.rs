//! The dynamic-instruction record produced by the functional emulator.

use contopt_isa::Inst;

/// One committed dynamic instruction, with its *oracle* values.
///
/// The timing model replays these records cycle-by-cycle; the continuous
/// optimizer uses them for strict value checking (every value the optimizer
/// derives must equal the architectural value recorded here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst {
    /// Position in the committed dynamic stream (0-based).
    pub seq: u64,
    /// The instruction's PC.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// Architectural value written to the destination register, if the
    /// instruction has one. FP results are stored as raw `f64` bits.
    pub result: Option<u64>,
    /// Effective address, for memory operations.
    pub eff_addr: Option<u64>,
    /// Raw value stored to memory (low `size` bytes significant), for stores.
    pub store_value: Option<u64>,
    /// Branch outcome, for control instructions (`true` = taken; unconditional
    /// control flow is always taken).
    pub taken: bool,
    /// The PC of the next committed instruction.
    pub next_pc: u64,
}

impl DynInst {
    /// The destination value interpreted as `f64` (for FP-writing
    /// instructions).
    pub fn result_f64(&self) -> Option<f64> {
        self.result.map(f64::from_bits)
    }

    /// Whether this dynamic instance redirected control flow away from the
    /// fall-through path.
    pub fn redirects(&self) -> bool {
        self.next_pc != self.pc.wrapping_add(4)
    }

    /// Folds this record into a running FNV-1a digest of the committed
    /// stream. Two executions retire the same stream iff folding every
    /// record in order produces the same digest (up to hash collision).
    /// Allocation-free; differential tests call it at retire time.
    pub fn fold_digest(&self, mut h: u64) -> u64 {
        let mut eat = |v: u64| h = fnv1a(h, &v.to_le_bytes());
        // The PC identifies the static instruction (one program per
        // comparison), so hashing the dynamic fields pins the semantics.
        eat(self.seq);
        eat(self.pc);
        eat(self.next_pc);
        eat(self.taken as u64);
        for opt in [self.result, self.eff_addr, self.store_value] {
            match opt {
                Some(v) => {
                    eat(1);
                    eat(v);
                }
                None => eat(0),
            }
        }
        h
    }
}

/// The FNV-1a offset basis — the initial value for a
/// [`DynInst::fold_digest`] chain, and for any other [`fnv1a`] chain.
pub const STREAM_DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running 64-bit FNV-1a hash `h`; a chain starts
/// from [`STREAM_DIGEST_INIT`]. The workspace's one FNV-1a: the retired
/// stream digest, the memory image digest and the wire cell fingerprint
/// all fold through it.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redirects_detects_taken_control() {
        let d = DynInst {
            seq: 0,
            pc: 0x1000,
            inst: Inst::Nop,
            result: None,
            eff_addr: None,
            store_value: None,
            taken: false,
            next_pc: 0x1004,
        };
        assert!(!d.redirects());
        let t = DynInst {
            next_pc: 0x2000,
            ..d
        };
        assert!(t.redirects());
    }

    #[test]
    fn fp_result_bits() {
        let d = DynInst {
            seq: 0,
            pc: 0,
            inst: Inst::Nop,
            result: Some(2.5f64.to_bits()),
            eff_addr: None,
            store_value: None,
            taken: false,
            next_pc: 4,
        };
        assert_eq!(d.result_f64(), Some(2.5));
    }
}
