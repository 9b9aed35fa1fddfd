//! Shared code-generation idioms for the synthetic benchmarks.

use contopt_isa::{Asm, Reg};

/// Minimal deterministic PRNG (splitmix64). It fills the kernels' data
/// sections and drives seeded randomized tests; only determinism and a
/// reasonable distribution matter.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, limit)` (rejection-free; the tiny modulo bias
    /// is irrelevant for synthetic data).
    pub fn below(&mut self, limit: u64) -> u64 {
        self.next_u64() % limit.max(1)
    }

    /// Uniform double in `[lo, hi)`.
    pub(crate) fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// Emits `s = xorshift64(s)` using `t` as scratch — the standard 13/7/17
/// shift triple. Gives workloads deterministic pseudo-random control and
/// data behaviour without any library support.
pub(crate) fn emit_xorshift(a: &mut Asm, s: Reg, t: Reg) {
    a.sll(s, 13, t);
    a.xor(s, t, s);
    a.srl(s, 7, t);
    a.xor(s, t, s);
    a.sll(s, 17, t);
    a.xor(s, t, s);
}

/// Deterministic pseudo-random quadwords for data-section initialization.
pub(crate) fn random_quads(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Deterministic pseudo-random bytes.
pub(crate) fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

/// Deterministic pseudo-random doubles in `(lo, hi)`.
pub(crate) fn random_f64s(seed: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.f64_in(lo, hi)).collect()
}

/// Deterministic pseudo-random quads bounded below `limit`.
pub(crate) fn random_quads_below(seed: u64, n: usize, limit: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.below(limit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_emu::Emulator;
    use contopt_isa::r;

    #[test]
    fn xorshift_matches_reference() {
        let mut a = Asm::new();
        a.li(r(1), 0x12345u64 as i64);
        emit_xorshift(&mut a, r(1), r(2));
        a.halt();
        let mut emu = Emulator::new(a.finish().unwrap());
        emu.run_to_halt(100).unwrap();
        let mut s: u64 = 0x12345;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        assert_eq!(emu.reg(r(1)), s);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_quads(7, 4), random_quads(7, 4));
        assert_ne!(random_quads(7, 4), random_quads(8, 4));
        assert_eq!(random_bytes(1, 8), random_bytes(1, 8));
        let f = random_f64s(3, 16, -1.0, 1.0);
        assert!(f.iter().all(|v| (-1.0..1.0).contains(v)));
        let b = random_quads_below(5, 100, 50);
        assert!(b.iter().all(|&v| v < 50));
    }
}
