//! Shared code-generation idioms for the synthetic benchmarks.

use contopt_isa::{Asm, Reg};

/// The splitmix64 increment (the golden-ratio "gamma").
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 round: the output a [`SplitMix64`] whose state is
/// `seed` produces next. The workspace's one splitmix64; the client's
/// retry backoff and the server's injected-delay jitter draw from it.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Minimal deterministic PRNG (splitmix64). It fills the kernels' data
/// sections and drives seeded randomized tests; only determinism and a
/// reasonable distribution matter.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`. The kernels' data
    /// sections, and so every golden, depend on this stream.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed.wrapping_add(GAMMA))
    }

    /// A generator starting from the raw state `state`, as the reference
    /// splitmix64 does: its first output is [`splitmix64`]`(state)`.
    pub fn from_state(state: u64) -> SplitMix64 {
        SplitMix64(state)
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
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
    fn splitmix64_streams_are_pinned() {
        // The kernels' data sections, and so every golden, depend on
        // these streams.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
        assert_eq!(SplitMix64::new(42).next_u64(), 0x28ef_e333_b266_f103);
        let mut rng = SplitMix64::from_state(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(SplitMix64::from_state(42).next_u64(), 0xbdd7_3226_2feb_6e95);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(42), 0xbdd7_3226_2feb_6e95);
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
