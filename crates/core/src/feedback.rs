//! The value-feedback path from execution back to the optimization tables.
//!
//! Results computed by the execution units travel back to the rename stage
//! over a transmission path with a configurable delay (§2.2, §3.3, §6.4).
//! This module models that path as a time-stamped queue; the optimizer
//! drains entries whose arrival cycle has passed and CAM-updates the RAT
//! and MBC.
//!
//! The hardware CAM matches every table entry at once. The simulator
//! models it with a [`BaseIndex`] per table: a count, per physical
//! register, of the entries whose symbol is based on that register, kept
//! up to date wherever a symbol is set or cleared. A result nothing is
//! based on (most of them) costs one lookup, and a scan stops once it has
//! converted as many entries as the count says exist. The conversions, the
//! reference counts and the free list come out exactly as a full scan of
//! the table leaves them.

use crate::preg::{PhysReg, PregFile};
use crate::symval::SymValue;
use std::collections::VecDeque;

/// Per-physical-register count of one table's entries whose symbol is
/// based on that register: the index behind the value-feedback CAM match.
///
/// Sized once from the register file's capacity, so keeping it current
/// never allocates.
#[derive(Debug, Clone)]
pub(crate) struct BaseIndex(Vec<u32>);

impl BaseIndex {
    /// An empty index covering every register of `pregs`.
    pub(crate) fn new(pregs: &PregFile) -> BaseIndex {
        BaseIndex(vec![0; pregs.capacity()])
    }

    /// Records an entry that now holds `sym`.
    #[inline]
    pub(crate) fn add(&mut self, sym: SymValue) {
        if let Some(b) = sym.base() {
            self.0[b.index()] += 1;
        }
    }

    /// Records that an entry no longer holds `sym`.
    #[inline]
    pub(crate) fn remove(&mut self, sym: SymValue) {
        if let Some(b) = sym.base() {
            self.0[b.index()] -= 1;
        }
    }

    /// Entries currently based on `p`.
    #[cfg(test)]
    pub(crate) fn count(&self, p: PhysReg) -> u32 {
        self.0[p.index()]
    }

    /// Value feedback over one table: converts every symbol among `syms`
    /// based on `p` into a known constant, releasing each entry's claim on
    /// `p`. Returns the number converted. Touches no entry when nothing is
    /// based on `p`, and stops at the last one that is.
    pub(crate) fn feed_back<'a>(
        &mut self,
        syms: impl Iterator<Item = &'a mut SymValue>,
        p: PhysReg,
        v: u64,
        pregs: &mut PregFile,
    ) -> u64 {
        let n = std::mem::take(&mut self.0[p.index()]);
        let mut left = n;
        if left > 0 {
            for sym in syms {
                if let Some(k) = sym.feed_back(p, v) {
                    *sym = k;
                    pregs.release(p);
                    left -= 1;
                    if left == 0 {
                        break;
                    }
                }
            }
        }
        debug_assert_eq!(left, 0, "index counted entries the scan did not find");
        u64::from(n)
    }
}

/// A pending feedback message: `(arrives_at, register, value)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Feedback {
    /// Cycle at which the value reaches the optimization tables.
    pub arrives_at: u64,
    /// The physical register that produced the value.
    pub preg: PhysReg,
    /// The produced value.
    pub value: u64,
}

/// FIFO of in-flight feedback messages.
///
/// Completion events are pushed in non-decreasing cycle order (the pipeline
/// advances monotonically and the transmission delay is constant), so a
/// simple deque suffices.
#[derive(Debug, Clone, Default)]
pub struct FeedbackQueue {
    q: VecDeque<Feedback>,
}

impl FeedbackQueue {
    /// Creates an empty queue.
    pub fn new() -> FeedbackQueue {
        FeedbackQueue::default()
    }

    /// Enqueues a value produced at `completed_at` with transmission delay
    /// `delay`.
    pub fn push(&mut self, preg: PhysReg, value: u64, completed_at: u64, delay: u64) {
        let arrives_at = completed_at + delay;
        debug_assert!(
            self.q.back().is_none_or(|b| b.arrives_at <= arrives_at),
            "feedback must be pushed in arrival order"
        );
        self.q.push_back(Feedback {
            arrives_at,
            preg,
            value,
        });
    }

    /// Pops the oldest message if it has arrived by `now`; callers drain
    /// by popping until `None`, interleaving each pop with their table
    /// updates.
    pub fn pop_ready(&mut self, now: u64) -> Option<Feedback> {
        if self.q.front()?.arrives_at <= now {
            self.q.pop_front()
        } else {
            None
        }
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PhysReg {
        PhysReg::from_index(i)
    }

    /// Every message that has arrived by `now`, popped as production
    /// drains the queue.
    fn drain(q: &mut FeedbackQueue, now: u64) -> Vec<Feedback> {
        std::iter::from_fn(|| q.pop_ready(now)).collect()
    }

    #[test]
    fn respects_transmission_delay() {
        let mut q = FeedbackQueue::new();
        q.push(p(1), 11, 10, 5);
        assert_eq!(drain(&mut q, 14).len(), 0);
        let got = drain(&mut q, 15);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].preg, p(1));
        assert_eq!(got[0].value, 11);
    }

    #[test]
    fn drains_in_order() {
        let mut q = FeedbackQueue::new();
        q.push(p(1), 1, 10, 1);
        q.push(p(2), 2, 10, 1);
        q.push(p(3), 3, 12, 1);
        let got: Vec<_> = drain(&mut q, 11).iter().map(|f| f.preg).collect();
        assert_eq!(got, vec![p(1), p(2)]);
        assert_eq!(q.in_flight(), 1);
    }

    #[test]
    fn zero_delay_is_same_cycle() {
        let mut q = FeedbackQueue::new();
        q.push(p(4), 9, 7, 0);
        assert_eq!(drain(&mut q, 7).len(), 1);
    }

    // ---- the index against the full scan ----------------------------------

    use crate::mbc::Mbc;
    use crate::rat::SymRat;
    use contopt_isa::{ArchReg, MemSize, NUM_ARCH_REGS};
    use contopt_sim::workloads::SplitMix64;

    const PREGS: usize = 128;

    /// A random live register other than the zero register.
    fn live_reg(rng: &mut SplitMix64, pregs: &PregFile) -> Option<PhysReg> {
        let r = p(1 + rng.below(PREGS as u64 - 1) as usize);
        pregs.is_live(r).then_some(r)
    }

    /// A random known constant or expression over a live register.
    fn random_sym(rng: &mut SplitMix64, pregs: &PregFile) -> SymValue {
        match live_reg(rng, pregs) {
            Some(base) if rng.below(3) > 0 => SymValue::Expr {
                base,
                scale: rng.below(4) as u8,
                offset: rng.below(64) as i64 - 32,
            },
            _ => SymValue::Known(rng.next_u64()),
        }
    }

    fn random_access(rng: &mut SplitMix64) -> (u64, MemSize) {
        let size =
            [MemSize::Byte, MemSize::Word, MemSize::Long, MemSize::Quad][rng.below(4) as usize];
        (rng.below(512) & !(size.bytes() - 1), size)
    }

    /// Seeded random RAT and MBC operations. After every one, each table's
    /// index equals a brute-force count per register; every value feedback
    /// converts the same entries, and leaves the same reference counts and
    /// free list, as the full scan the index replaced.
    #[test]
    fn index_matches_the_full_scan() {
        let mut conversions = 0;
        for seed in 0..8 {
            let mut rng = SplitMix64::new(seed);
            let mut pregs = PregFile::new(PREGS);
            let mut rat = SymRat::new(&mut pregs, |_| 0, seed % 2 == 0);
            let mut mbc = Mbc::new(16, &pregs);
            for step in 0..600 {
                let a = ArchReg::from_index(rng.below(NUM_ARCH_REGS as u64) as usize);
                match rng.below(16) {
                    0..=3 => {
                        if let Some(dst) = pregs.alloc() {
                            let sym = match rng.below(2) {
                                0 => SymValue::reg(dst),
                                _ => random_sym(&mut rng, &pregs),
                            };
                            rat.write(a, dst, sym, &mut pregs);
                            pregs.release(dst); // producer claim
                        }
                    }
                    4 | 5 => {
                        let sym = random_sym(&mut rng, &pregs);
                        rat.update_sym(a, sym, &mut pregs);
                    }
                    6 => rat.invalidate_syms(&mut pregs),
                    7..=9 => {
                        let (addr, size) = random_access(&mut rng);
                        let sym = random_sym(&mut rng, &pregs);
                        mbc.insert(addr, size, sym, &mut pregs);
                    }
                    10 => mbc.invalidate(random_access(&mut rng).0, &mut pregs),
                    11 => mbc.flush(&mut pregs),
                    _ => {
                        // Mostly a register something is based on.
                        let target = match rat.sym(a).base() {
                            Some(b) if rng.below(4) > 0 => Some(b),
                            _ => live_reg(&mut rng, &pregs),
                        };
                        let Some(target) = target else { continue };
                        let v = rng.next_u64();
                        pregs.add_ref(target); // the in-flight claim
                        let (mut rat_ref, mut mbc_ref, mut pregs_ref) =
                            (rat.clone(), mbc.clone(), pregs.clone());
                        let n = rat.feed_back(target, v, &mut pregs)
                            + mbc.feed_back(target, v, &mut pregs);
                        let n_ref = rat_ref.feed_back_scan(target, v, &mut pregs_ref)
                            + mbc_ref.feed_back_scan(target, v, &mut pregs_ref);
                        assert_eq!(n, n_ref, "seed {seed} step {step}: conversions");
                        assert!(rat.same_entries(&rat_ref), "seed {seed} step {step}");
                        assert!(mbc.same_entries(&mbc_ref), "seed {seed} step {step}");
                        assert_eq!(pregs, pregs_ref, "seed {seed} step {step}: refs");
                        pregs.release(target);
                        conversions += n;
                    }
                }
                for r in (0..PREGS).map(p) {
                    assert_eq!(
                        rat.count_based(r),
                        rat.count_based_scan(r),
                        "seed {seed} step {step}: RAT index of {r}"
                    );
                    assert_eq!(
                        mbc.count_based(r),
                        mbc.count_based_scan(r),
                        "seed {seed} step {step}: MBC index of {r}"
                    );
                }
            }
        }
        assert!(conversions > 100, "the walk must exercise conversions");
    }
}
