//! The symbolic register alias table (RAT).
//!
//! The ordinary RAT maps architectural to physical registers; continuous
//! optimization augments each entry with a [`SymValue`] describing the
//! register's contents symbolically (§3.1). Entries hold reference-counted
//! claims on both the mapping register and the symbolic base register.

use crate::feedback::BaseIndex;
use crate::preg::{PhysReg, PregFile};
use crate::symval::SymValue;
use contopt_isa::{ArchReg, NUM_ARCH_REGS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RatEntry {
    map: PhysReg,
    sym: SymValue,
}

/// The symbolic RAT: one entry per architectural register (both files).
///
/// The hardwired-zero registers permanently map to [`PhysReg::ZERO`] with a
/// known value of zero and are never written.
#[derive(Debug, Clone)]
pub struct SymRat {
    entries: Vec<RatEntry>,
    /// Entries per symbolic base register, for value feedback.
    based: BaseIndex,
}

impl SymRat {
    /// Creates the initial RAT. Every architectural register is given a
    /// fresh physical register whose architectural value is `initial(reg)`;
    /// when `track_known` is set (optimizing configurations) the entry's
    /// symbol records that value as known — the reset state of a register
    /// file is architecturally defined, so this mirrors hardware.
    ///
    /// # Panics
    ///
    /// Panics if the physical register file cannot supply one register per
    /// architectural register.
    #[expect(
        clippy::expect_used,
        reason = "the free list is sized to cover every architectural register"
    )]
    pub fn new(
        pregs: &mut PregFile,
        initial: impl Fn(ArchReg) -> u64,
        track_known: bool,
    ) -> SymRat {
        let mut entries = Vec::with_capacity(NUM_ARCH_REGS);
        let mut based = BaseIndex::new(pregs);
        for i in 0..NUM_ARCH_REGS {
            let a = ArchReg::from_index(i);
            let entry = if a.is_zero() {
                // Permanent claim on the zero register for each zero entry.
                pregs.add_ref(PhysReg::ZERO);
                RatEntry {
                    map: PhysReg::ZERO,
                    sym: if track_known {
                        SymValue::Known(0)
                    } else {
                        SymValue::reg(PhysReg::ZERO)
                    },
                }
            } else {
                let p = pregs.alloc().expect("physical registers for initial RAT");
                RatEntry {
                    map: p,
                    sym: if track_known {
                        SymValue::Known(initial(a))
                    } else {
                        SymValue::reg(p)
                    },
                }
            };
            // The symbolic base (plain self-reference in untracked mode)
            // carries its own claim, matching what `write` releases later.
            if let Some(b) = entry.sym.base() {
                pregs.add_ref(b);
            }
            based.add(entry.sym);
            entries.push(entry);
        }
        SymRat { entries, based }
    }

    /// The current mapping of `a`.
    #[inline]
    pub fn map(&self, a: ArchReg) -> PhysReg {
        self.entries[a.index()].map
    }

    /// The current symbolic value of `a`.
    #[inline]
    pub fn sym(&self, a: ArchReg) -> SymValue {
        self.entries[a.index()].sym
    }

    /// Renames `a` to `map` with symbol `sym`, adjusting reference counts
    /// (acquire new mapping + new base, release old mapping + old base).
    ///
    /// Writes to hardwired-zero registers are ignored.
    pub fn write(&mut self, a: ArchReg, map: PhysReg, sym: SymValue, pregs: &mut PregFile) {
        if a.is_zero() {
            return;
        }
        pregs.add_ref(map);
        if let Some(b) = sym.base() {
            pregs.add_ref(b);
        }
        let e = &mut self.entries[a.index()];
        pregs.release(e.map);
        if let Some(b) = e.sym.base() {
            pregs.release(b);
        }
        self.based.remove(e.sym);
        self.based.add(sym);
        *e = RatEntry { map, sym };
    }

    /// Replaces only the symbolic value of `a` (mapping unchanged) —
    /// used by branch-direction inference and value feedback.
    pub fn update_sym(&mut self, a: ArchReg, sym: SymValue, pregs: &mut PregFile) {
        if a.is_zero() {
            return;
        }
        if let Some(b) = sym.base() {
            pregs.add_ref(b);
        }
        let e = &mut self.entries[a.index()];
        if let Some(b) = e.sym.base() {
            pregs.release(b);
        }
        self.based.remove(e.sym);
        self.based.add(sym);
        e.sym = sym;
    }

    /// Invalidates all symbolic information: every entry's symbol becomes a
    /// plain reference to its current mapping (discrete optimization's
    /// trace-boundary reset, §3.4). Reference counts are adjusted.
    pub fn invalidate_syms(&mut self, pregs: &mut PregFile) {
        for (i, e) in self.entries.iter_mut().enumerate() {
            if ArchReg::from_index(i).is_zero() {
                continue; // hardwired zero is not table state
            }
            let plain = SymValue::reg(e.map);
            if e.sym == plain {
                continue;
            }
            pregs.add_ref(e.map);
            if let Some(b) = e.sym.base() {
                pregs.release(b);
            }
            self.based.remove(e.sym);
            self.based.add(plain);
            e.sym = plain;
        }
    }

    /// CAM-style value feedback: converts every entry whose symbolic base is
    /// `p` into a known constant. Returns the number converted.
    pub fn feed_back(&mut self, p: PhysReg, v: u64, pregs: &mut PregFile) -> u64 {
        let syms = self.entries.iter_mut().map(|e| &mut e.sym);
        self.based.feed_back(syms, p, v, pregs)
    }
}

/// The unindexed paths [`SymRat::feed_back`] replaced, kept as the
/// reference the index is tested against.
#[cfg(test)]
impl SymRat {
    /// Value feedback as a full scan of every entry.
    pub(crate) fn feed_back_scan(&mut self, p: PhysReg, v: u64, pregs: &mut PregFile) -> u64 {
        let mut converted = 0;
        for e in &mut self.entries {
            if let Some(k) = e.sym.feed_back(p, v) {
                e.sym = k;
                pregs.release(p);
                converted += 1;
            }
        }
        converted
    }

    /// Entries based on `p`, counted by brute force.
    pub(crate) fn count_based_scan(&self, p: PhysReg) -> u32 {
        self.entries
            .iter()
            .filter(|e| e.sym.base() == Some(p))
            .count() as u32
    }

    /// The index's count for `p`.
    pub(crate) fn count_based(&self, p: PhysReg) -> u32 {
        self.based.count(p)
    }

    /// Whether both tables hold the same entries (the index aside).
    pub(crate) fn same_entries(&self, other: &SymRat) -> bool {
        self.entries == other.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_isa::{r, Reg};

    fn setup() -> (SymRat, PregFile) {
        let mut pregs = PregFile::new(256);
        let rat = SymRat::new(&mut pregs, |_| 0, true);
        (rat, pregs)
    }

    #[test]
    fn initial_state_known_zero() {
        let (rat, pregs) = setup();
        let a = ArchReg::from(r(5));
        assert_eq!(rat.sym(a), SymValue::Known(0));
        assert!(pregs.is_live(rat.map(a)));
        assert_eq!(rat.map(ArchReg::from(Reg::R31)), PhysReg::ZERO);
    }

    #[test]
    fn untracked_mode_gives_plain_syms() {
        let mut pregs = PregFile::new(256);
        let rat = SymRat::new(&mut pregs, |_| 7, false);
        let a = ArchReg::from(r(1));
        assert_eq!(rat.sym(a), SymValue::reg(rat.map(a)));
    }

    #[test]
    fn write_swaps_references() {
        let (mut rat, mut pregs) = setup();
        let a = ArchReg::from(r(3));
        let old = rat.map(a);
        pregs.add_ref(old); // keep it observable after the swap
        let p = pregs.alloc().unwrap();
        rat.write(a, p, SymValue::reg(p), &mut pregs);
        assert_eq!(rat.map(a), p);
        assert_eq!(pregs.ref_count(old), 1, "only our probe ref remains");
        assert_eq!(pregs.ref_count(p), 3, "producer + mapping + sym base");
    }

    #[test]
    fn zero_register_writes_ignored() {
        let (mut rat, mut pregs) = setup();
        let z = ArchReg::from(Reg::R31);
        let p = pregs.alloc().unwrap();
        rat.write(z, p, SymValue::reg(p), &mut pregs);
        assert_eq!(rat.map(z), PhysReg::ZERO);
        assert_eq!(pregs.ref_count(p), 1, "no refs taken");
    }

    #[test]
    fn symbolic_base_kept_alive_past_overwrite() {
        let (mut rat, mut pregs) = setup();
        let a = ArchReg::from(r(1));
        let b = ArchReg::from(r(2));
        let p = pregs.alloc().unwrap();
        rat.write(a, p, SymValue::reg(p), &mut pregs);
        pregs.release(p); // producer completes
                          // b's symbol references p (reassociation).
        let q = pregs.alloc().unwrap();
        rat.write(
            b,
            q,
            SymValue::Expr {
                base: p,
                scale: 0,
                offset: 8,
            },
            &mut pregs,
        );
        // Overwrite a: p loses its mapping ref but survives as b's base.
        let n = pregs.alloc().unwrap();
        rat.write(a, n, SymValue::reg(n), &mut pregs);
        assert!(pregs.is_live(p), "kept alive by b's symbolic base");
        // Overwrite b too: p finally dies.
        let m = pregs.alloc().unwrap();
        rat.write(b, m, SymValue::reg(m), &mut pregs);
        assert!(!pregs.is_live(p));
    }

    #[test]
    fn invalidate_syms_demotes_everything() {
        let (mut rat, mut pregs) = setup();
        let a = ArchReg::from(r(1));
        let p = pregs.alloc().unwrap();
        rat.write(a, p, SymValue::Known(77), &mut pregs);
        let b = ArchReg::from(r(2));
        let q = pregs.alloc().unwrap();
        rat.write(
            b,
            q,
            SymValue::Expr {
                base: p,
                scale: 1,
                offset: 3,
            },
            &mut pregs,
        );
        rat.invalidate_syms(&mut pregs);
        assert_eq!(rat.sym(a), SymValue::reg(p));
        assert_eq!(rat.sym(b), SymValue::reg(q));
        // p lost its symbolic-base claim from b, kept mapping + producer.
        assert_eq!(pregs.ref_count(p), 3);
        // Hardwired zero keeps its known-zero symbol.
        assert_eq!(
            rat.sym(ArchReg::from(Reg::R31)),
            SymValue::Known(0),
            "zero registers are not table state"
        );
    }

    #[test]
    fn feedback_converts_all_referencing_entries() {
        let (mut rat, mut pregs) = setup();
        let p = pregs.alloc().unwrap();
        let a = ArchReg::from(r(1));
        let b = ArchReg::from(r(2));
        rat.write(a, p, SymValue::reg(p), &mut pregs);
        let q = pregs.alloc().unwrap();
        rat.write(
            b,
            q,
            SymValue::Expr {
                base: p,
                scale: 1,
                offset: 4,
            },
            &mut pregs,
        );
        let n = rat.feed_back(p, 10, &mut pregs);
        assert_eq!(n, 2);
        assert_eq!(rat.sym(a), SymValue::Known(10));
        assert_eq!(rat.sym(b), SymValue::Known(24));
    }

    #[test]
    fn update_sym_keeps_mapping() {
        let (mut rat, mut pregs) = setup();
        let a = ArchReg::from(r(4));
        let p = pregs.alloc().unwrap();
        rat.write(a, p, SymValue::reg(p), &mut pregs);
        rat.update_sym(a, SymValue::Known(0), &mut pregs);
        assert_eq!(rat.map(a), p);
        assert_eq!(rat.sym(a), SymValue::Known(0));
        assert_eq!(pregs.ref_count(p), 2, "producer + mapping; base ref gone");
    }
}
