//! The Memory Bypass Cache (MBC) used by redundant load elimination and
//! store forwarding (§3.2 of the paper).
//!
//! A small direct-mapped cache keyed by the 8-byte-aligned address, the
//! offset within the aligned word, and the access size — all three must
//! match for a hit. The line data is *precisely the RAT's symbolic value*
//! for the memory word: the physical register (or known constant) that
//! produced or last loaded it.
//!
//! Entries hold reference-counted claims on their base physical registers,
//! which implements the paper's requirement that forwarding only happens
//! while "the physical destination of the first load still contains its
//! value".

use crate::feedback::BaseIndex;
use crate::preg::{PhysReg, PregFile};
use crate::symval::SymValue;
use contopt_isa::MemSize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MbcEntry {
    aligned: u64,
    offset: u8,
    size: u8,
    data: SymValue,
}

/// MBC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MbcStats {
    /// Load lookups performed.
    pub lookups: u64,
    /// Lookups that matched (before value verification).
    pub hits: u64,
    /// Entries written (loads filling, stores forwarding).
    pub inserts: u64,
    /// Whole-cache flushes (conservative unknown-address-store policy).
    pub flushes: u64,
}

impl MbcStats {
    /// Percentage of lookups that matched, before value verification —
    /// `0.0` (never `NaN`) when no lookups occurred. Shares the guarded
    /// [`crate::pct`] helper with every other derived percentage.
    pub fn pct_hits(&self) -> f64 {
        crate::stats::pct(self.hits, self.lookups)
    }
}

/// The Memory Bypass Cache.
///
/// # Examples
///
/// ```
/// use contopt::{Mbc, PregFile, SymValue, PhysReg};
/// use contopt_isa::MemSize;
///
/// let mut pregs = PregFile::new(8);
/// let p = pregs.alloc().unwrap();
/// let mut mbc = Mbc::new(4, &pregs);
/// mbc.insert(0x1000, MemSize::Quad, SymValue::reg(p), &mut pregs);
/// assert_eq!(mbc.lookup(0x1000, MemSize::Quad), Some(SymValue::reg(p)));
/// assert_eq!(mbc.lookup(0x1000, MemSize::Long), None, "size must match");
/// ```
#[derive(Debug, Clone)]
pub struct Mbc {
    entries: Vec<Option<MbcEntry>>,
    stats: MbcStats,
    /// Entries per data base register, for value feedback.
    based: BaseIndex,
}

impl Mbc {
    /// Creates an empty MBC with `entries` slots (must be a power of two)
    /// whose data may be based on any register of `pregs`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, pregs: &PregFile) -> Mbc {
        assert!(entries.is_power_of_two(), "MBC size must be a power of two");
        Mbc {
            entries: vec![None; entries],
            stats: MbcStats::default(),
            based: BaseIndex::new(pregs),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MbcStats {
        self.stats
    }

    /// Number of valid entries (for tests/reporting).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    #[inline]
    fn index(&self, aligned: u64) -> usize {
        ((aligned >> 3) as usize) & (self.entries.len() - 1)
    }

    fn split(addr: u64) -> (u64, u8) {
        (addr & !7, (addr & 7) as u8)
    }

    /// Looks up a load at `addr`/`size`; returns the forwarded symbolic data
    /// on a full tag+offset+size match. Counts a lookup.
    pub fn lookup(&mut self, addr: u64, size: MemSize) -> Option<SymValue> {
        self.stats.lookups += 1;
        let (aligned, offset) = Self::split(addr);
        let e = self.entries[self.index(aligned)].as_ref()?;
        if e.aligned == aligned && e.offset == offset && e.size == size.bytes() as u8 {
            self.stats.hits += 1;
            Some(e.data)
        } else {
            None
        }
    }

    /// Installs (or replaces) the entry for `addr`/`size` with `data`,
    /// acquiring a reference on `data`'s base register and releasing the
    /// victim's.
    pub fn insert(&mut self, addr: u64, size: MemSize, data: SymValue, pregs: &mut PregFile) {
        self.stats.inserts += 1;
        let (aligned, offset) = Self::split(addr);
        if let Some(b) = data.base() {
            pregs.add_ref(b);
        }
        let slot = self.index(aligned);
        if let Some(old) = self.entries[slot].take() {
            if let Some(b) = old.data.base() {
                pregs.release(b);
            }
            self.based.remove(old.data);
        }
        self.based.add(data);
        self.entries[slot] = Some(MbcEntry {
            aligned,
            offset,
            size: size.bytes() as u8,
            data,
        });
    }

    /// Removes the entry matching `addr` exactly (any offset/size in the
    /// same aligned word), releasing its base reference. Used when strict
    /// value checking rejects a forward (stale speculative entry).
    pub fn invalidate(&mut self, addr: u64, pregs: &mut PregFile) {
        let (aligned, _) = Self::split(addr);
        let slot = self.index(aligned);
        if let Some(e) = &self.entries[slot] {
            if e.aligned == aligned {
                if let Some(b) = e.data.base() {
                    pregs.release(b);
                }
                self.based.remove(e.data);
                self.entries[slot] = None;
            }
        }
    }

    /// Invalidates everything (the conservative unknown-address-store
    /// policy), releasing all base references.
    pub fn flush(&mut self, pregs: &mut PregFile) {
        self.stats.flushes += 1;
        for slot in &mut self.entries {
            if let Some(e) = slot.take() {
                if let Some(b) = e.data.base() {
                    pregs.release(b);
                }
                self.based.remove(e.data);
            }
        }
    }

    /// CAM-style value feedback: every entry whose base is `p` becomes a
    /// known constant. Returns the number of entries converted.
    pub fn feed_back(&mut self, p: PhysReg, v: u64, pregs: &mut PregFile) -> u64 {
        let syms = self.entries.iter_mut().flatten().map(|e| &mut e.data);
        self.based.feed_back(syms, p, v, pregs)
    }
}

/// The unindexed paths [`Mbc::feed_back`] replaced, kept as the reference
/// the index is tested against.
#[cfg(test)]
impl Mbc {
    /// Value feedback as a full scan of every slot.
    pub(crate) fn feed_back_scan(&mut self, p: PhysReg, v: u64, pregs: &mut PregFile) -> u64 {
        let mut converted = 0;
        for slot in self.entries.iter_mut().flatten() {
            if let Some(k) = slot.data.feed_back(p, v) {
                slot.data = k;
                pregs.release(p);
                converted += 1;
            }
        }
        converted
    }

    /// Entries based on `p`, counted by brute force.
    pub(crate) fn count_based_scan(&self, p: PhysReg) -> u32 {
        let bases = self.entries.iter().flatten().map(|e| e.data.base());
        bases.filter(|&b| b == Some(p)).count() as u32
    }

    /// The index's count for `p`.
    pub(crate) fn count_based(&self, p: PhysReg) -> u32 {
        self.based.count(p)
    }

    /// Whether both caches hold the same entries (the index aside).
    pub(crate) fn same_entries(&self, other: &Mbc) -> bool {
        self.entries == other.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Mbc, PregFile, PhysReg) {
        let mut pregs = PregFile::new(16);
        let p = pregs.alloc().unwrap();
        (Mbc::new(8, &pregs), pregs, p)
    }

    #[test]
    fn exact_match_required() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x1004, MemSize::Long, SymValue::reg(p), &mut pregs);
        assert!(mbc.lookup(0x1004, MemSize::Long).is_some());
        assert!(
            mbc.lookup(0x1000, MemSize::Long).is_none(),
            "offset differs"
        );
        assert!(mbc.lookup(0x1004, MemSize::Word).is_none(), "size differs");
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let (mut mbc, mut pregs, p) = setup();
        // 8 entries: addresses 0x0 and 0x8*8=0x40 collide.
        mbc.insert(0x0, MemSize::Quad, SymValue::reg(p), &mut pregs);
        let before = pregs.ref_count(p);
        mbc.insert(0x40, MemSize::Quad, SymValue::Known(1), &mut pregs);
        assert!(mbc.lookup(0x0, MemSize::Quad).is_none());
        assert_eq!(pregs.ref_count(p), before - 1, "victim's ref released");
    }

    #[test]
    fn refcounts_pin_base_registers() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x20, MemSize::Quad, SymValue::reg(p), &mut pregs);
        assert_eq!(pregs.ref_count(p), 2);
        pregs.release(p); // producer drops its claim
        assert!(pregs.is_live(p), "MBC keeps the register alive");
        mbc.invalidate(0x20, &mut pregs);
        assert!(!pregs.is_live(p));
    }

    #[test]
    fn flush_releases_everything() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x10, MemSize::Quad, SymValue::reg(p), &mut pregs);
        mbc.insert(0x18, MemSize::Quad, SymValue::reg(p), &mut pregs);
        assert_eq!(pregs.ref_count(p), 3);
        mbc.flush(&mut pregs);
        assert_eq!(pregs.ref_count(p), 1);
        assert_eq!(mbc.occupancy(), 0);
        assert_eq!(mbc.stats().flushes, 1);
    }

    #[test]
    fn feedback_converts_to_known() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x30, MemSize::Quad, SymValue::reg(p), &mut pregs);
        let n = mbc.feed_back(p, 99, &mut pregs);
        assert_eq!(n, 1);
        assert_eq!(mbc.lookup(0x30, MemSize::Quad), Some(SymValue::Known(99)));
        assert_eq!(pregs.ref_count(p), 1, "base ref released on conversion");
    }

    #[test]
    fn known_data_needs_no_refs() {
        let (mut mbc, mut pregs, _) = setup();
        mbc.insert(0x8, MemSize::Byte, SymValue::Known(0xab), &mut pregs);
        assert_eq!(mbc.lookup(0x8, MemSize::Byte), Some(SymValue::Known(0xab)));
        mbc.flush(&mut pregs); // must not underflow any count
    }

    #[test]
    fn stats_track_hit_rate() {
        let (mut mbc, mut pregs, p) = setup();
        mbc.insert(0x100, MemSize::Quad, SymValue::reg(p), &mut pregs);
        mbc.lookup(0x100, MemSize::Quad);
        mbc.lookup(0x108, MemSize::Quad);
        let s = mbc.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.inserts, 1);
    }
}
