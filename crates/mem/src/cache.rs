//! A generic set-associative cache timing model.
//!
//! This models *timing state only* (tags, LRU, dirty bits): the simulator's
//! data values come from the functional emulator's oracle stream, so the
//! cache never stores data.

use std::fmt;

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Line size in bytes (a power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Creates a config and validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics with the [`GeometryError`] of [`check`](Self::check) if the
    /// geometry is not one a [`Cache`] can model.
    pub fn new(size_bytes: u64, ways: u64, line_bytes: u64) -> CacheConfig {
        let cfg = CacheConfig {
            size_bytes,
            ways,
            line_bytes,
        };
        if let Err(e) = cfg.check() {
            panic!("invalid cache geometry {cfg:?}: {e}");
        }
        cfg
    }

    /// Checks the geometry a [`Cache`] relies on: at least one way, a
    /// power-of-two line size, a capacity that is a whole number of sets,
    /// and a power-of-two number of sets.
    pub fn check(&self) -> Result<(), GeometryError> {
        if self.ways == 0 {
            return Err(GeometryError::ZeroWays);
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(GeometryError::LineNotPowerOfTwo(self.line_bytes));
        }
        match self.ways.checked_mul(self.line_bytes) {
            Some(set_bytes) if self.size_bytes % set_bytes == 0 => {}
            _ => return Err(GeometryError::PartialSet),
        }
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(GeometryError::SetsNotPowerOfTwo(sets));
        }
        Ok(())
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.ways
    }
}

/// Why a [`CacheConfig`] is not a geometry a [`Cache`] can model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// The cache has no ways.
    ZeroWays,
    /// The line size (carried) is not a power of two.
    LineNotPowerOfTwo(u64),
    /// The capacity is not a whole number of sets (`ways * line_bytes`).
    PartialSet,
    /// The number of sets (carried) is not a power of two.
    SetsNotPowerOfTwo(u64),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::ZeroWays => write!(f, "a cache needs at least one way"),
            GeometryError::LineNotPowerOfTwo(n) => {
                write!(f, "line size ({n} bytes) must be a power of two")
            }
            GeometryError::PartialSet => {
                write!(f, "capacity must be a whole number of sets")
            }
            GeometryError::SetsNotPowerOfTwo(n) => {
                write!(f, "number of sets ({n}) must be a power of two")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB, {}-way, {}B lines",
            self.size_bytes / 1024,
            self.ways,
            self.line_bytes
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Dirty lines evicted (write-backs).
    pub writebacks: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, write-allocate, LRU cache (timing state only).
///
/// The geometry must pass [`CacheConfig::check`]: the line size and the
/// number of sets are powers of two, so an address splits into line
/// offset, set index and tag with two shifts and a mask, computed once at
/// construction.
///
/// # Examples
///
/// ```
/// use contopt_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::new(1024, 2, 64));
/// assert!(!c.access(0x0, false)); // cold miss
/// assert!(c.access(0x8, false));  // same line: hit
/// assert_eq!(c.stats().misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_bytes)`: an address shifted right by it is a line number.
    line_shift: u32,
    /// `log2(sets)`: a line number shifted right by it is a tag.
    set_shift: u32,
    /// `sets - 1`: a line number masked by it is a set index.
    set_mask: u64,
    lines: Vec<Line>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::check`].
    pub fn new(cfg: CacheConfig) -> Cache {
        if let Err(e) = cfg.check() {
            panic!("invalid cache geometry {cfg:?}: {e}");
        }
        let sets = cfg.sets();
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            lines: vec![Line::default(); (sets * cfg.ways) as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The number of the line holding `addr`.
    #[inline]
    pub(crate) fn line(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The first way of `addr`'s set in `lines`, and its tag.
    #[inline]
    fn set_range(&self, addr: u64) -> (usize, u64) {
        let line = self.line(addr);
        let set = (line & self.set_mask) as usize;
        (set * self.cfg.ways as usize, line >> self.set_shift)
    }

    /// Accesses `addr`; allocates on miss; returns `true` on hit.
    ///
    /// Write misses allocate (write-allocate); a dirty eviction bumps the
    /// write-back counter.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let (base, tag) = self.set_range(addr);
        self.access_set(base, tag, is_write)
    }

    /// [`access`](Self::access) of the line with `tag` in the set whose
    /// first way is `base`.
    #[inline]
    fn access_set(&mut self, base: usize, tag: u64, is_write: bool) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let ways = self.cfg.ways as usize;

        // Probe.
        for i in base..base + ways {
            let line = &mut self.lines[i];
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return true;
            }
        }

        // Miss: pick the LRU (or first invalid) victim.
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + ways {
            let line = &self.lines[i];
            if !line.valid {
                victim = i;
                break;
            }
            if line.lru < best {
                best = line.lru;
                victim = i;
            }
        }
        let line = &mut self.lines[victim];
        if line.valid && line.dirty {
            self.stats.writebacks += 1;
        }
        *line = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: self.clock,
        };
        false
    }

    /// Whether `addr` currently resides in the cache (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.set_range(addr);
        self.lines[base..base + self.cfg.ways as usize]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates everything (keeps statistics).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            l.valid = false;
            l.dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_workloads::SplitMix64;

    /// The set/tag split by division, as the cache computed it before it
    /// indexed by shifts: the reference for `Cache::set_range`.
    fn set_range_by_division(c: &Cache, addr: u64) -> (usize, u64) {
        let cfg = c.config();
        let line = addr / cfg.line_bytes;
        let set = (line % cfg.sets()) as usize;
        (set * cfg.ways as usize, line / cfg.sets())
    }

    #[test]
    fn shift_indexing_matches_division_on_random_geometries() {
        let mut rng = SplitMix64::new(0x00ca_c4e5);
        for case in 0..200 {
            let line_bytes = 8 << rng.below(6); // 8 to 256 bytes
            let sets = 1 << rng.below(13); // 1 to 4,096 sets
            let ways = 1 + rng.below(8);
            let cfg = CacheConfig::new(line_bytes * sets * ways, ways, line_bytes);
            let mut fast = Cache::new(cfg);
            let mut reference = Cache::new(cfg);
            // Mostly addresses within a few capacities of a random base,
            // so sets conflict; some reuse a recent address, so lines hit;
            // some lie anywhere, so every tag bit varies.
            let base = rng.next_u64();
            let span = 4 * cfg.size_bytes;
            let mut recent = [base; 16];
            for i in 0..2_000 {
                let addr = match rng.below(8) {
                    0 => rng.next_u64(),
                    1..=3 => recent[rng.below(16) as usize],
                    _ => base.wrapping_add(rng.below(span)),
                };
                recent[i % 16] = addr;
                let is_write = rng.below(3) == 0;
                let (set, tag) = set_range_by_division(&reference, addr);
                assert_eq!(
                    fast.access(addr, is_write),
                    reference.access_set(set, tag, is_write),
                    "case {case} ({cfg}, {sets} sets), access {i} at {addr:#x}"
                );
            }
            assert_eq!(fast.stats(), reference.stats(), "case {case} ({cfg})");
        }
    }

    fn tiny() -> Cache {
        // 4 sets, 2 ways, 16B lines = 128B
        Cache::new(CacheConfig::new(128, 2, 16))
    }

    #[test]
    fn geometry() {
        let cfg = CacheConfig::new(32 * 1024, 2, 32);
        assert_eq!(cfg.sets(), 512);
        assert_eq!(cfg.to_string(), "32KB, 2-way, 32B lines");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size() {
        let _ = CacheConfig::new(128, 2, 12);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert!(c.access(0x10f, false), "same line");
        assert!(!c.access(0x110, false), "next line");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 sets * 16B = 64B).
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x000, false); // refresh first
        c.access(0x080, false); // evicts 0x040
        assert!(c.probe(0x000));
        assert!(!c.probe(0x040));
        assert!(c.probe(0x080));
    }

    #[test]
    fn writeback_counting() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x040, false);
        c.access(0x080, false); // evicts dirty 0x000
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x0, false);
        c.flush();
        assert!(!c.probe(0x0));
        assert!(!c.access(0x0, false));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        for i in 0..8 {
            c.access(i * 16, false);
        }
        for i in 0..8 {
            c.access(i * 16, false);
        }
        assert_eq!(c.stats().accesses, 16);
        assert_eq!(c.stats().hits, 8);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
