//! The three-level memory hierarchy of the simulated machine (Table 2).

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Latencies and geometries for the whole hierarchy.
///
/// Defaults reproduce Table 2 of the paper:
/// L1I 64 KB/4-way/64 B/1 cycle; L1D 32 KB/2-way/32 B/2 cycles/2 ports;
/// unified L2 1 MB/2-way/128 B/10 cycles; memory 100 cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1I hit latency (cycles).
    pub l1i_latency: u64,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L1D hit latency (cycles).
    pub l1d_latency: u64,
    /// Number of L1D ports (loads serviced per cycle); enforced by the
    /// pipeline's memory scheduler, recorded here for configuration clarity.
    pub l1d_ports: u64,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// L2 hit latency (cycles).
    pub l2_latency: u64,
    /// Main memory latency (cycles).
    pub memory_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig::new(64 * 1024, 4, 64),
            l1i_latency: 1,
            l1d: CacheConfig::new(32 * 1024, 2, 32),
            l1d_latency: 2,
            l1d_ports: 2,
            l2: CacheConfig::new(1024 * 1024, 2, 128),
            l2_latency: 10,
            memory_latency: 100,
        }
    }
}

/// Per-level statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 instruction cache.
    pub l1i: CacheStats,
    /// L1 data cache.
    pub l1d: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
}

/// The memory hierarchy timing model: L1I + L1D backed by a unified L2
/// backed by flat-latency memory.
///
/// # Examples
///
/// ```
/// use contopt_mem::{MemHierarchy, HierarchyConfig};
/// let mut h = MemHierarchy::new(HierarchyConfig::default());
/// let cold = h.data_access(0x8000, false);
/// let warm = h.data_access(0x8000, false);
/// assert_eq!(cold, 2 + 10 + 100); // L1D miss + L2 miss + memory
/// assert_eq!(warm, 2);            // L1D hit
/// ```
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
}

impl MemHierarchy {
    /// Creates a cold hierarchy.
    pub fn new(cfg: HierarchyConfig) -> MemHierarchy {
        MemHierarchy {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> HierarchyConfig {
        self.cfg
    }

    /// The number of the instruction-cache line holding `pc`: fetch
    /// accesses the L1I once per line.
    #[inline]
    pub fn inst_line(&self, pc: u64) -> u64 {
        self.l1i.line(pc)
    }

    /// Fetches the instruction line containing `pc`; returns the total
    /// latency in cycles.
    pub fn inst_fetch(&mut self, pc: u64) -> u64 {
        let mut lat = self.cfg.l1i_latency;
        if !self.l1i.access(pc, false) {
            lat += self.cfg.l2_latency;
            if !self.l2.access(pc, false) {
                lat += self.cfg.memory_latency;
            }
        }
        lat
    }

    /// Accesses data at `addr`; returns the total latency in cycles.
    ///
    /// Stores are write-allocate and cost the same as loads for occupancy
    /// purposes (the pipeline retires stores without waiting on them, so
    /// this latency only shapes cache state for later loads).
    pub fn data_access(&mut self, addr: u64, is_write: bool) -> u64 {
        let mut lat = self.cfg.l1d_latency;
        if !self.l1d.access(addr, is_write) {
            lat += self.cfg.l2_latency;
            if !self.l2.access(addr, is_write) {
                lat += self.cfg.memory_latency;
            }
        }
        lat
    }

    /// Statistics for all three caches.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = HierarchyConfig::default();
        assert_eq!(c.l1i.size_bytes, 64 * 1024);
        assert_eq!(c.l1i.ways, 4);
        assert_eq!(c.l1i.line_bytes, 64);
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.ways, 2);
        assert_eq!(c.l1d.line_bytes, 32);
        assert_eq!(c.l1d_ports, 2);
        assert_eq!(c.l2.size_bytes, 1024 * 1024);
        assert_eq!(c.l2.line_bytes, 128);
        assert_eq!(c.l2_latency, 10);
        assert_eq!(c.memory_latency, 100);
    }

    #[test]
    fn l2_absorbs_l1_misses() {
        let mut h = MemHierarchy::new(HierarchyConfig::default());
        // Touch enough lines to overflow an L1D set but stay in L2.
        // L1D: 512 sets * 32B; stride of 512*32 = 16KB maps to one set.
        let stride = 16 * 1024;
        for i in 0..4u64 {
            h.data_access(i * stride, false);
        }
        // First line was evicted from L1D (2-way) but lives in L2.
        let lat = h.data_access(0, false);
        assert_eq!(lat, 2 + 10);
    }

    #[test]
    fn icache_and_dcache_are_independent() {
        let mut h = MemHierarchy::new(HierarchyConfig::default());
        h.inst_fetch(0x4000);
        let lat = h.data_access(0x4000, false);
        // Data access misses L1D but hits L2 (filled by the fetch).
        assert_eq!(lat, 2 + 10);
        assert_eq!(h.stats().l1i.accesses, 1);
        assert_eq!(h.stats().l1d.accesses, 1);
        assert_eq!(h.stats().l2.accesses, 2);
        assert_eq!(h.stats().l2.hits, 1);
    }

    #[test]
    fn warm_icache_is_single_cycle() {
        let mut h = MemHierarchy::new(HierarchyConfig::default());
        h.inst_fetch(0x1000);
        assert_eq!(h.inst_fetch(0x1000), 1);
        assert_eq!(h.inst_fetch(0x103c), 1, "same 64B line");
    }
}
