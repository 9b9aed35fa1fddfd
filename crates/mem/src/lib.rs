//! # contopt-mem — cache and memory-hierarchy timing models
//!
//! Implements the memory system of Table 2 in *Continuous Optimization*
//! (ISCA 2005): a 64 KB 4-way L1I, a 32 KB 2-way dual-ported L1D, a unified
//! 1 MB 2-way L2, and flat 100-cycle main memory. Caches model timing state
//! only (tags/LRU/dirty); data values come from the functional emulator.
//!
//! # Examples
//!
//! ```
//! use contopt_mem::{Cache, CacheConfig};
//! let mut l1d = Cache::new(CacheConfig::new(32 * 1024, 2, 32));
//! l1d.access(0x1000, false);
//! assert!(l1d.probe(0x1000));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod hierarchy;

pub use cache::{Cache, CacheConfig, CacheStats, GeometryError};
pub use hierarchy::{HierarchyConfig, HierarchyStats, MemHierarchy};
