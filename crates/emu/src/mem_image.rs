//! Sparse byte-addressable memory image.

use crate::{fnv1a, STREAM_DIGEST_INIT};
use std::collections::HashMap;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = PAGE_SIZE - 1;

/// A sparse, demand-allocated, zero-filled memory image.
///
/// Pages are 4 KiB and materialize on first write; reads of unmapped memory
/// return zero, which is safe for the self-contained synthetic workloads this
/// simulator runs (there is no OS to leak data from).
///
/// # Examples
///
/// ```
/// use contopt_emu::MemImage;
/// let mut m = MemImage::new();
/// m.write_u64(0x1000, 0xdead_beef_cafe_f00d);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef_cafe_f00d);
/// assert_eq!(m.read_u32(0x1004), 0xdead_beef);
/// assert_eq!(m.read_u8(0x9999), 0, "unmapped reads as zero");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    pages: HashMap<u64, Box<[u8]>>,
}

impl MemImage {
    /// Creates an empty image.
    pub fn new() -> MemImage {
        MemImage::default()
    }

    /// Number of materialized 4 KiB pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|p| p.as_ref())
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut Box<[u8]> {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice())
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = v;
    }

    /// Reads `n <= 8` little-endian bytes into the low bits of a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn read_le(&self, addr: u64, n: u64) -> u64 {
        assert!(n <= 8, "read of {n} bytes");
        // Fast path: whole access within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + n as usize <= PAGE_SIZE as usize {
            if let Some(p) = self.page(addr) {
                let mut buf = [0u8; 8];
                buf[..n as usize].copy_from_slice(&p[off..off + n as usize]);
                return u64::from_le_bytes(buf);
            }
            return 0;
        }
        let mut v = 0u64;
        for i in 0..n {
            v |= (self.read_u8(addr + i) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `n <= 8` bytes of `v`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `n > 8`.
    pub fn write_le(&mut self, addr: u64, v: u64, n: u64) {
        assert!(n <= 8, "write of {n} bytes");
        let off = (addr & PAGE_MASK) as usize;
        if off + n as usize <= PAGE_SIZE as usize {
            let bytes = v.to_le_bytes();
            let p = self.page_mut(addr);
            p[off..off + n as usize].copy_from_slice(&bytes[..n as usize]);
            return;
        }
        for i in 0..n {
            self.write_u8(addr + i, (v >> (8 * i)) as u8);
        }
    }

    /// Reads a `u16`.
    pub fn read_u16(&self, addr: u64) -> u16 {
        self.read_le(addr, 2) as u16
    }
    /// Reads a `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.read_le(addr, 4) as u32
    }
    /// Reads a `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read_le(addr, 8)
    }
    /// Reads an `f64`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }
    /// Writes a `u16`.
    pub fn write_u16(&mut self, addr: u64, v: u16) {
        self.write_le(addr, v as u64, 2);
    }
    /// Writes a `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_le(addr, v, 8);
    }
    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Copies a byte slice into memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, b);
        }
    }

    /// An order-independent FNV-1a digest of the image's *content*.
    ///
    /// Two images read identically at every address iff their digests
    /// match (up to hash collision): all-zero pages hash like unmapped
    /// ones, so a page that was materialized but only ever held zeros
    /// does not distinguish the images. This is what differential tests
    /// compare — two executions that allocate pages in different orders,
    /// or one of which writes an explicit zero, are architecturally equal.
    pub fn content_digest(&self) -> u64 {
        let mut digest = 0u64;
        for (&pno, page) in &self.pages {
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            // FNV-1a over (page number, page bytes); pages are combined
            // with XOR so HashMap iteration order cannot matter.
            digest ^= fnv1a(fnv1a(STREAM_DIGEST_INIT, &pno.to_le_bytes()), &page[..]);
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = MemImage::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MemImage::new();
        let addr = PAGE_SIZE - 3; // spans two pages
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn partial_widths() {
        let mut m = MemImage::new();
        m.write_u64(0x100, u64::MAX);
        m.write_u16(0x102, 0xABCD);
        assert_eq!(m.read_u64(0x100), 0xFFFF_FFFF_ABCD_FFFF);
        assert_eq!(m.read_u32(0x100), 0xABCD_FFFF);
        assert_eq!(m.read_u16(0x102), 0xABCD);
        assert_eq!(m.read_u8(0x103), 0xAB);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = MemImage::new();
        m.write_f64(0x2000, -1234.5e-6);
        assert_eq!(m.read_f64(0x2000), -1234.5e-6);
    }

    #[test]
    fn content_digest_ignores_mapping_history() {
        let empty = MemImage::new();
        let mut zeroed = MemImage::new();
        zeroed.write_u64(0x5000, 0); // materializes a page of zeros
        assert_eq!(empty.content_digest(), zeroed.content_digest());

        let mut a = MemImage::new();
        let mut b = MemImage::new();
        a.write_u64(0x1000, 7);
        a.write_u64(0x9000, 9);
        b.write_u64(0x9000, 9); // reverse allocation order
        b.write_u64(0x1000, 7);
        assert_eq!(a.content_digest(), b.content_digest());
        b.write_u8(0x1000, 8);
        assert_ne!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn write_bytes_bulk() {
        let mut m = MemImage::new();
        m.write_bytes(0x3000, &[1, 2, 3, 4]);
        assert_eq!(m.read_u32(0x3000), 0x0403_0201);
    }
}
