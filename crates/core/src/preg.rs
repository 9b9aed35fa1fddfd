//! Physical registers and the reference-counted physical register file.
//!
//! Continuous optimization extends physical-register lifetimes beyond the
//! classic "freed when the next writer of the architectural register
//! retires" point: a register may be referenced as the *base* of symbolic
//! RAT entries and Memory Bypass Cache entries long after it was
//! architecturally overwritten. The paper (§3.1) therefore relies on a
//! reference-counting allocation scheme (citing Jourdan et al.); this module
//! implements it.

use std::fmt;

/// A physical register tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg(u32);

impl PhysReg {
    /// The permanently-allocated constant-zero physical register.
    pub const ZERO: PhysReg = PhysReg(0);

    /// Creates a tag from a raw index (mainly for tests).
    pub fn from_index(i: usize) -> PhysReg {
        PhysReg(i as u32)
    }

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Maximum register dependences one renamed instruction can carry (a store
/// waits on its data and its base at most).
pub const MAX_SRCS: usize = 2;

/// An inline list of source-operand physical registers.
///
/// Every ISA instruction reads at most [`MAX_SRCS`] registers, so the list
/// lives entirely in the [`crate::Renamed`] record: the rename path
/// performs no heap allocation per instruction and the pipeline can copy
/// dependence lists around freely. Slots past the end hold
/// [`PhysReg::ZERO`] ([`padded`](Self::padded)).
///
/// # Examples
///
/// ```
/// use contopt::{PhysReg, SrcList};
/// let mut s = SrcList::new();
/// assert!(s.is_empty());
/// s.push(PhysReg::from_index(3));
/// assert_eq!(s.as_slice(), &[PhysReg::from_index(3)]);
/// assert_eq!(SrcList::one(PhysReg::from_index(3)), s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrcList {
    regs: [PhysReg; MAX_SRCS],
    len: u8,
}

impl Default for PhysReg {
    fn default() -> PhysReg {
        PhysReg::ZERO
    }
}

impl SrcList {
    /// An empty list.
    pub fn new() -> SrcList {
        SrcList::default()
    }

    /// A one-element list.
    pub fn one(p: PhysReg) -> SrcList {
        let mut s = SrcList::new();
        s.push(p);
        s
    }

    /// Appends a register.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_SRCS`] registers (an ISA
    /// instruction with more sources would be a simulator bug).
    pub fn push(&mut self, p: PhysReg) {
        assert!(
            (self.len as usize) < MAX_SRCS,
            "more than {MAX_SRCS} source registers on one instruction"
        );
        self.regs[self.len as usize] = p;
        self.len += 1;
    }

    /// The registers as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[PhysReg] {
        &self.regs[..self.len as usize]
    }

    /// The registers followed by [`PhysReg::ZERO`] up to [`MAX_SRCS`]: a
    /// fixed-size form for a consumer that treats the zero register as
    /// always ready.
    ///
    /// ```
    /// use contopt::{PhysReg, SrcList};
    /// let p = PhysReg::from_index(3);
    /// assert_eq!(SrcList::one(p).padded(), [p, PhysReg::ZERO]);
    /// ```
    #[inline]
    pub fn padded(&self) -> [PhysReg; MAX_SRCS] {
        self.regs
    }
}

impl std::ops::Deref for SrcList {
    type Target = [PhysReg];
    fn deref(&self) -> &[PhysReg] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a SrcList {
    type Item = &'a PhysReg;
    type IntoIter = std::slice::Iter<'a, PhysReg>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<PhysReg> for SrcList {
    fn from_iter<I: IntoIterator<Item = PhysReg>>(iter: I) -> SrcList {
        let mut s = SrcList::new();
        for p in iter {
            s.push(p);
        }
        s
    }
}

/// A reference-counted physical register file.
///
/// Registers are allocated with a count of 1 and freed when their count
/// returns to zero. Holders of references include: the RAT mapping, symbolic
/// RAT bases, Memory Bypass Cache bases, and in-flight consumer
/// instructions.
///
/// # Examples
///
/// ```
/// use contopt::PregFile;
/// let mut f = PregFile::new(8);
/// let p = f.alloc().expect("free register");
/// f.add_ref(p);
/// f.release(p);
/// assert!(f.is_live(p));
/// f.release(p);
/// assert!(!f.is_live(p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PregFile {
    refs: Vec<u32>,
    free: Vec<PhysReg>,
}

impl PregFile {
    /// Creates a file with `n` registers. Register 0 is reserved as the
    /// permanently-live [`PhysReg::ZERO`].
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> PregFile {
        assert!(n >= 2, "need at least the zero register plus one");
        let mut refs = vec![0u32; n];
        refs[0] = 1; // PhysReg::ZERO is never freed
        let free = (1..n).rev().map(|i| PhysReg(i as u32)).collect();
        PregFile { refs, free }
    }

    /// Total registers in the file.
    pub fn capacity(&self) -> usize {
        self.refs.len()
    }

    /// Registers currently allocated (live).
    pub fn live_count(&self) -> usize {
        self.refs.len() - self.free.len()
    }

    /// Allocates a register with an initial reference count of 1, or `None`
    /// if the pool is exhausted (the pipeline stalls rename in that case).
    pub fn alloc(&mut self) -> Option<PhysReg> {
        let p = self.free.pop()?;
        debug_assert_eq!(self.refs[p.index()], 0);
        self.refs[p.index()] = 1;
        Some(p)
    }

    /// Adds a reference to a live register.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the register is not live.
    #[inline]
    pub fn add_ref(&mut self, p: PhysReg) {
        debug_assert!(self.refs[p.index()] > 0, "add_ref on dead {p}");
        self.refs[p.index()] += 1;
    }

    /// Drops a reference; frees the register when the count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if the register is already dead (reference-count underflow
    /// indicates a simulator bug).
    pub fn release(&mut self, p: PhysReg) {
        let c = &mut self.refs[p.index()];
        assert!(*c > 0, "reference-count underflow on {p}");
        *c -= 1;
        if *c == 0 {
            self.free.push(p);
        }
    }

    /// Whether the register is currently allocated.
    #[inline]
    pub fn is_live(&self, p: PhysReg) -> bool {
        self.refs[p.index()] > 0
    }

    /// Current reference count (0 = free).
    #[inline]
    pub fn ref_count(&self, p: PhysReg) -> u32 {
        self.refs[p.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_permanent() {
        let f = PregFile::new(4);
        assert!(f.is_live(PhysReg::ZERO));
        assert_eq!(f.ref_count(PhysReg::ZERO), 1);
    }

    #[test]
    fn alloc_release_cycle() {
        let mut f = PregFile::new(4);
        let a = f.alloc().unwrap();
        let b = f.alloc().unwrap();
        let c = f.alloc().unwrap();
        assert_ne!(a, b);
        assert!(f.alloc().is_none(), "pool exhausted");
        f.release(b);
        let d = f.alloc().unwrap();
        assert_eq!(d, b, "freed register is reused");
        assert_eq!(f.live_count(), 4);
        let _ = (a, c);
    }

    #[test]
    fn refcounts_delay_free() {
        let mut f = PregFile::new(4);
        let p = f.alloc().unwrap();
        f.add_ref(p);
        f.add_ref(p);
        assert_eq!(f.ref_count(p), 3);
        f.release(p);
        f.release(p);
        assert!(f.is_live(p));
        f.release(p);
        assert!(!f.is_live(p));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn double_free_panics() {
        let mut f = PregFile::new(4);
        let p = f.alloc().unwrap();
        f.release(p);
        f.release(p);
    }
}
