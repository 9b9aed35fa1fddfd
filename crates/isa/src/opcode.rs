//! Operation codes and their evaluation semantics.
//!
//! The evaluation functions here are the *single source of truth* for
//! instruction semantics: both the functional emulator and the continuous
//! optimizer's early-execution ALUs call into them, which guarantees that a
//! value computed in the optimizer always matches the architectural value
//! (the paper's "strict expression and value checking").

use std::fmt;

/// Integer ALU operations.
///
/// All of these except [`AluOp::Mulq`] are *simple* (single-cycle) in the
/// simulated machine and are therefore eligible for early execution in the
/// optimizer. `Mulq` executes on the complex-integer unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// 64-bit wrapping add.
    Addq,
    /// 64-bit wrapping subtract.
    Subq,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bit clear: `a & !b`.
    Bic,
    /// Logical shift left (amount taken mod 64).
    Sll,
    /// Logical shift right (amount taken mod 64).
    Srl,
    /// Arithmetic shift right (amount taken mod 64).
    Sra,
    /// Scaled add: `(a << 2) + b` (Alpha `s4addq`).
    S4Addq,
    /// Scaled add: `(a << 3) + b` (Alpha `s8addq`).
    S8Addq,
    /// Signed compare equal: result 1 if `a == b`, else 0.
    CmpEq,
    /// Signed compare less-than.
    CmpLt,
    /// Signed compare less-or-equal.
    CmpLe,
    /// Unsigned compare less-than.
    CmpUlt,
    /// Unsigned compare less-or-equal.
    CmpUle,
    /// 64-bit wrapping multiply (complex: multi-cycle).
    Mulq,
}

impl AluOp {
    /// Every integer ALU operation, in mnemonic-table order.
    pub const ALL: [AluOp; 17] = [
        AluOp::Addq,
        AluOp::Subq,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Bic,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::S4Addq,
        AluOp::S8Addq,
        AluOp::CmpEq,
        AluOp::CmpLt,
        AluOp::CmpLe,
        AluOp::CmpUlt,
        AluOp::CmpUle,
        AluOp::Mulq,
    ];

    /// Whether this operation completes in one cycle (and may therefore be
    /// executed inside the optimizer).
    #[inline]
    pub fn is_simple(self) -> bool {
        !matches!(self, AluOp::Mulq)
    }

    /// Evaluates the operation on two 64-bit operands with Alpha-like
    /// wrapping semantics.
    ///
    /// # Examples
    ///
    /// ```
    /// use contopt_isa::AluOp;
    /// assert_eq!(AluOp::Addq.eval(3, 4), 7);
    /// assert_eq!(AluOp::CmpLt.eval(u64::MAX, 0), 1); // -1 < 0 signed
    /// assert_eq!(AluOp::S4Addq.eval(2, 1), 9);
    /// ```
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Addq => a.wrapping_add(b),
            AluOp::Subq => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Bic => a & !b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Srl => a.wrapping_shr((b & 63) as u32),
            AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::S4Addq => (a << 2).wrapping_add(b),
            AluOp::S8Addq => (a << 3).wrapping_add(b),
            AluOp::CmpEq => (a == b) as u64,
            AluOp::CmpLt => ((a as i64) < (b as i64)) as u64,
            AluOp::CmpLe => ((a as i64) <= (b as i64)) as u64,
            AluOp::CmpUlt => (a < b) as u64,
            AluOp::CmpUle => (a <= b) as u64,
            AluOp::Mulq => a.wrapping_mul(b),
        }
    }

    /// The mnemonic of the text syntax.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Addq => "addq",
            AluOp::Subq => "subq",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Bic => "bic",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::S4Addq => "s4addq",
            AluOp::S8Addq => "s8addq",
            AluOp::CmpEq => "cmpeq",
            AluOp::CmpLt => "cmplt",
            AluOp::CmpLe => "cmple",
            AluOp::CmpUlt => "cmpult",
            AluOp::CmpUle => "cmpule",
            AluOp::Mulq => "mulq",
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Floating-point (f64) operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// IEEE-754 double add.
    Addt,
    /// IEEE-754 double subtract.
    Subt,
    /// IEEE-754 double multiply.
    Mult,
    /// IEEE-754 double divide.
    Divt,
    /// IEEE-754 double square root.
    Sqrtt,
    /// Copy sign-and-value (register move; `fb` is ignored).
    Cpys,
}

impl FpOp {
    /// Every floating-point operation, in mnemonic-table order.
    pub const ALL: [FpOp; 6] = [
        FpOp::Addt,
        FpOp::Subt,
        FpOp::Mult,
        FpOp::Divt,
        FpOp::Sqrtt,
        FpOp::Cpys,
    ];

    /// Evaluates the FP operation.
    ///
    /// # Examples
    ///
    /// ```
    /// use contopt_isa::FpOp;
    /// assert_eq!(FpOp::Addt.eval(1.5, 2.5), 4.0);
    /// assert_eq!(FpOp::Cpys.eval(3.0, 9.9), 3.0);
    /// ```
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            FpOp::Addt => a + b,
            FpOp::Subt => a - b,
            FpOp::Mult => a * b,
            FpOp::Divt => a / b,
            FpOp::Sqrtt => a.sqrt(),
            FpOp::Cpys => a,
        }
    }

    /// The mnemonic of the text syntax.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpOp::Addt => "addt",
            FpOp::Subt => "subt",
            FpOp::Mult => "mult",
            FpOp::Divt => "divt",
            FpOp::Sqrtt => "sqrtt",
            FpOp::Cpys => "cpys",
        }
    }
}

impl fmt::Display for FpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Floating-point comparisons; the boolean result is written to an *integer*
/// register so that ordinary conditional branches can test it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCmpOp {
    /// Equal.
    Teq,
    /// Less-than.
    Tlt,
    /// Less-or-equal.
    Tle,
}

impl FpCmpOp {
    /// Every floating-point comparison, in mnemonic-table order.
    pub const ALL: [FpCmpOp; 3] = [FpCmpOp::Teq, FpCmpOp::Tlt, FpCmpOp::Tle];

    /// Evaluates the comparison, producing 1 or 0.
    #[inline]
    pub fn eval(self, a: f64, b: f64) -> u64 {
        match self {
            FpCmpOp::Teq => (a == b) as u64,
            FpCmpOp::Tlt => (a < b) as u64,
            FpCmpOp::Tle => (a <= b) as u64,
        }
    }

    /// The mnemonic of the text syntax.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FpCmpOp::Teq => "cmpteq",
            FpCmpOp::Tlt => "cmptlt",
            FpCmpOp::Tle => "cmptle",
        }
    }
}

impl fmt::Display for FpCmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Conditional-branch conditions; the register is compared against zero
/// (signed), as in the Alpha `beq`/`blt` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Branch if equal to zero.
    Eq,
    /// Branch if not equal to zero.
    Ne,
    /// Branch if less than zero (signed).
    Lt,
    /// Branch if less than or equal to zero (signed).
    Le,
    /// Branch if greater than zero (signed).
    Gt,
    /// Branch if greater than or equal to zero (signed).
    Ge,
}

impl Cond {
    /// Every branch condition, in mnemonic-table order.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

    /// Evaluates the branch condition against a register value.
    ///
    /// # Examples
    ///
    /// ```
    /// use contopt_isa::Cond;
    /// assert!(Cond::Eq.eval(0));
    /// assert!(Cond::Lt.eval(u64::MAX)); // -1 < 0
    /// assert!(!Cond::Gt.eval(0));
    /// ```
    #[inline]
    pub fn eval(self, v: u64) -> bool {
        let s = v as i64;
        match self {
            Cond::Eq => s == 0,
            Cond::Ne => s != 0,
            Cond::Lt => s < 0,
            Cond::Le => s <= 0,
            Cond::Gt => s > 0,
            Cond::Ge => s >= 0,
        }
    }

    /// If a branch with this condition is *taken*, does that imply the tested
    /// register holds exactly zero? (Used by the optimizer's branch-direction
    /// value inference: `beq` taken ⇒ value is 0, `bne` not-taken ⇒ 0, …)
    #[inline]
    pub fn implies_zero(self, taken: bool) -> bool {
        match (self, taken) {
            (Cond::Eq, true) => true,
            (Cond::Ne, false) => true,
            (Cond::Le, true) | (Cond::Ge, true) => false, // could be negative/positive
            _ => false,
        }
    }

    /// The mnemonic of the text syntax.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
            Cond::Ge => "bge",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Memory access sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// 1 byte.
    Byte,
    /// 2 bytes.
    Word,
    /// 4 bytes.
    Long,
    /// 8 bytes.
    Quad,
}

impl MemSize {
    /// Every access size, smallest first.
    pub const ALL: [MemSize; 4] = [MemSize::Byte, MemSize::Word, MemSize::Long, MemSize::Quad];

    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            MemSize::Byte => 1,
            MemSize::Word => 2,
            MemSize::Long => 4,
            MemSize::Quad => 8,
        }
    }

    /// Suffix letter used in mnemonics (`ldq`, `stl`, …).
    pub fn suffix(self) -> &'static str {
        match self {
            MemSize::Byte => "b",
            MemSize::Word => "w",
            MemSize::Long => "l",
            MemSize::Quad => "q",
        }
    }

    /// The register value a load of this size produces from the `raw`
    /// bytes it read: sign-extended when `signed`, else as read. The
    /// emulator's loads and the optimizer's store-to-load forwarding both
    /// extend through here, so a forwarded value equals the loaded one.
    #[inline]
    pub fn extend(self, raw: u64, signed: bool) -> u64 {
        if !signed {
            return raw;
        }
        match self {
            MemSize::Byte => raw as u8 as i8 as i64 as u64,
            MemSize::Word => raw as u16 as i16 as i64 as u64,
            MemSize::Long => raw as u32 as i32 as i64 as u64,
            MemSize::Quad => raw,
        }
    }

    /// The low bytes of `v` that a store of this size writes.
    #[inline]
    pub fn truncate(self, v: u64) -> u64 {
        match self {
            MemSize::Byte => v & 0xff,
            MemSize::Word => v & 0xffff,
            MemSize::Long => v & 0xffff_ffff,
            MemSize::Quad => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Addq.eval(u64::MAX, 1), 0);
        assert_eq!(AluOp::Subq.eval(0, 1), u64::MAX);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Bic.eval(0b1111, 0b0101), 0b1010);
        assert_eq!(AluOp::Sll.eval(1, 63), 1 << 63);
        assert_eq!(AluOp::Sll.eval(1, 64), 1, "shift amount taken mod 64");
        assert_eq!(AluOp::Srl.eval(u64::MAX, 63), 1);
        assert_eq!(AluOp::Sra.eval(u64::MAX, 5), u64::MAX);
        assert_eq!(AluOp::S4Addq.eval(3, 10), 22);
        assert_eq!(AluOp::S8Addq.eval(3, 10), 34);
        assert_eq!(AluOp::Mulq.eval(7, 6), 42);
    }

    #[test]
    fn compare_semantics() {
        assert_eq!(AluOp::CmpEq.eval(5, 5), 1);
        assert_eq!(AluOp::CmpEq.eval(5, 6), 0);
        assert_eq!(AluOp::CmpLt.eval(u64::MAX, 0), 1);
        assert_eq!(AluOp::CmpUlt.eval(u64::MAX, 0), 0);
        assert_eq!(AluOp::CmpLe.eval(4, 4), 1);
        assert_eq!(AluOp::CmpUle.eval(5, 4), 0);
    }

    #[test]
    fn simple_classification() {
        assert!(AluOp::Addq.is_simple());
        assert!(AluOp::CmpEq.is_simple());
        assert!(!AluOp::Mulq.is_simple());
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Ne.eval(3));
        assert!(Cond::Ge.eval(0));
        assert!(Cond::Le.eval(0));
        assert!(!Cond::Lt.eval(0));
        assert!(Cond::Gt.eval(1));
    }

    #[test]
    fn cond_zero_inference() {
        assert!(Cond::Eq.implies_zero(true));
        assert!(!Cond::Eq.implies_zero(false));
        assert!(Cond::Ne.implies_zero(false));
        assert!(!Cond::Ne.implies_zero(true));
        assert!(!Cond::Lt.implies_zero(true));
    }

    #[test]
    fn fp_semantics() {
        assert_eq!(FpOp::Mult.eval(3.0, 4.0), 12.0);
        assert_eq!(FpOp::Divt.eval(1.0, 4.0), 0.25);
        assert_eq!(FpOp::Sqrtt.eval(9.0, 0.0), 3.0);
        assert_eq!(FpCmpOp::Tlt.eval(1.0, 2.0), 1);
        assert_eq!(FpCmpOp::Teq.eval(1.0, 2.0), 0);
        assert_eq!(FpCmpOp::Tle.eval(2.0, 2.0), 1);
    }

    #[test]
    fn mem_sizes() {
        assert_eq!(MemSize::Byte.bytes(), 1);
        assert_eq!(MemSize::Word.bytes(), 2);
        assert_eq!(MemSize::Long.bytes(), 4);
        assert_eq!(MemSize::Quad.bytes(), 8);
    }

    #[test]
    fn truncate_and_extend_match_memory_semantics() {
        let v = 0x1234_5678_9abc_def0;
        assert_eq!(MemSize::Byte.truncate(v), 0xf0);
        assert_eq!(MemSize::Word.truncate(v), 0xdef0);
        assert_eq!(MemSize::Long.truncate(v), 0x9abc_def0);
        assert_eq!(MemSize::Byte.extend(0xf0, true), 0xffff_ffff_ffff_fff0);
        assert_eq!(MemSize::Byte.extend(0xf0, false), 0xf0);
        assert_eq!(
            MemSize::Long.extend(0x9abc_def0, true),
            0xffff_ffff_9abc_def0
        );
    }
}
