//! A small in-memory assembler for building test programs and synthetic
//! workloads.
//!
//! [`Asm`] is a builder: emit instructions through mnemonic-named methods,
//! place labels with [`Asm::label`], reserve and initialize data with the
//! `data_*` methods, and finally call [`Asm::finish`] to resolve branch
//! targets and obtain a [`Program`].
//!
//! # Examples
//!
//! ```
//! use contopt_isa::{Asm, r, Reg};
//!
//! let mut a = Asm::new();
//! let arr = a.data_quads(&[5, 6, 7]);
//! a.li(r(1), arr as i64);      // pointer
//! a.li(r(2), 3);               // count
//! a.li(r(3), 0);               // sum
//! a.label("loop");
//! a.ldq(r(4), r(1), 0);
//! a.addq(r(3), r(4), r(3));
//! a.lda(r(1), r(1), 8);
//! a.subq(r(2), 1, r(2));
//! a.bne(r(2), "loop");
//! a.halt();
//! let prog = a.finish().expect("labels resolve");
//! assert_eq!(prog.entry, prog.code_base);
//! ```

use crate::inst::{Inst, Operand};
use crate::opcode::{AluOp, Cond, FpCmpOp, FpOp, MemSize};
use crate::reg::{FReg, Reg};
use std::collections::HashMap;
use std::fmt;

/// Default base address of the code segment.
pub const CODE_BASE: u64 = 0x1000;
/// Default base address of the data segment.
pub const DATA_BASE: u64 = 0x10_0000;
/// Default initial stack pointer (stack grows down).
pub const STACK_TOP: u64 = 0x80_0000;

/// A fully assembled program: code, initialized data, and entry point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// Base address of the first instruction.
    pub code_base: u64,
    /// The instruction stream; instruction `i` lives at `code_base + 4*i`.
    pub insts: Vec<Inst>,
    /// Initialized data segments: `(base address, bytes)`.
    pub data: Vec<(u64, Vec<u8>)>,
    /// Entry PC.
    pub entry: u64,
}

impl Program {
    /// The instruction at `pc`, if `pc` lies inside the code segment and is
    /// 4-byte aligned.
    pub fn inst_at(&self, pc: u64) -> Option<&Inst> {
        if pc < self.code_base || (pc - self.code_base) % 4 != 0 {
            return None;
        }
        self.insts.get(((pc - self.code_base) / 4) as usize)
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// Position of a token in assembly source text (1-based line and column).
///
/// Errors raised by the builder API ([`Asm`]) carry no span — they have no
/// source text — while every error from the text assembler
/// ([`crate::asm_text::parse`]) points at the offending token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based source line.
    pub line: u32,
    /// 1-based column of the offending token's first character.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// What went wrong during assembly. Paired with the offending token text
/// (and, for text assembly, a source [`Span`]) in [`AsmError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AsmErrorKind {
    /// A branch or immediate referenced a label that was never defined.
    UndefinedLabel,
    /// The same label was defined twice.
    DuplicateLabel,
    /// A mnemonic that names no instruction, pseudo-instruction, or alias.
    UnknownMnemonic,
    /// A register name outside `r0`–`r31` / `f0`–`f31` (or their aliases),
    /// or an integer register where a float register is required (and vice
    /// versa).
    BadRegister,
    /// An immediate that does not parse or does not fit in a signed 64-bit
    /// value.
    BadImmediate,
    /// An operand list with the wrong shape for its mnemonic (count,
    /// missing `(rb)` base, stray text).
    BadOperand,
    /// An unknown or malformed assembler directive.
    BadDirective,
}

/// Error produced when assembly fails: the error kind, the offending token
/// text, and — when the source was text — the token's line:column span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// What went wrong.
    pub kind: AsmErrorKind,
    /// The offending token, verbatim from the source (a label name for the
    /// builder-API errors).
    pub token: String,
    /// Where the token sits in the source text; `None` for errors from the
    /// [`Asm`] builder, which has no source text.
    pub span: Option<Span>,
}

impl AsmError {
    /// Creates a spanless error (the builder-API form).
    pub fn new(kind: AsmErrorKind, token: impl Into<String>) -> AsmError {
        AsmError {
            kind,
            token: token.into(),
            span: None,
        }
    }

    /// Attaches a source span (the text-assembler form).
    pub fn at(mut self, line: u32, col: u32) -> AsmError {
        self.span = Some(Span { line, col });
        self
    }

    /// Convenience constructor for an undefined-label error.
    pub fn undefined_label(name: impl Into<String>) -> AsmError {
        AsmError::new(AsmErrorKind::UndefinedLabel, name)
    }

    /// Convenience constructor for a duplicate-label error.
    pub fn duplicate_label(name: impl Into<String>) -> AsmError {
        AsmError::new(AsmErrorKind::DuplicateLabel, name)
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(span) = self.span {
            write!(f, "line {span}: ")?;
        }
        let what = match self.kind {
            AsmErrorKind::UndefinedLabel => "undefined label",
            AsmErrorKind::DuplicateLabel => "duplicate label",
            AsmErrorKind::UnknownMnemonic => "unknown mnemonic",
            AsmErrorKind::BadRegister => "invalid register",
            AsmErrorKind::BadImmediate => "invalid or out-of-range immediate",
            AsmErrorKind::BadOperand => "malformed operand",
            AsmErrorKind::BadDirective => "unknown or malformed directive",
        };
        write!(f, "{what} `{}`", self.token)
    }
}

impl std::error::Error for AsmError {}

enum Fixup {
    Br { idx: usize, label: String },
}

/// The program builder. See the [crate documentation](crate) for an example.
pub struct Asm {
    code_base: u64,
    insts: Vec<Inst>,
    labels: HashMap<String, usize>,
    fixups: Vec<Fixup>,
    data: Vec<(u64, Vec<u8>)>,
    data_cursor: u64,
    duplicate: Option<String>,
}

impl Default for Asm {
    fn default() -> Self {
        Asm::new()
    }
}

impl Asm {
    /// Creates an assembler with the default memory layout
    /// ([`CODE_BASE`], [`DATA_BASE`]).
    pub fn new() -> Asm {
        Asm::with_bases(CODE_BASE, DATA_BASE)
    }

    /// Creates an assembler with explicit code and data base addresses.
    pub fn with_bases(code_base: u64, data_base: u64) -> Asm {
        Asm {
            code_base,
            insts: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            data: Vec::new(),
            data_cursor: data_base,
            duplicate: None,
        }
    }

    /// The PC of the *next* instruction to be emitted.
    pub fn here(&self) -> u64 {
        self.code_base + 4 * self.insts.len() as u64
    }

    /// Defines `name` at the current position.
    pub fn label(&mut self, name: &str) -> &mut Asm {
        let idx = self.insts.len();
        if self.labels.insert(name.to_string(), idx).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name.to_string());
        }
        self
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, inst: Inst) -> &mut Asm {
        self.insts.push(inst);
        self
    }

    // ---- data section -------------------------------------------------

    /// Aligns the data cursor to `align` bytes (a power of two).
    pub fn data_align(&mut self, align: u64) -> &mut Asm {
        debug_assert!(align.is_power_of_two());
        self.data_cursor = (self.data_cursor + align - 1) & !(align - 1);
        self
    }

    /// Places raw bytes in the data segment, returning their base address.
    pub fn data_bytes(&mut self, bytes: &[u8]) -> u64 {
        let addr = self.data_cursor;
        self.data.push((addr, bytes.to_vec()));
        self.data_cursor += bytes.len() as u64;
        addr
    }

    /// Places an array of little-endian quadwords, 8-byte aligned; returns
    /// its base address.
    pub fn data_quads(&mut self, vals: &[u64]) -> u64 {
        self.data_align(8);
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.data_bytes(&bytes)
    }

    /// Places an array of little-endian longwords, 4-byte aligned; returns
    /// its base address.
    pub fn data_longs(&mut self, vals: &[u32]) -> u64 {
        self.data_align(4);
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.data_bytes(&bytes)
    }

    /// Places an array of doubles, 8-byte aligned; returns its base address.
    pub fn data_f64s(&mut self, vals: &[f64]) -> u64 {
        self.data_align(8);
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.data_bytes(&bytes)
    }

    /// Reserves `len` zeroed bytes, 8-byte aligned; returns the base address.
    pub fn data_zeros(&mut self, len: u64) -> u64 {
        self.data_align(8);
        let addr = self.data_cursor;
        self.data.push((addr, vec![0u8; len as usize]));
        self.data_cursor += len;
        addr
    }

    // ---- integer ALU ---------------------------------------------------

    fn alu(&mut self, op: AluOp, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.emit(Inst::Alu {
            op,
            ra,
            rb: rb.into(),
            rc,
        })
    }

    /// `rc = ra + rb`.
    pub fn addq(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::Addq, ra, rb, rc)
    }
    /// `rc = ra - rb`.
    pub fn subq(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::Subq, ra, rb, rc)
    }
    /// `rc = ra & rb`.
    pub fn and(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::And, ra, rb, rc)
    }
    /// `rc = ra | rb`.
    pub fn or(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::Or, ra, rb, rc)
    }
    /// `rc = ra ^ rb`.
    pub fn xor(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::Xor, ra, rb, rc)
    }
    /// `rc = ra & !rb`.
    pub fn bic(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::Bic, ra, rb, rc)
    }
    /// `rc = ra << rb`.
    pub fn sll(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::Sll, ra, rb, rc)
    }
    /// `rc = ra >> rb` (logical).
    pub fn srl(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::Srl, ra, rb, rc)
    }
    /// `rc = ra >> rb` (arithmetic).
    pub fn sra(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::Sra, ra, rb, rc)
    }
    /// `rc = (ra << 2) + rb`.
    pub fn s4addq(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::S4Addq, ra, rb, rc)
    }
    /// `rc = (ra << 3) + rb`.
    pub fn s8addq(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::S8Addq, ra, rb, rc)
    }
    /// `rc = ra * rb` (complex integer).
    pub fn mulq(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::Mulq, ra, rb, rc)
    }
    /// `rc = (ra == rb)`.
    pub fn cmpeq(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::CmpEq, ra, rb, rc)
    }
    /// `rc = (ra < rb)` signed.
    pub fn cmplt(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::CmpLt, ra, rb, rc)
    }
    /// `rc = (ra <= rb)` signed.
    pub fn cmple(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::CmpLe, ra, rb, rc)
    }
    /// `rc = (ra < rb)` unsigned.
    pub fn cmpult(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::CmpUlt, ra, rb, rc)
    }
    /// `rc = (ra <= rb)` unsigned.
    pub fn cmpule(&mut self, ra: Reg, rb: impl Into<Operand>, rc: Reg) -> &mut Asm {
        self.alu(AluOp::CmpUle, ra, rb, rc)
    }

    /// `rc = rb + disp` (load address).
    pub fn lda(&mut self, rc: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::Lda { rc, rb, disp })
    }

    /// Load immediate: `rc = imm` (assembles to `lda imm(r31)`).
    pub fn li(&mut self, rc: Reg, imm: i64) -> &mut Asm {
        self.lda(rc, Reg::R31, imm)
    }

    /// Register move: `rc = ra` (assembles to `lda 0(ra)`).
    pub fn mov(&mut self, ra: Reg, rc: Reg) -> &mut Asm {
        self.lda(rc, ra, 0)
    }

    // ---- memory ---------------------------------------------------------

    /// `rc = mem64[rb + disp]`.
    pub fn ldq(&mut self, rc: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::Ld {
            size: MemSize::Quad,
            signed: false,
            rc,
            rb,
            disp,
        })
    }
    /// `rc = zext(mem32[rb + disp])`.
    pub fn ldl(&mut self, rc: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::Ld {
            size: MemSize::Long,
            signed: false,
            rc,
            rb,
            disp,
        })
    }
    /// `rc = sext(mem32[rb + disp])`.
    pub fn ldls(&mut self, rc: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::Ld {
            size: MemSize::Long,
            signed: true,
            rc,
            rb,
            disp,
        })
    }
    /// `rc = zext(mem16[rb + disp])`.
    pub fn ldw(&mut self, rc: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::Ld {
            size: MemSize::Word,
            signed: false,
            rc,
            rb,
            disp,
        })
    }
    /// `rc = zext(mem8[rb + disp])`.
    pub fn ldbu(&mut self, rc: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::Ld {
            size: MemSize::Byte,
            signed: false,
            rc,
            rb,
            disp,
        })
    }
    /// `mem64[rb + disp] = ra`.
    pub fn stq(&mut self, ra: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::St {
            size: MemSize::Quad,
            ra,
            rb,
            disp,
        })
    }
    /// `mem32[rb + disp] = ra`.
    pub fn stl(&mut self, ra: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::St {
            size: MemSize::Long,
            ra,
            rb,
            disp,
        })
    }
    /// `mem16[rb + disp] = ra`.
    pub fn stw(&mut self, ra: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::St {
            size: MemSize::Word,
            ra,
            rb,
            disp,
        })
    }
    /// `mem8[rb + disp] = ra`.
    pub fn stb(&mut self, ra: Reg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::St {
            size: MemSize::Byte,
            ra,
            rb,
            disp,
        })
    }

    // ---- floating point ---------------------------------------------------

    /// `fc = mem_f64[rb + disp]`.
    pub fn ldt(&mut self, fc: FReg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::FLd { fc, rb, disp })
    }
    /// `mem_f64[rb + disp] = fa`.
    pub fn stt(&mut self, fa: FReg, rb: Reg, disp: i64) -> &mut Asm {
        self.emit(Inst::FSt { fa, rb, disp })
    }
    fn falu(&mut self, op: FpOp, fa: FReg, fb: FReg, fc: FReg) -> &mut Asm {
        self.emit(Inst::FAlu { op, fa, fb, fc })
    }
    /// `fc = fa + fb`.
    pub fn addt(&mut self, fa: FReg, fb: FReg, fc: FReg) -> &mut Asm {
        self.falu(FpOp::Addt, fa, fb, fc)
    }
    /// `fc = fa - fb`.
    pub fn subt(&mut self, fa: FReg, fb: FReg, fc: FReg) -> &mut Asm {
        self.falu(FpOp::Subt, fa, fb, fc)
    }
    /// `fc = fa * fb`.
    pub fn mult(&mut self, fa: FReg, fb: FReg, fc: FReg) -> &mut Asm {
        self.falu(FpOp::Mult, fa, fb, fc)
    }
    /// `fc = fa / fb`.
    pub fn divt(&mut self, fa: FReg, fb: FReg, fc: FReg) -> &mut Asm {
        self.falu(FpOp::Divt, fa, fb, fc)
    }
    /// `fc = sqrt(fa)`.
    pub fn sqrtt(&mut self, fa: FReg, fc: FReg) -> &mut Asm {
        self.falu(FpOp::Sqrtt, fa, fa, fc)
    }
    /// `fc = fa` (FP move).
    pub fn fmov(&mut self, fa: FReg, fc: FReg) -> &mut Asm {
        self.falu(FpOp::Cpys, fa, fa, fc)
    }
    /// `rc = (fa == fb)`.
    pub fn cmpteq(&mut self, fa: FReg, fb: FReg, rc: Reg) -> &mut Asm {
        self.emit(Inst::FCmp {
            op: FpCmpOp::Teq,
            fa,
            fb,
            rc,
        })
    }
    /// `rc = (fa < fb)`.
    pub fn cmptlt(&mut self, fa: FReg, fb: FReg, rc: Reg) -> &mut Asm {
        self.emit(Inst::FCmp {
            op: FpCmpOp::Tlt,
            fa,
            fb,
            rc,
        })
    }
    /// `rc = (fa <= fb)`.
    pub fn cmptle(&mut self, fa: FReg, fb: FReg, rc: Reg) -> &mut Asm {
        self.emit(Inst::FCmp {
            op: FpCmpOp::Tle,
            fa,
            fb,
            rc,
        })
    }
    /// `fc = ra as f64`.
    pub fn itof(&mut self, ra: Reg, fc: FReg) -> &mut Asm {
        self.emit(Inst::Itof { ra, fc })
    }
    /// `rc = fa as i64` (truncating).
    pub fn ftoi(&mut self, fa: FReg, rc: Reg) -> &mut Asm {
        self.emit(Inst::Ftoi { fa, rc })
    }

    // ---- control flow ------------------------------------------------------

    fn branch(&mut self, cond: Cond, ra: Reg, label: &str) -> &mut Asm {
        let idx = self.insts.len();
        self.fixups.push(Fixup::Br {
            idx,
            label: label.to_string(),
        });
        self.emit(Inst::Br {
            cond,
            ra,
            target: 0,
        })
    }

    /// Branch to `label` if `ra == 0`.
    pub fn beq(&mut self, ra: Reg, label: &str) -> &mut Asm {
        self.branch(Cond::Eq, ra, label)
    }
    /// Branch to `label` if `ra != 0`.
    pub fn bne(&mut self, ra: Reg, label: &str) -> &mut Asm {
        self.branch(Cond::Ne, ra, label)
    }
    /// Branch to `label` if `ra < 0`.
    pub fn blt(&mut self, ra: Reg, label: &str) -> &mut Asm {
        self.branch(Cond::Lt, ra, label)
    }
    /// Branch to `label` if `ra <= 0`.
    pub fn ble(&mut self, ra: Reg, label: &str) -> &mut Asm {
        self.branch(Cond::Le, ra, label)
    }
    /// Branch to `label` if `ra > 0`.
    pub fn bgt(&mut self, ra: Reg, label: &str) -> &mut Asm {
        self.branch(Cond::Gt, ra, label)
    }
    /// Branch to `label` if `ra >= 0`.
    pub fn bge(&mut self, ra: Reg, label: &str) -> &mut Asm {
        self.branch(Cond::Ge, ra, label)
    }

    /// Unconditional branch to `label`.
    pub fn br(&mut self, label: &str) -> &mut Asm {
        let idx = self.insts.len();
        self.fixups.push(Fixup::Br {
            idx,
            label: label.to_string(),
        });
        self.emit(Inst::Bru { target: 0 })
    }

    /// Call: `rd = pc + 4`, jump to `label`.
    pub fn bsr(&mut self, rd: Reg, label: &str) -> &mut Asm {
        let idx = self.insts.len();
        self.fixups.push(Fixup::Br {
            idx,
            label: label.to_string(),
        });
        self.emit(Inst::Bsr { rd, target: 0 })
    }

    /// Indirect jump through `ra`, linking into `rd` (use `r31` to discard).
    pub fn jmp(&mut self, rd: Reg, ra: Reg) -> &mut Asm {
        self.emit(Inst::Jmp { rd, ra })
    }

    /// Return: jump through the conventional return-address register.
    pub fn ret(&mut self) -> &mut Asm {
        self.jmp(Reg::R31, Reg::RA)
    }

    /// Stops the machine.
    pub fn halt(&mut self) -> &mut Asm {
        self.emit(Inst::Halt)
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Asm {
        self.emit(Inst::Nop)
    }

    /// The absolute address a label will have (labels must already be
    /// defined).
    ///
    /// # Errors
    ///
    /// Returns an [`AsmErrorKind::UndefinedLabel`] error if `name` has not
    /// been defined.
    pub fn label_addr(&self, name: &str) -> Result<u64, AsmError> {
        self.labels
            .get(name)
            .map(|&idx| self.code_base + 4 * idx as u64)
            .ok_or_else(|| AsmError::undefined_label(name))
    }

    /// Resolves all fixups and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns an error if any branch references an undefined label, or if a
    /// label was defined more than once.
    pub fn finish(mut self) -> Result<Program, AsmError> {
        if let Some(dup) = self.duplicate.take() {
            return Err(AsmError::duplicate_label(dup));
        }
        for fixup in &self.fixups {
            let Fixup::Br { idx, label } = fixup;
            let target_idx = *self
                .labels
                .get(label)
                .ok_or_else(|| AsmError::undefined_label(label.clone()))?;
            let target = self.code_base + 4 * target_idx as u64;
            match &mut self.insts[*idx] {
                Inst::Br { target: t, .. }
                | Inst::Bru { target: t }
                | Inst::Bsr { target: t, .. } => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        Ok(Program {
            code_base: self.code_base,
            entry: self.code_base,
            insts: self.insts,
            data: self.data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::r;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Asm::new();
        a.label("top");
        a.addq(r(1), 1, r(1));
        a.bne(r(1), "done");
        a.br("top");
        a.label("done");
        a.halt();
        let p = a.finish().unwrap();
        match p.insts[1] {
            Inst::Br { target, .. } => assert_eq!(target, p.code_base + 12),
            ref other => panic!("expected branch, got {other}"),
        }
        match p.insts[2] {
            Inst::Bru { target } => assert_eq!(target, p.code_base),
            ref other => panic!("expected bru, got {other}"),
        }
    }

    #[test]
    fn undefined_label_is_error() {
        let mut a = Asm::new();
        a.br("nowhere");
        let err = a.finish().unwrap_err();
        assert_eq!(err, AsmError::undefined_label("nowhere"));
        assert_eq!(err.kind, AsmErrorKind::UndefinedLabel);
        assert_eq!(err.token, "nowhere");
        assert_eq!(err.span, None, "builder errors carry no source span");
        assert_eq!(err.to_string(), "undefined label `nowhere`");
    }

    #[test]
    fn duplicate_label_is_error() {
        let mut a = Asm::new();
        a.label("x");
        a.nop();
        a.label("x");
        let err = a.finish().unwrap_err();
        assert_eq!(err, AsmError::duplicate_label("x"));
        assert_eq!(err.to_string(), "duplicate label `x`");
    }

    #[test]
    fn spanned_error_display_points_at_the_token() {
        let err = AsmError::new(AsmErrorKind::UnknownMnemonic, "adq").at(3, 9);
        assert_eq!(err.span, Some(Span { line: 3, col: 9 }));
        assert_eq!(err.to_string(), "line 3:9: unknown mnemonic `adq`");
    }

    #[test]
    fn data_layout_is_aligned_and_disjoint() {
        let mut a = Asm::new();
        let b = a.data_bytes(&[1, 2, 3]);
        let q = a.data_quads(&[42]);
        let f = a.data_f64s(&[1.0]);
        let z = a.data_zeros(16);
        assert_eq!(b, DATA_BASE);
        assert_eq!(q % 8, 0);
        assert!(q >= b + 3);
        assert_eq!(f, q + 8);
        assert_eq!(z, f + 8);
    }

    #[test]
    fn li_and_mov_are_lda_forms() {
        let mut a = Asm::new();
        a.li(r(1), 42);
        a.mov(r(1), r(2));
        let p = a.finish().unwrap();
        assert_eq!(
            p.insts[0],
            Inst::Lda {
                rc: r(1),
                rb: Reg::R31,
                disp: 42
            }
        );
        assert_eq!(
            p.insts[1],
            Inst::Lda {
                rc: r(2),
                rb: r(1),
                disp: 0
            }
        );
    }

    #[test]
    fn inst_at_bounds() {
        let mut a = Asm::new();
        a.nop();
        a.halt();
        let p = a.finish().unwrap();
        assert!(p.inst_at(p.code_base).is_some());
        assert!(p.inst_at(p.code_base + 4).is_some());
        assert!(p.inst_at(p.code_base + 8).is_none());
        assert!(p.inst_at(p.code_base + 1).is_none());
        assert!(p.inst_at(p.code_base - 4).is_none());
    }
}
