//! Instruction representation and decode information.
//!
//! Instructions are kept in decoded form (the simulator never needs a binary
//! encoding); each occupies 4 bytes of the simulated address space so that
//! `pc + 4` addresses the next instruction, as on Alpha.

use crate::opcode::{AluOp, Cond, FpCmpOp, FpOp, MemSize};
use crate::reg::{ArchReg, FReg, Reg};
use std::fmt;

/// The second operand of an integer ALU instruction: a register or an
/// immediate.
///
/// Unlike real Alpha (8-bit literals), immediates are full `i64`; the
/// assembler is free to materialize large constants directly. This keeps the
/// synthetic workloads compact without changing anything the optimizer cares
/// about (immediates are architecturally-known constants either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate constant.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// A decoded instruction.
///
/// Branch and call targets hold absolute simulated PCs (the assembler
/// resolves labels to absolute addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Integer operate: `rc = op(ra, rb)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// First source register.
        ra: Reg,
        /// Second source (register or immediate).
        rb: Operand,
        /// Destination register.
        rc: Reg,
    },
    /// Load address: `rc = rb + disp` (Alpha `lda`). A plain single-cycle
    /// add, but kept distinct because it is the canonical address-forming
    /// idiom the optimizer's reassociation targets.
    Lda {
        /// Destination register.
        rc: Reg,
        /// Base register.
        rb: Reg,
        /// Displacement.
        disp: i64,
    },
    /// Integer load: `rc = mem[rb + disp]`, zero-extended unless `signed`.
    Ld {
        /// Access size.
        size: MemSize,
        /// Sign-extend the loaded value.
        signed: bool,
        /// Destination register.
        rc: Reg,
        /// Base register.
        rb: Reg,
        /// Displacement.
        disp: i64,
    },
    /// Integer store: `mem[rb + disp] = ra` (low `size` bytes).
    St {
        /// Access size.
        size: MemSize,
        /// Data source register.
        ra: Reg,
        /// Base register.
        rb: Reg,
        /// Displacement.
        disp: i64,
    },
    /// Floating-point load (8 bytes): `fc = mem[rb + disp]`.
    FLd {
        /// Destination FP register.
        fc: FReg,
        /// Base register.
        rb: Reg,
        /// Displacement.
        disp: i64,
    },
    /// Floating-point store (8 bytes): `mem[rb + disp] = fa`.
    FSt {
        /// Data source FP register.
        fa: FReg,
        /// Base register.
        rb: Reg,
        /// Displacement.
        disp: i64,
    },
    /// Floating-point operate: `fc = op(fa, fb)`.
    FAlu {
        /// Operation.
        op: FpOp,
        /// First source.
        fa: FReg,
        /// Second source.
        fb: FReg,
        /// Destination.
        fc: FReg,
    },
    /// Floating-point compare writing an *integer* boolean: `rc = op(fa, fb)`.
    FCmp {
        /// Comparison.
        op: FpCmpOp,
        /// First source.
        fa: FReg,
        /// Second source.
        fb: FReg,
        /// Integer destination (0 or 1).
        rc: Reg,
    },
    /// Convert integer to double: `fc = ra as f64`.
    Itof {
        /// Integer source.
        ra: Reg,
        /// FP destination.
        fc: FReg,
    },
    /// Convert double to integer (truncating): `rc = fa as i64`.
    Ftoi {
        /// FP source.
        fa: FReg,
        /// Integer destination.
        rc: Reg,
    },
    /// Conditional branch on `ra` compared with zero.
    Br {
        /// Condition.
        cond: Cond,
        /// Tested register.
        ra: Reg,
        /// Absolute target PC.
        target: u64,
    },
    /// Unconditional branch.
    Bru {
        /// Absolute target PC.
        target: u64,
    },
    /// Branch to subroutine: `rd = pc + 4`, jump to `target`.
    Bsr {
        /// Link register.
        rd: Reg,
        /// Absolute target PC.
        target: u64,
    },
    /// Indirect jump: `rd = pc + 4`, jump to the value of `ra`.
    /// Use `rd = r31` for a plain computed jump / return.
    Jmp {
        /// Link register (may be `r31`).
        rd: Reg,
        /// Register holding the target PC.
        ra: Reg,
    },
    /// Stop the machine.
    Halt,
    /// No operation.
    Nop,
}

/// Execution class: which scheduler/functional unit an instruction needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// Single-cycle integer ALU (includes branches and `lda`).
    SimpleInt,
    /// Multi-cycle integer (multiply).
    ComplexInt,
    /// Floating-point unit.
    Fp,
    /// Memory pipeline (address generation + cache access).
    Mem,
    /// Requires no execution resources (`nop`, `halt`).
    None,
}

/// Source registers of an instruction (at most 3: store data + base).
pub type SrcRegs = [Option<ArchReg>; 2];

impl Inst {
    /// The architectural source registers read by this instruction.
    ///
    /// Hardwired-zero registers are still reported (they rename to a constant
    /// in the RAT). At most two sources exist for every instruction in this
    /// ISA: stores read data (`ra`) and base (`rb`); ALU ops read `ra` and
    /// possibly `rb`.
    pub fn srcs(&self) -> SrcRegs {
        match *self {
            Inst::Alu { ra, rb, .. } => {
                let second = match rb {
                    Operand::Reg(r) => Some(ArchReg::from(r)),
                    Operand::Imm(_) => None,
                };
                [Some(ArchReg::from(ra)), second]
            }
            Inst::Lda { rb, .. } => [Some(ArchReg::from(rb)), None],
            Inst::Ld { rb, .. } => [Some(ArchReg::from(rb)), None],
            Inst::St { ra, rb, .. } => [Some(ArchReg::from(ra)), Some(ArchReg::from(rb))],
            Inst::FLd { rb, .. } => [Some(ArchReg::from(rb)), None],
            Inst::FSt { fa, rb, .. } => [Some(ArchReg::from(fa)), Some(ArchReg::from(rb))],
            Inst::FAlu { op, fa, fb, .. } => {
                if matches!(op, FpOp::Cpys | FpOp::Sqrtt) {
                    [Some(ArchReg::from(fa)), None]
                } else {
                    [Some(ArchReg::from(fa)), Some(ArchReg::from(fb))]
                }
            }
            Inst::FCmp { fa, fb, .. } => [Some(ArchReg::from(fa)), Some(ArchReg::from(fb))],
            Inst::Itof { ra, .. } => [Some(ArchReg::from(ra)), None],
            Inst::Ftoi { fa, .. } => [Some(ArchReg::from(fa)), None],
            Inst::Br { ra, .. } => [Some(ArchReg::from(ra)), None],
            Inst::Jmp { ra, .. } => [Some(ArchReg::from(ra)), None],
            Inst::Bru { .. } | Inst::Bsr { .. } | Inst::Halt | Inst::Nop => [None, None],
        }
    }

    /// The architectural destination register written by this instruction,
    /// if any. Writes to hardwired-zero registers are reported as `None`
    /// (they are architecturally discarded).
    pub fn dst(&self) -> Option<ArchReg> {
        let d = match *self {
            Inst::Alu { rc, .. }
            | Inst::Lda { rc, .. }
            | Inst::Ld { rc, .. }
            | Inst::FCmp { rc, .. }
            | Inst::Ftoi { rc, .. } => ArchReg::from(rc),
            Inst::FLd { fc, .. } | Inst::FAlu { fc, .. } | Inst::Itof { fc, .. } => {
                ArchReg::from(fc)
            }
            Inst::Bsr { rd, .. } | Inst::Jmp { rd, .. } => ArchReg::from(rd),
            Inst::St { .. }
            | Inst::FSt { .. }
            | Inst::Br { .. }
            | Inst::Bru { .. }
            | Inst::Halt
            | Inst::Nop => return None,
        };
        (!d.is_zero()).then_some(d)
    }

    /// The execution class (scheduler/FU routing).
    pub fn class(&self) -> ExecClass {
        match self {
            Inst::Alu { op, .. } => {
                if op.is_simple() {
                    ExecClass::SimpleInt
                } else {
                    ExecClass::ComplexInt
                }
            }
            Inst::Lda { .. } => ExecClass::SimpleInt,
            Inst::Ld { .. } | Inst::St { .. } | Inst::FLd { .. } | Inst::FSt { .. } => {
                ExecClass::Mem
            }
            Inst::FAlu { .. } | Inst::FCmp { .. } | Inst::Itof { .. } | Inst::Ftoi { .. } => {
                ExecClass::Fp
            }
            Inst::Br { .. } | Inst::Bru { .. } | Inst::Bsr { .. } | Inst::Jmp { .. } => {
                ExecClass::SimpleInt
            }
            Inst::Halt | Inst::Nop => ExecClass::None,
        }
    }

    /// Whether this is any kind of load.
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Ld { .. } | Inst::FLd { .. })
    }

    /// Whether this is any kind of store.
    #[inline]
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::St { .. } | Inst::FSt { .. })
    }

    /// Whether this is a memory operation (load or store).
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether this instruction can change control flow.
    #[inline]
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::Bru { .. } | Inst::Bsr { .. } | Inst::Jmp { .. }
        )
    }

    /// Whether this is a *conditional* branch.
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Br { .. })
    }

    /// For memory operations, the base register and displacement of the
    /// `base + disp` address specification.
    pub fn mem_addr_spec(&self) -> Option<(Reg, i64)> {
        match *self {
            Inst::Ld { rb, disp, .. }
            | Inst::St { rb, disp, .. }
            | Inst::FLd { rb, disp, .. }
            | Inst::FSt { rb, disp, .. } => Some((rb, disp)),
            _ => None,
        }
    }

    /// For memory operations, the access size in bytes.
    pub fn mem_size(&self) -> Option<MemSize> {
        match *self {
            Inst::Ld { size, .. } | Inst::St { size, .. } => Some(size),
            Inst::FLd { .. } | Inst::FSt { .. } => Some(MemSize::Quad),
            _ => None,
        }
    }
}

/// The text assembler's canonical syntax, with branch targets as absolute
/// hex addresses: `asm_text::parse` of the text gives the instruction
/// back.
impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f, &|_| None)
    }
}

impl Inst {
    /// Writes this instruction in the text assembler's canonical syntax,
    /// each branch target as the `L<index>` label `label` maps it to, or
    /// as an absolute hex address.
    pub(crate) fn write_text(
        &self,
        out: &mut impl fmt::Write,
        label: &dyn Fn(u64) -> Option<usize>,
    ) -> fmt::Result {
        let target = |t: u64| label(t).map_or_else(|| format!("{t:#x}"), |i| format!("L{i}"));
        match *self {
            Inst::Alu { op, ra, rb, rc } => write!(out, "{op} {ra}, {rb}, {rc}"),
            Inst::Lda { rc, rb, disp } => write!(out, "lda {rc}, {disp}({rb})"),
            Inst::Ld {
                size,
                signed,
                rc,
                rb,
                disp,
            } => write!(out, "{} {rc}, {disp}({rb})", load_mnemonic(size, signed)),
            Inst::St { size, ra, rb, disp } => {
                write!(out, "st{} {ra}, {disp}({rb})", size.suffix())
            }
            Inst::FLd { fc, rb, disp } => write!(out, "ldt {fc}, {disp}({rb})"),
            Inst::FSt { fa, rb, disp } => write!(out, "stt {fa}, {disp}({rb})"),
            Inst::FAlu {
                op: FpOp::Cpys,
                fa,
                fb,
                fc,
            } if fa == fb => write!(out, "fmov {fa}, {fc}"),
            Inst::FAlu {
                op: FpOp::Sqrtt,
                fa,
                fb,
                fc,
            } if fa == fb => write!(out, "sqrtt {fa}, {fc}"),
            Inst::FAlu { op, fa, fb, fc } => write!(out, "{op} {fa}, {fb}, {fc}"),
            Inst::FCmp { op, fa, fb, rc } => write!(out, "{op} {fa}, {fb}, {rc}"),
            Inst::Itof { ra, fc } => write!(out, "itof {ra}, {fc}"),
            Inst::Ftoi { fa, rc } => write!(out, "ftoi {fa}, {rc}"),
            Inst::Br {
                cond,
                ra,
                target: t,
            } => write!(out, "{cond} {ra}, {}", target(t)),
            Inst::Bru { target: t } => write!(out, "br {}", target(t)),
            Inst::Bsr { rd, target: t } => write!(out, "bsr {rd}, {}", target(t)),
            Inst::Jmp {
                rd: Reg::R31,
                ra: Reg::RA,
            } => write!(out, "ret"),
            Inst::Jmp { rd, ra } => write!(out, "jmp {rd}, ({ra})"),
            Inst::Halt => write!(out, "halt"),
            Inst::Nop => write!(out, "nop"),
        }
    }
}

/// The text syntax's load mnemonic: `ld` + size letter, plus `s` when the
/// load sign-extends.
pub(crate) fn load_mnemonic(size: MemSize, signed: bool) -> &'static str {
    match (size, signed) {
        (MemSize::Byte, false) => "ldb",
        (MemSize::Byte, true) => "ldbs",
        (MemSize::Word, false) => "ldw",
        (MemSize::Word, true) => "ldws",
        (MemSize::Long, false) => "ldl",
        (MemSize::Long, true) => "ldls",
        (MemSize::Quad, false) => "ldq",
        (MemSize::Quad, true) => "ldqs",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::r;

    #[test]
    fn src_extraction() {
        let add = Inst::Alu {
            op: AluOp::Addq,
            ra: r(1),
            rb: Operand::Reg(r(2)),
            rc: r(3),
        };
        assert_eq!(
            add.srcs(),
            [Some(ArchReg::from(r(1))), Some(ArchReg::from(r(2)))]
        );
        let addi = Inst::Alu {
            op: AluOp::Addq,
            ra: r(1),
            rb: Operand::Imm(4),
            rc: r(3),
        };
        assert_eq!(addi.srcs(), [Some(ArchReg::from(r(1))), None]);
    }

    #[test]
    fn dst_of_zero_writes_is_none() {
        let add = Inst::Alu {
            op: AluOp::Addq,
            ra: r(1),
            rb: Operand::Imm(4),
            rc: Reg::R31,
        };
        assert_eq!(add.dst(), None);
        let st = Inst::St {
            size: MemSize::Quad,
            ra: r(1),
            rb: r(2),
            disp: 0,
        };
        assert_eq!(st.dst(), None);
    }

    #[test]
    fn classes() {
        let mul = Inst::Alu {
            op: AluOp::Mulq,
            ra: r(1),
            rb: Operand::Imm(4),
            rc: r(2),
        };
        assert_eq!(mul.class(), ExecClass::ComplexInt);
        let ld = Inst::Ld {
            size: MemSize::Quad,
            signed: false,
            rc: r(1),
            rb: r(2),
            disp: 8,
        };
        assert_eq!(ld.class(), ExecClass::Mem);
        assert!(ld.is_load());
        assert!(!ld.is_store());
        assert_eq!(ld.mem_addr_spec(), Some((r(2), 8)));
        let br = Inst::Br {
            cond: Cond::Eq,
            ra: r(1),
            target: 0x1000,
        };
        assert_eq!(br.class(), ExecClass::SimpleInt);
        assert!(br.is_control());
        assert!(br.is_cond_branch());
        assert_eq!(Inst::Nop.class(), ExecClass::None);
    }

    #[test]
    fn store_reads_data_and_base() {
        let st = Inst::St {
            size: MemSize::Long,
            ra: r(5),
            rb: r(6),
            disp: -16,
        };
        assert_eq!(
            st.srcs(),
            [Some(ArchReg::from(r(5))), Some(ArchReg::from(r(6)))]
        );
    }

    #[test]
    fn display_roundtrip_smoke() {
        // Each instruction's text is the assembler's syntax: parsing it
        // gives the instruction back, for every form.
        for inst in crate::asm_text::tests::every_instruction_form().insts {
            let back = crate::asm_text::parse(&inst.to_string());
            assert_eq!(back.map(|p| p.insts), Ok(vec![inst]), "{inst}");
        }
        let ld = Inst::Ld {
            size: MemSize::Long,
            signed: true,
            rc: r(1),
            rb: r(2),
            disp: 4,
        };
        assert_eq!(ld.to_string(), "ldls r1, 4(r2)");
        let br = Inst::Br {
            cond: Cond::Ne,
            ra: r(3),
            target: 0x1010,
        };
        assert_eq!(br.to_string(), "bne r3, 0x1010");
    }

    #[test]
    fn fp_srcs_single_operand_ops() {
        use crate::reg::f;
        let sqrt = Inst::FAlu {
            op: FpOp::Sqrtt,
            fa: f(1),
            fb: f(2),
            fc: f(3),
        };
        assert_eq!(sqrt.srcs(), [Some(ArchReg::from(f(1))), None]);
        let cpys = Inst::FAlu {
            op: FpOp::Cpys,
            fa: f(1),
            fb: f(1),
            fc: f(3),
        };
        assert_eq!(cpys.srcs(), [Some(ArchReg::from(f(1))), None]);
    }
}
