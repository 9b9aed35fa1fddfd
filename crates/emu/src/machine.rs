//! The functional interpreter.

use crate::dyninst::DynInst;
use crate::mem_image::MemImage;
use contopt_isa::{Inst, Operand, Program, Reg, STACK_TOP};
use std::fmt;
use std::sync::Arc;

/// Error conditions the emulator can hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// The PC left the code segment (wild jump or fall-off-the-end).
    UnmappedPc(u64),
    /// The dynamic instruction budget was exhausted before `halt`.
    InstLimitExceeded(u64),
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::UnmappedPc(pc) => write!(f, "pc {pc:#x} is outside the code segment"),
            EmuError::InstLimitExceeded(n) => {
                write!(f, "instruction limit of {n} exceeded before halt")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// Result of a single [`Emulator::step`].
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// One instruction committed.
    Inst(DynInst),
    /// The machine has halted; no further instructions will be produced.
    Halted,
}

/// Summary statistics from running a program to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Committed dynamic instructions (including the final `halt`).
    pub insts: u64,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
}

/// The functional emulator: architectural state plus sparse memory.
///
/// # Examples
///
/// ```
/// use contopt_isa::{Asm, r};
/// use contopt_emu::Emulator;
///
/// let mut a = Asm::new();
/// a.li(r(1), 40);
/// a.addq(r(1), 2, r(1));
/// a.halt();
/// let mut emu = Emulator::new(a.finish()?);
/// emu.run_to_halt(100)?;
/// assert_eq!(emu.reg(r(1)), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    program: Arc<Program>,
    mem: MemImage,
    iregs: [u64; 32],
    fregs: [f64; 32],
    pc: u64,
    seq: u64,
    halted: bool,
}

impl Emulator {
    /// Creates an emulator with the program's data segments loaded and the
    /// stack pointer initialized to [`STACK_TOP`].
    ///
    /// Accepts either an owned [`Program`] or a shared `Arc<Program>`; the
    /// program is immutable, so concurrent emulators can share one image.
    pub fn new(program: impl Into<Arc<Program>>) -> Emulator {
        let program = program.into();
        let mut mem = MemImage::new();
        for (addr, bytes) in &program.data {
            mem.write_bytes(*addr, bytes);
        }
        let mut iregs = [0u64; 32];
        iregs[Reg::SP.index()] = STACK_TOP;
        Emulator {
            pc: program.entry,
            program,
            mem,
            iregs,
            fregs: [0.0; 32],
            seq: 0,
            halted: false,
        }
    }

    /// The current PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether the machine has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions committed so far.
    pub fn inst_count(&self) -> u64 {
        self.seq
    }

    /// Reads an integer register (r31 reads as zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.iregs[r.index()]
        }
    }

    /// Reads a floating-point register (f31 reads as zero).
    #[inline]
    pub fn freg(&self, f: contopt_isa::FReg) -> f64 {
        if f.is_zero() {
            0.0
        } else {
            self.fregs[f.index()]
        }
    }

    /// Read-only view of memory (useful in tests to inspect results).
    pub fn mem(&self) -> &MemImage {
        &self.mem
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    #[inline]
    fn write_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.iregs[r.index()] = v;
        }
    }

    #[inline]
    fn write_freg(&mut self, f: contopt_isa::FReg, v: f64) {
        if !f.is_zero() {
            self.fregs[f.index()] = v;
        }
    }

    #[inline]
    fn operand(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v as u64,
        }
    }

    /// Executes one instruction and returns its [`DynInst`] record.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::UnmappedPc`] if the PC leaves the code segment.
    pub fn step(&mut self) -> Result<Step, EmuError> {
        self.exec(Step::Halted, Step::Inst)
    }

    /// Executes one instruction and writes its [`DynInst`] record into
    /// `out`, where the caller keeps it, instead of returning it. Returns
    /// `false`, leaving `out` as it was, once the machine has halted.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::UnmappedPc`] if the PC leaves the code segment.
    pub fn step_into(&mut self, out: &mut DynInst) -> Result<bool, EmuError> {
        self.exec(false, |d| {
            *out = d;
            true
        })
    }

    /// The body of [`step`](Self::step) and [`step_into`](Self::step_into):
    /// returns `halted` once the machine has halted, and otherwise what
    /// `emit` makes of the record. Inlined into each caller, so the record
    /// is built where `emit` puts it, not copied through an intermediate.
    #[inline(always)]
    fn exec<R>(&mut self, halted: R, emit: impl FnOnce(DynInst) -> R) -> Result<R, EmuError> {
        if self.halted {
            return Ok(halted);
        }
        let pc = self.pc;
        let inst = *self.program.inst_at(pc).ok_or(EmuError::UnmappedPc(pc))?;

        let mut result: Option<u64> = None;
        let mut eff_addr: Option<u64> = None;
        let mut store_value: Option<u64> = None;
        let mut taken = false;
        let mut next_pc = pc.wrapping_add(4);

        match inst {
            Inst::Alu { op, ra, rb, rc } => {
                let v = op.eval(self.reg(ra), self.operand(rb));
                self.write_reg(rc, v);
                result = Some(v);
            }
            Inst::Lda { rc, rb, disp } => {
                let v = self.reg(rb).wrapping_add(disp as u64);
                self.write_reg(rc, v);
                result = Some(v);
            }
            Inst::Ld {
                size,
                signed,
                rc,
                rb,
                disp,
            } => {
                let addr = self.reg(rb).wrapping_add(disp as u64);
                let raw = self.mem.read_le(addr, size.bytes());
                let v = size.extend(raw, signed);
                self.write_reg(rc, v);
                result = Some(v);
                eff_addr = Some(addr);
            }
            Inst::St { size, ra, rb, disp } => {
                let addr = self.reg(rb).wrapping_add(disp as u64);
                let v = self.reg(ra);
                self.mem.write_le(addr, v, size.bytes());
                eff_addr = Some(addr);
                store_value = Some(size.truncate(v));
            }
            Inst::FLd { fc, rb, disp } => {
                let addr = self.reg(rb).wrapping_add(disp as u64);
                let bits = self.mem.read_u64(addr);
                self.write_freg(fc, f64::from_bits(bits));
                result = Some(bits);
                eff_addr = Some(addr);
            }
            Inst::FSt { fa, rb, disp } => {
                let addr = self.reg(rb).wrapping_add(disp as u64);
                let bits = self.freg(fa).to_bits();
                self.mem.write_u64(addr, bits);
                eff_addr = Some(addr);
                store_value = Some(bits);
            }
            Inst::FAlu { op, fa, fb, fc } => {
                let v = op.eval(self.freg(fa), self.freg(fb));
                self.write_freg(fc, v);
                result = Some(v.to_bits());
            }
            Inst::FCmp { op, fa, fb, rc } => {
                let v = op.eval(self.freg(fa), self.freg(fb));
                self.write_reg(rc, v);
                result = Some(v);
            }
            Inst::Itof { ra, fc } => {
                let v = self.reg(ra) as i64 as f64;
                self.write_freg(fc, v);
                result = Some(v.to_bits());
            }
            Inst::Ftoi { fa, rc } => {
                let v = self.freg(fa) as i64 as u64;
                self.write_reg(rc, v);
                result = Some(v);
            }
            Inst::Br { cond, ra, target } => {
                taken = cond.eval(self.reg(ra));
                if taken {
                    next_pc = target;
                }
            }
            Inst::Bru { target } => {
                taken = true;
                next_pc = target;
            }
            Inst::Bsr { rd, target } => {
                let link = pc.wrapping_add(4);
                self.write_reg(rd, link);
                result = Some(link);
                taken = true;
                next_pc = target;
            }
            Inst::Jmp { rd, ra } => {
                let link = pc.wrapping_add(4);
                let target = self.reg(ra);
                self.write_reg(rd, link);
                result = Some(link);
                taken = true;
                next_pc = target;
            }
            Inst::Halt => {
                self.halted = true;
                next_pc = pc;
            }
            Inst::Nop => {}
        }

        // Writes to hardwired-zero registers produce no architectural result.
        if inst.dst().is_none() && !matches!(inst, Inst::St { .. } | Inst::FSt { .. }) {
            if !inst.is_control() {
                result = None;
            } else if !matches!(inst, Inst::Br { .. } | Inst::Bru { .. }) {
                // bsr/jmp to r31: link value discarded
                if let Inst::Bsr { rd, .. } | Inst::Jmp { rd, .. } = inst {
                    if rd.is_zero() {
                        result = None;
                    }
                }
            }
        }

        let d = DynInst {
            seq: self.seq,
            pc,
            inst,
            result,
            eff_addr,
            store_value,
            taken,
            next_pc,
        };
        self.seq += 1;
        self.pc = next_pc;
        Ok(emit(d))
    }

    /// Runs until `halt`, with a dynamic instruction budget.
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::InstLimitExceeded`] if the program does not halt
    /// within `max_insts` instructions, or propagates [`EmuError::UnmappedPc`].
    pub fn run_to_halt(&mut self, max_insts: u64) -> Result<RunSummary, EmuError> {
        let mut summary = RunSummary::default();
        loop {
            if summary.insts >= max_insts {
                return Err(EmuError::InstLimitExceeded(max_insts));
            }
            match self.step()? {
                Step::Halted => return Ok(summary),
                Step::Inst(d) => {
                    summary.insts += 1;
                    if d.inst.is_cond_branch() {
                        summary.cond_branches += 1;
                    }
                    if d.inst.is_load() {
                        summary.loads += 1;
                    }
                    if d.inst.is_store() {
                        summary.stores += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_isa::{f, r, Asm};

    fn run(a: Asm) -> Emulator {
        let mut emu = Emulator::new(a.finish().unwrap());
        emu.run_to_halt(1_000_000).unwrap();
        emu
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut a = Asm::new();
        a.li(r(1), 10);
        a.li(r(2), 32);
        a.addq(r(1), r(2), r(3));
        a.halt();
        let emu = run(a);
        assert_eq!(emu.reg(r(3)), 42);
        assert!(emu.halted());
        assert_eq!(emu.inst_count(), 4);
    }

    #[test]
    fn loop_sums_array() {
        let mut a = Asm::new();
        let arr = a.data_quads(&[10, 20, 30, 40, 50]);
        a.li(r(1), arr as i64);
        a.li(r(2), 5);
        a.li(r(3), 0);
        a.label("loop");
        a.ldq(r(4), r(1), 0);
        a.addq(r(3), r(4), r(3));
        a.lda(r(1), r(1), 8);
        a.subq(r(2), 1, r(2));
        a.bne(r(2), "loop");
        a.halt();
        let emu = run(a);
        assert_eq!(emu.reg(r(3)), 150);
    }

    #[test]
    fn stores_visible_in_memory() {
        let mut a = Asm::new();
        let buf = a.data_zeros(32);
        a.li(r(1), buf as i64);
        a.li(r(2), 0x1234_5678_9abc_def0u64 as i64);
        a.stq(r(2), r(1), 0);
        a.stl(r(2), r(1), 8);
        a.stw(r(2), r(1), 16);
        a.stb(r(2), r(1), 24);
        a.halt();
        let emu = run(a);
        assert_eq!(emu.mem().read_u64(buf), 0x1234_5678_9abc_def0);
        assert_eq!(emu.mem().read_u64(buf + 8), 0x9abc_def0);
        assert_eq!(emu.mem().read_u64(buf + 16), 0xdef0);
        assert_eq!(emu.mem().read_u64(buf + 24), 0xf0);
    }

    #[test]
    fn signed_load_extension() {
        let mut a = Asm::new();
        let d = a.data_longs(&[0xffff_fffe]);
        a.li(r(1), d as i64);
        a.ldls(r(2), r(1), 0);
        a.ldl(r(3), r(1), 0);
        a.halt();
        let emu = run(a);
        assert_eq!(emu.reg(r(2)) as i64, -2);
        assert_eq!(emu.reg(r(3)), 0xffff_fffe);
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new();
        a.li(r(1), 5);
        a.bsr(Reg::RA, "double");
        a.addq(r(1), 1, r(1)); // after return: 10 + 1
        a.halt();
        a.label("double");
        a.addq(r(1), r(1), r(1));
        a.ret();
        let emu = run(a);
        assert_eq!(emu.reg(r(1)), 11);
    }

    #[test]
    fn fp_pipeline() {
        let mut a = Asm::new();
        let d = a.data_f64s(&[1.5, 2.5]);
        let out = a.data_zeros(8);
        a.li(r(1), d as i64);
        a.li(r(2), out as i64);
        a.ldt(f(1), r(1), 0);
        a.ldt(f(2), r(1), 8);
        a.mult(f(1), f(2), f(3));
        a.stt(f(3), r(2), 0);
        a.cmptlt(f(1), f(2), r(3));
        a.halt();
        let emu = run(a);
        assert_eq!(emu.mem().read_f64(out), 3.75);
        assert_eq!(emu.reg(r(3)), 1);
    }

    #[test]
    fn conversions() {
        let mut a = Asm::new();
        a.li(r(1), -7);
        a.itof(r(1), f(1));
        a.ftoi(f(1), r(2));
        a.halt();
        let emu = run(a);
        assert_eq!(emu.reg(r(2)) as i64, -7);
        assert_eq!(emu.freg(f(1)), -7.0);
    }

    #[test]
    fn zero_register_writes_discarded() {
        let mut a = Asm::new();
        a.li(Reg::R31, 99);
        a.addq(Reg::R31, 1, r(1));
        a.halt();
        let emu = run(a);
        assert_eq!(emu.reg(Reg::R31), 0);
        assert_eq!(emu.reg(r(1)), 1);
    }

    #[test]
    fn branch_outcomes_recorded() {
        let mut a = Asm::new();
        a.li(r(1), 0);
        a.beq(r(1), "skip");
        a.li(r(2), 111); // not executed
        a.label("skip");
        a.halt();
        let mut emu = Emulator::new(a.finish().unwrap());
        let mut recs = Vec::new();
        while let Step::Inst(d) = emu.step().unwrap() {
            recs.push(d);
        }
        assert_eq!(recs.len(), 3); // li, beq, halt
        let br = &recs[1];
        assert!(br.taken);
        assert!(br.redirects());
        assert_eq!(br.next_pc, recs[2].pc);
        assert_eq!(emu.reg(r(2)), 0);
    }

    #[test]
    fn wild_jump_is_error() {
        let mut a = Asm::new();
        a.li(r(1), 0x7777_7770);
        a.jmp(Reg::R31, r(1));
        let mut emu = Emulator::new(a.finish().unwrap());
        emu.step().unwrap();
        emu.step().unwrap();
        assert!(matches!(emu.step(), Err(EmuError::UnmappedPc(_))));
    }

    #[test]
    fn inst_limit_enforced() {
        let mut a = Asm::new();
        a.label("forever");
        a.br("forever");
        let mut emu = Emulator::new(a.finish().unwrap());
        assert_eq!(
            emu.run_to_halt(10).unwrap_err(),
            EmuError::InstLimitExceeded(10)
        );
    }

    #[test]
    fn run_summary_counts() {
        let mut a = Asm::new();
        let arr = a.data_quads(&[1, 2]);
        let out = a.data_zeros(8);
        a.li(r(1), arr as i64);
        a.li(r(5), out as i64);
        a.li(r(2), 2);
        a.li(r(3), 0);
        a.label("loop");
        a.ldq(r(4), r(1), 0);
        a.addq(r(3), r(4), r(3));
        a.lda(r(1), r(1), 8);
        a.subq(r(2), 1, r(2));
        a.bne(r(2), "loop");
        a.stq(r(3), r(5), 0);
        a.halt();
        let mut emu = Emulator::new(a.finish().unwrap());
        let s = emu.run_to_halt(1000).unwrap();
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.cond_branches, 2);
        assert_eq!(emu.mem().read_u64(out), 3);
    }
}
