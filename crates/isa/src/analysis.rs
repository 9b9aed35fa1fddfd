//! Static verification of [`Program`]s: CFG construction, dataflow, and
//! memory-discipline checks.
//!
//! Every program producer in the workspace — the builder API, the text
//! assembler, scenario `"programs"` blocks, and the differential fuzz
//! generator — funnels a [`Program`] into the simulator. A syntactically
//! valid program can still read registers that were never written, jump past
//! the end of the code segment, scribble over the code image, or spin
//! forever; before this pass those bugs surfaced as hung or garbage
//! simulations. [`verify`] catches them statically, the way LLVM's IR
//! verifier gates every IR producer.
//!
//! The analysis runs in five stages:
//!
//! 1. **CFG construction** — basic blocks split at branch targets and
//!    control-flow instructions. Branch targets outside the code segment or
//!    off the 4-byte instruction grid are [`ErrorKind::WildJump`]s.
//! 2. **Use-before-init** — a forward may-uninitialized dataflow over the
//!    CFG. At entry only the ABI-initialized registers are defined: `sp`
//!    (= [`STACK_TOP`]) and the hardwired zeros `r31`/`f31`. Reading any
//!    other register before a write reaches it is
//!    [`ErrorKind::UseBeforeInit`].
//! 3. **Memory discipline** — the same dataflow propagates known constants
//!    (from `li`/`lda` chains and immediate ALU ops), so many addresses are
//!    resolvable statically. A resolvable access must land inside a declared
//!    data segment or the data/stack window `[DATA_BASE, STACK_TOP]`, and be
//!    naturally aligned for its width ([`ErrorKind::OutOfBounds`],
//!    [`ErrorKind::Misaligned`]).
//! 4. **Reachability** — blocks no path from the entry reaches are
//!    [`WarningKind::UnreachableCode`]; a reachable path that runs past the
//!    last instruction is [`ErrorKind::FallOffEnd`]. Indirect jumps have
//!    statically unknown targets, so a program containing `jmp` downgrades
//!    to partial verification ([`WarningKind::IndirectFlow`]) instead of
//!    reporting false unreachability.
//! 5. **Loop boundedness** — cycles with no exit edge at all are provably
//!    infinite ([`ErrorKind::UnboundedLoop`]). For natural loops with exits,
//!    the counted-loop shape the fuzz generator emits (back edge guarded by
//!    a counter register stepped exactly once per iteration by a constant)
//!    is proved terminating; anything else is downgraded to
//!    [`WarningKind::UnprovableLoop`].
//!
//! Diagnostics are typed ([`AnalysisError`] / [`AnalysisWarning`]) and carry
//! the instruction index and PC, plus a source [`Span`] when the program came
//! from text (see [`crate::asm_text::parse_and_verify`]). Reports render
//! human-readable via [`fmt::Display`], and as canonical JSON through
//! `contopt-sim`'s `ToJson` impl, which builds a `JsonValue`.
//!
//! # Examples
//!
//! ```
//! use contopt_isa::analysis::{verify, ErrorKind};
//! use contopt_isa::asm_text;
//!
//! let p = asm_text::parse("addq r1, 1, r2\nhalt\n").unwrap();
//! let report = verify(&p);
//! assert_eq!(report.errors[0].kind, ErrorKind::UseBeforeInit); // r1 unwritten
//! ```

use crate::asm::{Program, Span, DATA_BASE, STACK_TOP};
use crate::inst::{Inst, Operand};
use crate::opcode::Cond;
use crate::reg::{ArchReg, Reg, NUM_ARCH_REGS};
use std::collections::VecDeque;
use std::fmt;

/// Error-severity finding kinds. Any of these makes a program unfit to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// The entry PC is outside the code segment (or the program is empty).
    BadEntry,
    /// A branch/call target outside the code segment or off the 4-byte grid.
    WildJump,
    /// A reachable path runs past the last instruction.
    FallOffEnd,
    /// A register may be read before any write reaches it.
    UseBeforeInit,
    /// A statically resolvable access lands outside every declared data
    /// segment and the data/stack window.
    OutOfBounds,
    /// A statically resolvable access is not naturally aligned.
    Misaligned,
    /// A cycle with no exit edge: every path through it loops forever.
    UnboundedLoop,
}

impl ErrorKind {
    /// Stable snake_case code used in JSON diagnostics.
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::BadEntry => "bad_entry",
            ErrorKind::WildJump => "wild_jump",
            ErrorKind::FallOffEnd => "fall_off_end",
            ErrorKind::UseBeforeInit => "use_before_init",
            ErrorKind::OutOfBounds => "out_of_bounds",
            ErrorKind::Misaligned => "misaligned",
            ErrorKind::UnboundedLoop => "unbounded_loop",
        }
    }
}

/// Warning-severity finding kinds: suspicious but not disqualifying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WarningKind {
    /// A loop with exits whose boundedness the counted-loop prover cannot
    /// establish.
    UnprovableLoop,
    /// Instructions no path from the entry reaches.
    UnreachableCode,
    /// An indirect jump: targets are statically unknown, so control flow is
    /// only partially verified.
    IndirectFlow,
}

impl WarningKind {
    /// Stable snake_case code used in JSON diagnostics.
    pub fn code(self) -> &'static str {
        match self {
            WarningKind::UnprovableLoop => "unprovable_loop",
            WarningKind::UnreachableCode => "unreachable_code",
            WarningKind::IndirectFlow => "indirect_flow",
        }
    }
}

/// One finding, parameterized by its kind enum (error or warning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic<K> {
    /// What was found.
    pub kind: K,
    /// Index of the offending instruction in [`Program::insts`].
    pub index: usize,
    /// Absolute PC of the offending instruction.
    pub pc: u64,
    /// Source position, when the program was parsed from text.
    pub span: Option<Span>,
    /// Human-readable specifics (register, address, reason).
    pub detail: String,
}

/// An error-severity finding.
pub type AnalysisError = Diagnostic<ErrorKind>;
/// A warning-severity finding.
pub type AnalysisWarning = Diagnostic<WarningKind>;

impl<K: Copy> Diagnostic<K> {
    fn render(&self, f: &mut fmt::Formatter<'_>, severity: &str, code: &str) -> fmt::Result {
        match self.span {
            Some(s) => write!(
                f,
                "{severity}[{code}] {s} (inst {} @ {:#x}): {}",
                self.index, self.pc, self.detail
            ),
            None => write!(
                f,
                "{severity}[{code}] inst {} @ {:#x}: {}",
                self.index, self.pc, self.detail
            ),
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, "error", self.kind.code())
    }
}

impl fmt::Display for AnalysisWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, "warning", self.kind.code())
    }
}

/// The result of verifying one program: typed findings plus CFG statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Error-severity findings, ordered by instruction index.
    pub errors: Vec<AnalysisError>,
    /// Warning-severity findings, ordered by instruction index.
    pub warnings: Vec<AnalysisWarning>,
    /// Static instruction count.
    pub insts: usize,
    /// Number of basic blocks.
    pub blocks: usize,
    /// Blocks reachable from the entry (directly or via indirect flow).
    pub reachable_blocks: usize,
    /// Natural-loop back edges found.
    pub loops: usize,
    /// Back edges proved bounded by the counted-loop shape.
    pub proved_loops: usize,
}

impl AnalysisReport {
    /// Whether any error-severity finding was reported.
    pub fn has_errors(&self) -> bool {
        !self.errors.is_empty()
    }

    /// Whether the program verified with no findings at all.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.warnings.is_empty()
    }

    /// Overall verdict: `"clean"`, `"warnings"`, or `"errors"`.
    pub fn verdict(&self) -> &'static str {
        if self.has_errors() {
            "errors"
        } else if self.warnings.is_empty() {
            "clean"
        } else {
            "warnings"
        }
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verdict: {} ({} error(s), {} warning(s); {} insts, {} blocks, {} reachable, {} loop(s), {} proved bounded)",
            self.verdict(),
            self.errors.len(),
            self.warnings.len(),
            self.insts,
            self.blocks,
            self.reachable_blocks,
            self.loops,
            self.proved_loops
        )?;
        for e in &self.errors {
            writeln!(f, "{e}")?;
        }
        for w in &self.warnings {
            writeln!(f, "{w}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Abstract state
// ---------------------------------------------------------------------------

/// Per-register abstract value for the combined may-uninit + constant
/// propagation dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Abs {
    /// Some path reaches this point without writing the register.
    may_uninit: bool,
    /// The register holds this value on every path (only meaningful when
    /// `may_uninit` is false).
    konst: Option<u64>,
}

impl Abs {
    const UNINIT: Abs = Abs {
        may_uninit: true,
        konst: None,
    };
    const UNKNOWN: Abs = Abs {
        may_uninit: false,
        konst: None,
    };

    fn konst(v: u64) -> Abs {
        Abs {
            may_uninit: false,
            konst: Some(v),
        }
    }

    fn merge(self, other: Abs) -> Abs {
        Abs {
            may_uninit: self.may_uninit || other.may_uninit,
            konst: if self.konst == other.konst {
                self.konst
            } else {
                None
            },
        }
    }
}

type State = [Abs; NUM_ARCH_REGS];

fn entry_state() -> State {
    let mut s = [Abs::UNINIT; NUM_ARCH_REGS];
    s[ArchReg::from(Reg::SP).index()] = Abs::konst(STACK_TOP);
    s[ArchReg::from(Reg::R31).index()] = Abs::konst(0);
    s[ArchReg::from(crate::reg::FReg::F31).index()] = Abs::konst(0);
    s
}

/// The state assumed at blocks only reachable through an indirect jump:
/// everything initialized, nothing known. Optimistic, so partial
/// verification never reports false positives.
fn optimistic_state() -> State {
    let mut s = [Abs::UNKNOWN; NUM_ARCH_REGS];
    s[ArchReg::from(Reg::R31).index()] = Abs::konst(0);
    s[ArchReg::from(crate::reg::FReg::F31).index()] = Abs::konst(0);
    s
}

fn merge_states(into: &mut State, from: &State) -> bool {
    let mut changed = false;
    for (a, b) in into.iter_mut().zip(from.iter()) {
        let merged = a.merge(*b);
        if merged != *a {
            *a = merged;
            changed = true;
        }
    }
    changed
}

fn read(state: &State, r: ArchReg) -> Abs {
    if r.is_zero() {
        Abs::konst(0)
    } else {
        state[r.index()]
    }
}

/// Applies one instruction's register effects to the state. Reads are not
/// checked here (the reporting pass does that); this only models writes.
fn transfer(state: &mut State, inst: &Inst, pc: u64) {
    let value = match *inst {
        Inst::Alu { op, ra, rb, .. } => {
            let a = read(state, ArchReg::from(ra));
            let b = match rb {
                Operand::Reg(r) => read(state, ArchReg::from(r)),
                Operand::Imm(v) => Abs::konst(v as u64),
            };
            match (a.konst, b.konst, a.may_uninit || b.may_uninit) {
                (Some(x), Some(y), false) => Abs::konst(op.eval(x, y)),
                _ => Abs::UNKNOWN,
            }
        }
        Inst::Lda { rb, disp, .. } => {
            let b = read(state, ArchReg::from(rb));
            match (b.konst, b.may_uninit) {
                (Some(x), false) => Abs::konst(x.wrapping_add(disp as u64)),
                _ => Abs::UNKNOWN,
            }
        }
        // The link register holds the return address: a known constant.
        Inst::Bsr { .. } | Inst::Jmp { .. } => Abs::konst(pc.wrapping_add(4)),
        _ => Abs::UNKNOWN,
    };
    if let Some(d) = inst.dst() {
        state[d.index()] = value;
    }
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

/// How an edge refines or perturbs the flowing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refine {
    /// Plain edge: state flows unchanged.
    None,
    /// The edge is only taken when this register is exactly zero
    /// (`beq` taken / `bne` fall-through).
    Zero(Reg),
    /// Call fall-through: the callee may clobber anything, so every register
    /// becomes initialized-unknown (`sp` is assumed callee-saved).
    CallFall,
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    to: usize,
    refine: Refine,
}

#[derive(Debug, Clone, Default)]
struct Block {
    /// First instruction index.
    start: usize,
    /// One past the last instruction index.
    end: usize,
    succs: Vec<Edge>,
}

struct Cfg {
    blocks: Vec<Block>,
    /// Block index for each instruction index.
    block_of: Vec<usize>,
}

/// Context shared by the analysis stages.
struct Analyzer<'a> {
    prog: &'a Program,
    /// One past the last code address; it fits in a `u64`, so no code
    /// address computed below it overflows.
    code_end: u64,
    spans: &'a [Span],
    errors: Vec<AnalysisError>,
    warnings: Vec<AnalysisWarning>,
}

impl<'a> Analyzer<'a> {
    fn span(&self, index: usize) -> Option<Span> {
        self.spans.get(index).copied()
    }

    fn pc(&self, index: usize) -> u64 {
        self.prog.code_base + 4 * index as u64
    }

    fn error(&mut self, kind: ErrorKind, index: usize, detail: String) {
        self.errors.push(AnalysisError {
            kind,
            index,
            pc: self.pc(index),
            span: self.span(index),
            detail,
        });
    }

    fn warn(&mut self, kind: WarningKind, index: usize, detail: String) {
        self.warnings.push(AnalysisWarning {
            kind,
            index,
            pc: self.pc(index),
            span: self.span(index),
            detail,
        });
    }

    /// Valid instruction index for a branch target, or a `WildJump` error.
    fn target_index(&mut self, index: usize, target: u64) -> Option<usize> {
        let (base, end) = (self.prog.code_base, self.code_end);
        if target < base || target >= end {
            self.error(
                ErrorKind::WildJump,
                index,
                format!(
                    "branch target {target:#x} is outside the code segment [{base:#x}, {end:#x})"
                ),
            );
            return None;
        }
        if (target - base) % 4 != 0 {
            self.error(
                ErrorKind::WildJump,
                index,
                format!("branch target {target:#x} is not on an instruction boundary"),
            );
            return None;
        }
        Some(((target - base) / 4) as usize)
    }

    fn build_cfg(&mut self, entry_idx: usize) -> Cfg {
        let n = self.prog.len();
        // Leaders: entry, every valid branch target, every instruction after
        // a control-flow instruction or halt, plus index 0 so blocks tile the
        // whole program (needed for unreachable-code reporting).
        let mut leader = vec![false; n];
        leader[0] = true;
        leader[entry_idx] = true;
        for (i, inst) in self.prog.insts.iter().enumerate() {
            let target = match *inst {
                Inst::Br { target, .. } | Inst::Bru { target } | Inst::Bsr { target, .. } => {
                    Some(target)
                }
                _ => None,
            };
            if let Some(t) = target {
                if let Some(ti) = self.target_index(i, t) {
                    leader[ti] = true;
                }
            }
            if (inst.is_control() || matches!(inst, Inst::Halt)) && i + 1 < n {
                leader[i + 1] = true;
            }
        }
        let mut block_of = vec![0usize; n];
        let mut blocks: Vec<Block> = Vec::new();
        for (i, &l) in leader.iter().enumerate() {
            if l {
                if let Some(b) = blocks.last_mut() {
                    b.end = i;
                }
                blocks.push(Block {
                    start: i,
                    end: n,
                    succs: Vec::new(),
                });
            }
            block_of[i] = blocks.len() - 1;
        }
        // Successor edges from each block's terminator.
        for block in &mut blocks {
            let last = block.end - 1;
            let fall = block.end; // instruction index of fall-through
            let mut succs = Vec::new();
            match self.prog.insts[last] {
                Inst::Br { cond, ra, target } => {
                    // Targets were validated above; re-derive without
                    // re-reporting.
                    if let Some(ti) = self.quiet_target_index(target) {
                        let refine = if cond.implies_zero(true) && !ra.is_zero() {
                            Refine::Zero(ra)
                        } else {
                            Refine::None
                        };
                        succs.push(Edge {
                            to: block_of[ti],
                            refine,
                        });
                    }
                    if fall < self.prog.len() {
                        let refine = if cond.implies_zero(false) && !ra.is_zero() {
                            Refine::Zero(ra)
                        } else {
                            Refine::None
                        };
                        succs.push(Edge {
                            to: block_of[fall],
                            refine,
                        });
                    }
                }
                Inst::Bru { target } => {
                    if let Some(ti) = self.quiet_target_index(target) {
                        succs.push(Edge {
                            to: block_of[ti],
                            refine: Refine::None,
                        });
                    }
                }
                Inst::Bsr { target, .. } => {
                    if let Some(ti) = self.quiet_target_index(target) {
                        succs.push(Edge {
                            to: block_of[ti],
                            refine: Refine::None,
                        });
                    }
                    if fall < self.prog.len() {
                        succs.push(Edge {
                            to: block_of[fall],
                            refine: Refine::CallFall,
                        });
                    }
                }
                Inst::Jmp { .. } | Inst::Halt => {}
                _ => {
                    if fall < self.prog.len() {
                        succs.push(Edge {
                            to: block_of[fall],
                            refine: Refine::None,
                        });
                    }
                }
            }
            block.succs = succs;
        }
        Cfg { blocks, block_of }
    }

    fn quiet_target_index(&self, target: u64) -> Option<usize> {
        let base = self.prog.code_base;
        if target < base || (target - base) % 4 != 0 {
            return None;
        }
        let i = ((target - base) / 4) as usize;
        (i < self.prog.len()).then_some(i)
    }

    /// Whether a reachable path through this block runs past the end of the
    /// code segment.
    fn falls_off_end(&self, block: &Block) -> bool {
        let last = &self.prog.insts[block.end - 1];
        if block.end < self.prog.len() {
            return false;
        }
        match last {
            Inst::Halt | Inst::Jmp { .. } | Inst::Bru { .. } => false,
            // A conditional branch or call at the very end still falls
            // through past the last instruction; anything else runs straight
            // off.
            _ => true,
        }
    }

    // -- Memory discipline ---------------------------------------------------

    fn check_mem(&mut self, index: usize, inst: &Inst, state: &State) {
        let Some((rb, disp)) = inst.mem_addr_spec() else {
            return;
        };
        let Some(size) = inst.mem_size() else {
            return;
        };
        let base = read(state, ArchReg::from(rb));
        let (Some(b), false) = (base.konst, base.may_uninit) else {
            return; // not resolvable at analysis time
        };
        let addr = b.wrapping_add(disp as u64);
        let bytes = size.bytes();
        if addr % bytes != 0 {
            self.error(
                ErrorKind::Misaligned,
                index,
                format!("{bytes}-byte access at {addr:#x} is not {bytes}-byte aligned"),
            );
            return;
        }
        let end = addr.wrapping_add(bytes);
        let in_declared = self
            .prog
            .data
            .iter()
            .any(|(db, bytes_)| addr >= *db && end <= db + bytes_.len() as u64);
        let in_window = addr >= DATA_BASE && end <= STACK_TOP;
        if !in_declared && !in_window {
            self.error(
                ErrorKind::OutOfBounds,
                index,
                format!(
                    "{bytes}-byte access at {addr:#x} is outside every declared data segment and the data/stack window [{DATA_BASE:#x}, {STACK_TOP:#x})"
                ),
            );
        }
    }

    // -- Loop boundedness ----------------------------------------------------

    /// All instruction indices writing `reg` within the given blocks.
    fn writes_in_loop(&self, blocks: &[usize], cfg: &Cfg, reg: Reg) -> Vec<usize> {
        let target = ArchReg::from(reg);
        let mut out = Vec::new();
        for &b in blocks {
            for i in cfg.blocks[b].start..cfg.blocks[b].end {
                if self.prog.insts[i].dst() == Some(target) {
                    out.push(i);
                }
            }
        }
        out
    }

    /// The constant step applied to `reg` by instruction `i`, if it has the
    /// `reg = reg ± imm` shape.
    fn step_of(&self, i: usize, reg: Reg) -> Option<i64> {
        match self.prog.insts[i] {
            Inst::Alu {
                op: crate::opcode::AluOp::Addq,
                ra,
                rb: Operand::Imm(k),
                rc,
            } if ra == reg && rc == reg => Some(k),
            Inst::Alu {
                op: crate::opcode::AluOp::Subq,
                ra,
                rb: Operand::Imm(k),
                rc,
            } if ra == reg && rc == reg => k.checked_neg(),
            Inst::Lda { rc, rb, disp } if rc == reg && rb == reg => Some(disp),
            _ => None,
        }
    }

    /// Whether a loop that *continues* while `cond(counter)` holds, stepping
    /// the counter by `step` each iteration, provably terminates under
    /// wrapping two's-complement arithmetic.
    fn proves_termination(cond: Cond, step: i64) -> bool {
        match cond {
            // Stepping by ±1 visits every value, so it must hit 0.
            Cond::Ne => step == 1 || step == -1,
            // Monotonic decrease from >0 (or ≥0) cannot wrap before
            // crossing zero.
            Cond::Gt | Cond::Ge => step < 0,
            Cond::Lt | Cond::Le => step > 0,
            // Looping only while the counter is exactly zero: one step makes
            // it nonzero.
            Cond::Eq => step != 0,
        }
    }

    /// Tries to prove the natural loop of back edge `tail -> header`
    /// bounded. Returns `Ok(())` on success, `Err(reason)` otherwise.
    fn prove_loop(&self, cfg: &Cfg, tail: usize, header: usize) -> Result<(), String> {
        // Natural loop: header plus everything reaching the tail without
        // passing through the header.
        let mut in_loop = vec![false; cfg.blocks.len()];
        in_loop[header] = true;
        in_loop[tail] = true;
        let preds = predecessors(cfg);
        // Never expand the header's predecessors: the loop is everything
        // that reaches the tail *without* passing through the header.
        let mut work = if tail == header {
            Vec::new()
        } else {
            vec![tail]
        };
        while let Some(b) = work.pop() {
            for &p in &preds[b] {
                if !in_loop[p] {
                    in_loop[p] = true;
                    work.push(p);
                }
            }
        }
        let body: Vec<usize> = (0..cfg.blocks.len()).filter(|&b| in_loop[b]).collect();
        // Candidate guards: the back-edge branch itself (loops while its
        // condition holds), or any conditional branch exiting the loop
        // (loops while the *negated* condition holds).
        let mut candidates: Vec<(Cond, Reg)> = Vec::new();
        let tail_last = cfg.blocks[tail].end - 1;
        if let Inst::Br { cond, ra, target } = self.prog.insts[tail_last] {
            if self.quiet_target_index(target).map(|t| cfg.block_of[t]) == Some(header) {
                candidates.push((cond, ra));
            }
        }
        for &b in &body {
            let last = cfg.blocks[b].end - 1;
            if let Inst::Br { cond, ra, target } = self.prog.insts[last] {
                let taken_out = self
                    .quiet_target_index(target)
                    .map(|t| !in_loop[cfg.block_of[t]])
                    .unwrap_or(true);
                let fall_out = b != tail
                    && (cfg.blocks[b].end >= self.prog.len()
                        || !in_loop[cfg.block_of[cfg.blocks[b].end]]);
                // Exit when taken => the loop continues while !cond holds.
                if taken_out {
                    candidates.push((negate(cond), ra));
                }
                // Exit on fall-through => continues while cond holds.
                if fall_out {
                    candidates.push((cond, ra));
                }
            }
        }
        if candidates.is_empty() {
            return Err("no conditional exit guard found".to_string());
        }
        let mut reasons = Vec::new();
        for (cond, counter) in candidates {
            if counter.is_zero() {
                reasons.push(format!("guard tests the zero register {counter}"));
                continue;
            }
            let writes = self.writes_in_loop(&body, cfg, counter);
            match writes.as_slice() {
                [] => reasons.push(format!("counter {counter} is never stepped in the loop")),
                [one] => match self.step_of(*one, counter) {
                    Some(step) if Self::proves_termination(cond, step) => return Ok(()),
                    Some(step) => reasons.push(format!(
                        "step {step:+} does not force `{} {counter}` to eventually exit",
                        cond.mnemonic()
                    )),
                    None => reasons.push(format!("counter {counter} is not stepped by a constant")),
                },
                many => reasons.push(format!(
                    "counter {counter} is written {} times in the loop",
                    many.len()
                )),
            }
        }
        Err(reasons.join("; "))
    }
}

fn negate(c: Cond) -> Cond {
    match c {
        Cond::Eq => Cond::Ne,
        Cond::Ne => Cond::Eq,
        Cond::Lt => Cond::Ge,
        Cond::Ge => Cond::Lt,
        Cond::Le => Cond::Gt,
        Cond::Gt => Cond::Le,
    }
}

fn predecessors(cfg: &Cfg) -> Vec<Vec<usize>> {
    let mut preds = vec![Vec::new(); cfg.blocks.len()];
    for (b, block) in cfg.blocks.iter().enumerate() {
        for e in &block.succs {
            preds[e.to].push(b);
        }
    }
    preds
}

/// Immediate dominators via the classic iterative dataflow (small CFGs, so
/// the quadratic worst case is irrelevant). `None` = unreachable from entry.
fn dominators(cfg: &Cfg, entry: usize, reachable: &[bool]) -> Vec<Option<usize>> {
    let n = cfg.blocks.len();
    // Reverse-postorder over the reachable subgraph.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut stack = vec![(entry, 0usize)];
    seen[entry] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let succs = &cfg.blocks[b].succs;
        if *i < succs.len() {
            let to = succs[*i].to;
            *i += 1;
            if !seen[to] {
                seen[to] = true;
                stack.push((to, 0));
            }
        } else {
            order.push(b);
            stack.pop();
        }
    }
    order.reverse();
    let mut rpo_num = vec![usize::MAX; n];
    for (i, &b) in order.iter().enumerate() {
        rpo_num[b] = i;
    }
    let preds = predecessors(cfg);
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[entry] = Some(entry);
    let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| -> usize {
        while a != b {
            while rpo_num[a] > rpo_num[b] {
                a = idom[a].unwrap_or(a);
            }
            while rpo_num[b] > rpo_num[a] {
                b = idom[b].unwrap_or(b);
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            if b == entry {
                continue;
            }
            let mut new: Option<usize> = None;
            for &p in &preds[b] {
                if !reachable[p] || idom[p].is_none() {
                    continue;
                }
                new = Some(match new {
                    None => p,
                    Some(cur) => intersect(&idom, cur, p),
                });
            }
            if new.is_some() && new != idom[b] {
                idom[b] = new;
                changed = true;
            }
        }
    }
    idom
}

/// Whether `dom` dominates `b` under the immediate-dominator tree.
fn dominates(idom: &[Option<usize>], dom: usize, mut b: usize) -> bool {
    loop {
        if b == dom {
            return true;
        }
        match idom[b] {
            Some(p) if p != b => b = p,
            _ => return false,
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// The report of a program that cannot be walked at all: one `bad_entry`
/// error.
fn bad_entry(p: &Program, detail: String) -> AnalysisReport {
    AnalysisReport {
        insts: p.len(),
        errors: vec![AnalysisError {
            kind: ErrorKind::BadEntry,
            index: 0,
            pc: p.entry,
            span: None,
            detail,
        }],
        ..AnalysisReport::default()
    }
}

/// Verifies a program, attributing findings to instruction indices only.
pub fn verify(p: &Program) -> AnalysisReport {
    verify_with_spans(p, &[])
}

/// Verifies a program with per-instruction source spans (as produced by
/// [`crate::asm_text::parse_with_spans`]), so findings point back at source
/// lines.
pub fn verify_with_spans(p: &Program, spans: &[Span]) -> AnalysisReport {
    if p.is_empty() {
        return bad_entry(p, "program has no instructions".to_string());
    }
    let (base, entry) = (p.code_base, p.entry);
    let Some(code_end) = base.checked_add(4 * p.len() as u64) else {
        let detail = format!("code segment at {base:#x} runs past the top of memory");
        return bad_entry(p, detail);
    };
    if entry < base || entry >= code_end || (entry - base) % 4 != 0 {
        let detail = format!(
            "entry pc {entry:#x} is outside the code segment [{base:#x}, {code_end:#x}) or misaligned"
        );
        return bad_entry(p, detail);
    }
    let entry_idx = ((entry - base) / 4) as usize;
    let mut a = Analyzer {
        prog: p,
        code_end,
        spans,
        errors: Vec::new(),
        warnings: Vec::new(),
    };
    let mut report = AnalysisReport {
        insts: p.len(),
        ..AnalysisReport::default()
    };

    let cfg = a.build_cfg(entry_idx);
    let entry_block = cfg.block_of[entry_idx];
    report.blocks = cfg.blocks.len();

    // Indirect jumps make full control-flow recovery impossible; note each
    // one and optimistically treat otherwise-unreached blocks as reachable.
    let mut has_jmp = false;
    for (i, inst) in p.insts.iter().enumerate() {
        if let Inst::Jmp { ra, .. } = inst {
            has_jmp = true;
            a.warn(
                WarningKind::IndirectFlow,
                i,
                format!("indirect jump through {ra}: targets are not statically known, control flow is only partially verified"),
            );
        }
    }

    // Direct reachability + dataflow fixpoint (worklist over blocks).
    let nblocks = cfg.blocks.len();
    let mut in_states: Vec<Option<State>> = vec![None; nblocks];
    in_states[entry_block] = Some(entry_state());
    let mut work: VecDeque<usize> = VecDeque::new();
    let mut queued = vec![false; nblocks];
    work.push_back(entry_block);
    queued[entry_block] = true;
    if has_jmp {
        // Blocks with no direct in-edges may still be jump targets.
        let preds = predecessors(&cfg);
        for b in 0..nblocks {
            if b != entry_block && preds[b].is_empty() {
                in_states[b] = Some(optimistic_state());
                work.push_back(b);
                queued[b] = true;
            }
        }
    }
    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let Some(state) = in_states[b] else { continue };
        let mut out = state;
        for i in cfg.blocks[b].start..cfg.blocks[b].end {
            transfer(&mut out, &p.insts[i], a.pc(i));
        }
        for e in &cfg.blocks[b].succs {
            let mut next = out;
            match e.refine {
                Refine::None => {}
                Refine::Zero(r) => next[ArchReg::from(r).index()] = Abs::konst(0),
                Refine::CallFall => {
                    let sp = next[ArchReg::from(Reg::SP).index()];
                    next = optimistic_state();
                    next[ArchReg::from(Reg::SP).index()] = sp;
                }
            }
            let changed = match &mut in_states[e.to] {
                Some(cur) => merge_states(cur, &next),
                slot @ None => {
                    *slot = Some(next);
                    true
                }
            };
            if changed && !queued[e.to] {
                queued[e.to] = true;
                work.push_back(e.to);
            }
        }
    }

    let reachable: Vec<bool> = in_states.iter().map(|s| s.is_some()).collect();
    report.reachable_blocks = reachable.iter().filter(|&&r| r).count();

    // Reporting pass: walk each reachable block from its fixpoint in-state.
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Some(state) = in_states[b] else {
            // Unreachable code is a warning, reported once per block.
            a.warn(
                WarningKind::UnreachableCode,
                block.start,
                format!(
                    "instructions {}..{} are unreachable from the entry",
                    block.start,
                    block.end - 1
                ),
            );
            continue;
        };
        let mut state = state;
        for i in block.start..block.end {
            let inst = &p.insts[i];
            for src in inst.srcs().into_iter().flatten() {
                if !src.is_zero() && state[src.index()].may_uninit {
                    let name = src.to_string();
                    a.error(
                        ErrorKind::UseBeforeInit,
                        i,
                        format!("{name} may be read before initialization"),
                    );
                    // Suppress cascading reports of the same register.
                    state[src.index()] = Abs::UNKNOWN;
                }
            }
            a.check_mem(i, inst, &state);
            transfer(&mut state, inst, a.pc(i));
        }
        if a.falls_off_end(block) {
            a.error(
                ErrorKind::FallOffEnd,
                block.end - 1,
                "control flow falls off the end of the code segment".to_string(),
            );
        }
    }

    // Loop analysis over the directly-reachable subgraph.
    let direct_reach = {
        let mut r = vec![false; nblocks];
        let mut work = vec![entry_block];
        r[entry_block] = true;
        while let Some(b) = work.pop() {
            for e in &cfg.blocks[b].succs {
                if !r[e.to] {
                    r[e.to] = true;
                    work.push(e.to);
                }
            }
        }
        r
    };
    let idom = dominators(&cfg, entry_block, &direct_reach);
    for (b, &reached) in direct_reach.iter().enumerate().take(nblocks) {
        if !reached {
            continue;
        }
        for e in cfg.blocks[b].succs.clone() {
            if !dominates(&idom, e.to, b) {
                continue;
            }
            report.loops += 1;
            match a.prove_loop(&cfg, b, e.to) {
                Ok(()) => report.proved_loops += 1,
                Err(reason) => {
                    let term = cfg.blocks[b].end - 1;
                    a.warn(
                        WarningKind::UnprovableLoop,
                        term,
                        format!("cannot prove loop bounded: {reason}"),
                    );
                }
            }
        }
    }

    // Provably infinite cycles: strongly-connected components with no edge
    // leaving them.
    for scc in sccs(&cfg, &direct_reach) {
        let in_scc = |b: usize| scc.contains(&b);
        let has_exit = scc.iter().any(|&b| {
            cfg.blocks[b].succs.iter().any(|e| !in_scc(e.to))
                || matches!(
                    p.insts[cfg.blocks[b].end - 1],
                    Inst::Halt | Inst::Jmp { .. }
                )
        });
        if !has_exit {
            let term = scc
                .iter()
                .map(|&b| cfg.blocks[b].end - 1)
                .max()
                .unwrap_or(0);
            a.error(
                ErrorKind::UnboundedLoop,
                term,
                "loop has no exit: every path through it cycles forever".to_string(),
            );
        }
    }

    a.errors.sort_by_key(|d| d.index);
    a.warnings.sort_by_key(|d| d.index);
    report.errors = a.errors;
    report.warnings = a.warnings;
    report
}

/// Nontrivial strongly-connected components (size > 1, or a self-loop) of
/// the reachable subgraph, in deterministic order.
fn sccs(cfg: &Cfg, reachable: &[bool]) -> Vec<Vec<usize>> {
    // Iterative Tarjan.
    let n = cfg.blocks.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    for root in 0..n {
        if !reachable[root] || index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut ei)) = call.last_mut() {
            if *ei == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ei < cfg.blocks[v].succs.len() {
                let w = cfg.blocks[v].succs[*ei].to;
                *ei += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let self_loop =
                        comp.len() == 1 && cfg.blocks[v].succs.iter().any(|e| e.to == v);
                    if comp.len() > 1 || self_loop {
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
                call.pop();
                if let Some(&mut (u, _)) = call.last_mut() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::asm_text;
    use crate::reg::{f, r};

    fn verify_src(src: &str) -> AnalysisReport {
        verify(&asm_text::parse(src).expect("parse"))
    }

    #[test]
    fn minimal_clean_program() {
        let rep = verify_src("li r1, 5\naddq r1, 1, r2\nhalt\n");
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.verdict(), "clean");
        assert_eq!(rep.blocks, 1);
        assert_eq!(rep.reachable_blocks, 1);
    }

    #[test]
    fn counted_loop_is_proved() {
        let rep = verify_src(
            "li r1, 10\nli r2, 0\nloop: addq r2, r1, r2\nsubq r1, 1, r1\nbne r1, loop\nhalt\n",
        );
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.loops, 1);
        assert_eq!(rep.proved_loops, 1);
    }

    #[test]
    fn use_before_init_is_an_error() {
        let rep = verify_src("addq r5, 1, r6\nhalt\n");
        assert_eq!(rep.errors.len(), 1);
        assert_eq!(rep.errors[0].kind, ErrorKind::UseBeforeInit);
        assert_eq!(rep.errors[0].index, 0);
        assert!(rep.errors[0].detail.contains("r5"), "{}", rep.errors[0]);
    }

    #[test]
    fn zero_and_sp_are_abi_initialized() {
        let rep = verify_src("addq r31, 1, r1\nlda r2, -8(sp)\nhalt\n");
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn init_on_one_path_only_is_still_flagged() {
        // r2 is written only on the taken path; the join reads it anyway.
        let rep = verify_src("li r1, 1\nbeq r1, skip\nli r2, 7\nskip: addq r2, 1, r3\nhalt\n");
        assert_eq!(rep.errors.len(), 1);
        assert_eq!(rep.errors[0].kind, ErrorKind::UseBeforeInit);
    }

    #[test]
    fn branch_refinement_knows_fallthrough_is_zero() {
        // After `bne r1, out` falls through, r1 == 0, so `8(r1)` resolves to
        // absolute 8 — an out-of-bounds access below the code segment.
        let rep = verify_src("li r1, 0x100000\nbne r1, out\nldq r2, 8(r1)\nout: halt\n");
        assert_eq!(rep.errors.len(), 1);
        assert_eq!(rep.errors[0].kind, ErrorKind::OutOfBounds);
    }

    #[test]
    fn wild_jump_is_an_error() {
        let rep = verify_src("li r1, 1\nbne r1, 0x9000\nhalt\n");
        assert_eq!(rep.errors.len(), 1);
        assert_eq!(rep.errors[0].kind, ErrorKind::WildJump);
        assert_eq!(rep.errors[0].index, 1);
    }

    #[test]
    fn misaligned_target_is_a_wild_jump() {
        let rep = verify_src("br 0x1002\nhalt\n");
        assert_eq!(rep.errors[0].kind, ErrorKind::WildJump);
        assert!(rep.errors[0].detail.contains("boundary"));
    }

    #[test]
    fn fall_off_end_is_an_error() {
        let rep = verify_src("li r1, 5\naddq r1, 1, r2\n");
        assert!(rep.errors.iter().any(|e| e.kind == ErrorKind::FallOffEnd));
    }

    #[test]
    fn empty_program_is_bad_entry() {
        let rep = verify_src("");
        assert_eq!(rep.errors[0].kind, ErrorKind::BadEntry);
    }

    #[test]
    fn oob_store_is_an_error() {
        let rep = verify_src("li r1, 0x10\nstq r31, 0(r1)\nhalt\n");
        assert_eq!(rep.errors.len(), 1);
        assert_eq!(rep.errors[0].kind, ErrorKind::OutOfBounds);
        assert_eq!(rep.errors[0].index, 1);
    }

    #[test]
    fn misaligned_access_is_an_error() {
        let rep = verify_src("li r1, 0x100004\nldq r2, 1(r1)\nhalt\n");
        assert_eq!(rep.errors.len(), 1);
        assert_eq!(rep.errors[0].kind, ErrorKind::Misaligned);
    }

    #[test]
    fn declared_segment_and_stack_are_in_bounds() {
        let rep = verify_src(
            ".data\nbuf: .zero 64\n.text\nli r1, buf\nstq r31, 8(r1)\nstq r31, -8(sp)\nhalt\n",
        );
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn unreachable_code_is_a_warning() {
        let rep = verify_src("halt\nli r1, 1\n");
        assert!(rep.errors.is_empty(), "{rep}");
        assert_eq!(rep.warnings.len(), 1);
        assert_eq!(rep.warnings[0].kind, WarningKind::UnreachableCode);
    }

    #[test]
    fn infinite_loop_is_an_error() {
        let rep = verify_src("spin: br spin\n");
        assert!(rep
            .errors
            .iter()
            .any(|e| e.kind == ErrorKind::UnboundedLoop));
    }

    #[test]
    fn uncounted_loop_is_a_warning() {
        // Loop guard driven by a loaded value: exits exist but can't be
        // proved taken.
        let rep = verify_src(
            ".data\nbuf: .zero 8\n.text\nli r1, buf\nloop: ldq r2, 0(r1)\nbne r2, loop\nhalt\n",
        );
        assert!(rep.errors.is_empty(), "{rep}");
        assert_eq!(rep.warnings.len(), 1);
        assert_eq!(rep.warnings[0].kind, WarningKind::UnprovableLoop);
        assert_eq!(rep.loops, 1);
        assert_eq!(rep.proved_loops, 0);
    }

    #[test]
    fn loop_with_conditional_exit_branch_is_proved() {
        // `br` back edge, counted exit via a forward conditional branch.
        let rep = verify_src("li r1, 8\nloop: subq r1, 1, r1\nbeq r1, done\nbr loop\ndone: halt\n");
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.loops, 1);
        assert_eq!(rep.proved_loops, 1);
    }

    #[test]
    fn indirect_jump_downgrades_to_partial_verification() {
        // The handler at `h` is only reachable through the jmp; no
        // unreachable-code warning, no use-before-init false positives.
        let rep = verify_src("li r1, h\njmp r31, (r1)\nh: li r2, 1\nhalt\n");
        assert!(rep.errors.is_empty(), "{rep}");
        assert_eq!(rep.warnings.len(), 1);
        assert_eq!(rep.warnings[0].kind, WarningKind::IndirectFlow);
    }

    #[test]
    fn call_fallthrough_havocs_but_does_not_uninit() {
        // The callee initializes r1; after the call the caller may read it.
        let rep = verify_src("bsr r26, fn\naddq r1, 1, r2\nhalt\nfn: li r1, 3\njmp r31, (r26)\n");
        assert!(rep.errors.is_empty(), "{rep}");
    }

    #[test]
    fn builder_programs_verify_too() {
        let mut a = Asm::new();
        let arr = a.data_quads(&[5, 6, 7]);
        a.li(r(1), arr as i64);
        a.li(r(2), 3);
        a.li(r(3), 0);
        a.label("loop");
        a.ldq(r(4), r(1), 0);
        a.addq(r(3), r(4), r(3));
        a.lda(r(1), r(1), 8);
        a.subq(r(2), 1, r(2));
        a.bne(r(2), "loop");
        a.halt();
        let rep = verify(&a.finish().expect("assemble"));
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.loops, 1);
        assert_eq!(rep.proved_loops, 1);
    }

    #[test]
    fn fp_use_before_init_is_flagged() {
        let rep = verify_src("addt f1, f2, f3\nhalt\n");
        assert_eq!(rep.errors.len(), 2); // f1 and f2
        assert!(rep
            .errors
            .iter()
            .all(|e| e.kind == ErrorKind::UseBeforeInit));
        let mut a = Asm::new();
        a.itof(r(31), f(1));
        a.addt(f(1), f(31), f(2));
        a.halt();
        let rep = verify(&a.finish().expect("assemble"));
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn spans_attach_to_findings() {
        let (p, spans) =
            asm_text::parse_with_spans("li r1, 1\naddq r9, 1, r2\nhalt\n").expect("parse");
        let rep = verify_with_spans(&p, &spans);
        assert_eq!(rep.errors.len(), 1);
        let span = rep.errors[0].span.expect("span");
        assert_eq!(span.line, 2);
    }

    #[test]
    fn human_rendering_mentions_kind_and_span() {
        let (p, spans) = asm_text::parse_with_spans("addq r9, 1, r2\nhalt\n").expect("parse");
        let rep = verify_with_spans(&p, &spans);
        let text = rep.to_string();
        assert!(text.contains("error[use_before_init] 1:1"), "{text}");
        assert!(text.contains("verdict: errors"), "{text}");
    }
}
