//! The rename/optimize engine driving the four passes.
//!
//! [`Optimizer::rename_bundle`] processes one rename packet exactly as §3
//! of the paper describes; the per-optimization logic lives in the pass
//! modules ([`crate::passes::cp_ra`], [`crate::passes::rle_sf`],
//! [`crate::passes::early_exec`], [`crate::passes::feedback`]) and is
//! switched by the [`OptimizerConfig`]. This module owns the shared
//! engine state — the physical register file, the symbolic RAT, the
//! Memory Bypass Cache, the feedback queue, and the per-bundle
//! serial-dependence bookkeeping (§6.2).
//!
//! Every value the optimizer derives is checked against the functional
//! oracle (the paper's "strict expression and value checking"); a mismatch
//! in the CP/RA path is a simulator bug and panics, while a mismatch on an
//! MBC forward (a stale entry left by a speculative unknown-address store)
//! rejects the forward and invalidates the entry.

use crate::config::OptimizerConfig;
use crate::feedback::FeedbackQueue;
use crate::mbc::{Mbc, MbcStats};
use crate::preg::{PhysReg, PregFile, SrcList};
use crate::rat::SymRat;
use crate::stats::{OptStats, PassStats};
use crate::symval::SymValue;
use contopt_emu::DynInst;
use contopt_isa::{ArchReg, Inst};

/// Where a renamed instruction goes after the rename/optimize stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenamedClass {
    /// Fully handled in the optimizer (early-executed, eliminated, or
    /// resolved); it only occupies a reorder-buffer slot until retirement.
    Done,
    /// Single-cycle integer ALU (includes unresolved branches).
    SimpleInt,
    /// Multi-cycle integer (multiply).
    ComplexInt,
    /// Floating-point unit.
    Fp,
    /// Load: address generation + data-cache access.
    Load,
    /// Store: address generation; data written at retire.
    Store,
}

/// One instruction after rename/optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct Renamed {
    /// Dynamic sequence number (matches the [`DynInst`]).
    pub seq: u64,
    /// Post-optimization routing.
    pub class: RenamedClass,
    /// Physical registers this instruction must wait for before issuing.
    /// Constant-propagated operands are embedded and appear as no
    /// dependence; reassociated operands point at the *earlier* producer.
    /// A consumer reference is held on each and must be released (via
    /// [`Optimizer::release`]) when the instruction completes. Stored
    /// inline ([`SrcList`]) so rename allocates nothing per instruction.
    pub srcs: SrcList,
    /// Destination physical register, if the instruction writes one.
    pub dst: Option<PhysReg>,
    /// Whether `dst` was freshly allocated (`false` for eliminated moves and
    /// forwarded loads that alias an existing register). A producer
    /// reference is held on freshly allocated registers and must be
    /// released when the instruction completes.
    pub dst_new: bool,
    /// The value computed in the optimizer, for early-executed instructions.
    pub early_value: Option<u64>,
    /// Whether a branch was resolved at the optimization stage.
    pub resolved_early: bool,
    /// Whether a load was removed (converted to a move / expression).
    pub load_removed: bool,
    /// Whether a memory op's effective address was generated early.
    pub addr_known: bool,
}

/// A rename request: the dynamic instruction plus what the front end knows.
#[derive(Debug, Clone, Copy)]
pub struct RenameReq {
    /// The oracle record from the functional emulator.
    pub d: DynInst,
    /// Whether the front-end predictor mispredicted this (control)
    /// instruction — the pipeline learns this at fetch from the oracle.
    pub mispredicted: bool,
}

/// A source operand as the optimizer sees it: its current mapping, its
/// symbolic value, and the in-bundle serial costs behind that symbol.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SrcView {
    pub(crate) map: PhysReg,
    pub(crate) sym: SymValue,
    /// Serial rename-stage additions behind this symbol within the current
    /// bundle (0 when the producer is outside the bundle or did no ALU
    /// work).
    pub(crate) adds: u32,
    /// Serial MBC accesses behind this symbol within the current bundle.
    pub(crate) mbcs: u32,
}

/// Per-bundle serial-dependence bookkeeping (§6.2).
///
/// One instance lives in the [`Optimizer`] and is reset at the top of every
/// [`Optimizer::rename_bundle_with`], so the per-cycle rename path reuses
/// its buffers instead of reallocating them.
#[derive(Debug, Clone)]
pub(crate) struct Bundle {
    /// arch-reg index → slot that wrote it in this bundle.
    pub(crate) writer: [Option<u8>; contopt_isa::NUM_ARCH_REGS],
    /// The `writer` entries this bundle set, so `reset` clears only those.
    written: Vec<u8>,
    pub(crate) adds: Vec<u32>,
    pub(crate) mbcs: Vec<u32>,
    /// Aligned addresses written into the MBC this bundle.
    pub(crate) mbc_written: Vec<u64>,
}

impl Default for Bundle {
    fn default() -> Bundle {
        Bundle {
            writer: [None; contopt_isa::NUM_ARCH_REGS],
            written: Vec::new(),
            adds: Vec::new(),
            mbcs: Vec::new(),
            mbc_written: Vec::new(),
        }
    }
}

impl Bundle {
    pub(crate) fn new() -> Bundle {
        Bundle::default()
    }

    /// Empties the bundle, keeping the allocated capacity.
    pub(crate) fn reset(&mut self) {
        for &a in &self.written {
            self.writer[a as usize] = None;
        }
        self.written.clear();
        self.adds.clear();
        self.mbcs.clear();
        self.mbc_written.clear();
    }

    pub(crate) fn costs(&self, a: ArchReg) -> (u32, u32) {
        match self.writer[a.index()] {
            Some(s) => (self.adds[s as usize], self.mbcs[s as usize]),
            None => (0, 0),
        }
    }

    pub(crate) fn record(&mut self, dst: Option<ArchReg>, adds: u32, mbcs: u32) {
        let slot = self.adds.len() as u8;
        self.adds.push(adds);
        self.mbcs.push(mbcs);
        if let Some(a) = dst {
            self.writer[a.index()] = Some(slot);
            self.written.push(a.index() as u8);
        }
    }
}

/// The rename/optimize unit.
///
/// Owns the physical register file, the symbolic RAT, the Memory Bypass
/// Cache, and the value-feedback path. A disabled optimizer (such as
/// [`OptimizerConfig::baseline`]) takes its own plain path through
/// [`rename_bundle_with`](Self::rename_bundle_with): a plain register
/// renamer with no symbolic views, bundle bookkeeping or feedback drain,
/// which renames exactly as the engine does with every mechanism off. So
/// one unit serves both the baseline and the optimized machine.
#[derive(Debug, Clone)]
pub struct Optimizer {
    pub(crate) cfg: OptimizerConfig,
    pub(crate) pregs: PregFile,
    pub(crate) rat: SymRat,
    pub(crate) mbc: Mbc,
    pub(crate) feedback: FeedbackQueue,
    /// Counters, attributed to the pass that earned them; the aggregate
    /// [`OptStats`] is derived as the sum of the blocks, never stored.
    pub(crate) stats: PassStats,
    /// Oracle architectural value of each physical register; used only for
    /// strict value checking, never to drive an optimization.
    pub(crate) oracle: Vec<u64>,
    /// Reusable per-bundle bookkeeping scratch (taken/restored around each
    /// bundle so steady-state rename performs no heap allocation). Boxed so
    /// the take and restore move a pointer, not the whole bundle.
    bundle_scratch: Option<Box<Bundle>>,
}

impl Optimizer {
    /// Creates the unit with `preg_count` physical registers and the given
    /// initial architectural register values.
    pub fn new(
        cfg: OptimizerConfig,
        preg_count: usize,
        initial: impl Fn(ArchReg) -> u64,
    ) -> Optimizer {
        let mut pregs = PregFile::new(preg_count);
        let track_known = cfg.enabled && cfg.optimize;
        let rat = SymRat::new(&mut pregs, &initial, track_known);
        let mut oracle = vec![0u64; preg_count];
        for i in 0..contopt_isa::NUM_ARCH_REGS {
            let a = ArchReg::from_index(i);
            oracle[rat.map(a).index()] = if a.is_zero() { 0 } else { initial(a) };
        }
        Optimizer {
            // Sized from the normalized config: the size of an inactive
            // MBC is inert and need not be a valid one.
            mbc: Mbc::new(cfg.normalized().mbc_entries, &pregs),
            cfg,
            pregs,
            rat,
            feedback: FeedbackQueue::new(),
            stats: PassStats::default(),
            oracle,
            bundle_scratch: Some(Box::new(Bundle::new())),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// Aggregate optimizer statistics (Table 3 counters): the sum of the
    /// per-pass blocks in [`pass_stats`](Self::pass_stats).
    pub fn stats(&self) -> OptStats {
        self.stats.total()
    }

    /// Optimizer statistics attributed to the pass unit that earned them.
    pub fn pass_stats(&self) -> PassStats {
        self.stats
    }

    /// Memory Bypass Cache statistics.
    pub fn mbc_stats(&self) -> MbcStats {
        self.mbc.stats()
    }

    /// The physical register file (for capacity/occupancy reporting).
    pub fn pregs(&self) -> &PregFile {
        &self.pregs
    }

    /// Current RAT mapping (for tests and the retirement checker).
    pub fn rat_map(&self, a: ArchReg) -> PhysReg {
        self.rat.map(a)
    }

    /// Current RAT symbol (for tests).
    pub fn rat_sym(&self, a: ArchReg) -> SymValue {
        self.rat.sym(a)
    }

    /// Whether at least one physical register is free (rename can proceed).
    pub fn can_rename(&self) -> bool {
        self.pregs.live_count() < self.pregs.capacity()
    }

    /// Releases one reference (consumer or producer claim) on `p`.
    pub fn release(&mut self, p: PhysReg) {
        self.pregs.release(p);
    }

    /// Renames (and, when enabled, optimizes) one bundle of up to
    /// rename-width instructions. Returns the renamed instructions in
    /// order; stops short if the physical register pool is exhausted
    /// (the pipeline retries the remainder next cycle).
    pub fn rename_bundle(&mut self, now: u64, reqs: &[RenameReq]) -> Vec<Renamed> {
        let mut out = Vec::with_capacity(reqs.len());
        self.rename_bundle_into(now, reqs, &mut out);
        out
    }

    /// Allocation-free variant of [`rename_bundle`](Self::rename_bundle):
    /// appends the renamed instructions to `out` (which the caller clears
    /// and reuses across cycles) and recycles the internal per-bundle
    /// scratch, so steady-state rename performs no heap allocation.
    pub fn rename_bundle_into(&mut self, now: u64, reqs: &[RenameReq], out: &mut Vec<Renamed>) {
        self.rename_bundle_with(now, reqs, |r| out.push(r));
    }

    /// Renames one bundle like [`rename_bundle`](Self::rename_bundle), but
    /// hands each renamed instruction, in order, to `sink`, so a caller can
    /// write it where it keeps it instead of collecting the bundle first.
    pub fn rename_bundle_with(
        &mut self,
        now: u64,
        reqs: &[RenameReq],
        mut sink: impl FnMut(Renamed),
    ) {
        if !self.cfg.enabled {
            for req in reqs {
                if !self.can_rename() {
                    break;
                }
                sink(self.rename_plain(req));
            }
            return;
        }
        self.apply_feedback(now);
        // Discrete (offline-style) optimization: invalidate the tables at
        // every trace boundary (§3.4).
        let interval = self.cfg.discrete_interval;
        if interval > 0 && self.optimizing() {
            let before = self.stats.engine.insts / interval;
            let after = (self.stats.engine.insts + reqs.len() as u64) / interval;
            if after > before {
                self.rat.invalidate_syms(&mut self.pregs);
                self.mbc.flush(&mut self.pregs);
                self.stats.engine.trace_resets += 1;
            }
        }
        let mut bundle = self.bundle_scratch.take().unwrap_or_default();
        bundle.reset();
        for req in reqs {
            if !self.can_rename() {
                break;
            }
            sink(self.process(req, &mut bundle));
        }
        self.bundle_scratch = Some(bundle);
    }

    /// The disabled optimizer's renamer: maps each source and takes its
    /// consumer claim, allocates and maps the destination, and counts the
    /// stream. Nothing is symbolic here, so every source is a dependence and
    /// every instruction with work goes to its unoptimized scheduler.
    #[expect(
        clippy::expect_used,
        reason = "rename gate guarantees a free physical register"
    )]
    fn rename_plain(&mut self, req: &RenameReq) -> Renamed {
        let d = &req.d;
        let engine = &mut self.stats.engine;
        engine.insts += 1;
        let class = match d.inst {
            Inst::Alu { op, .. } if !op.is_simple() => RenamedClass::ComplexInt,
            Inst::Alu { .. } | Inst::Lda { .. } | Inst::Bsr { .. } => RenamedClass::SimpleInt,
            Inst::Ld { .. } | Inst::FLd { .. } => {
                engine.mem_ops += 1;
                engine.loads += 1;
                RenamedClass::Load
            }
            Inst::St { .. } | Inst::FSt { .. } => {
                engine.mem_ops += 1;
                RenamedClass::Store
            }
            Inst::Br { .. } | Inst::Jmp { .. } => {
                engine.mispredicted_branches += u64::from(req.mispredicted);
                RenamedClass::SimpleInt
            }
            Inst::FAlu { .. } | Inst::FCmp { .. } | Inst::Itof { .. } | Inst::Ftoi { .. } => {
                RenamedClass::Fp
            }
            Inst::Bru { .. } | Inst::Halt | Inst::Nop => RenamedClass::Done,
        };
        let mut srcs = SrcList::new();
        for a in d.inst.srcs().into_iter().flatten() {
            let p = self.rat.map(a);
            self.pregs.add_ref(p);
            srcs.push(p);
        }
        let dst = d.inst.dst().map(|a| {
            let p = self.pregs.alloc().expect("caller checked can_rename");
            self.rat.write(a, p, SymValue::reg(p), &mut self.pregs);
            p
        });
        Renamed {
            seq: d.seq,
            class,
            srcs,
            dst,
            dst_new: dst.is_some(),
            early_value: None,
            resolved_early: false,
            load_removed: false,
            addr_known: false,
        }
    }

    // ---- shared engine internals ----------------------------------------

    pub(crate) fn view(&self, a: ArchReg, bundle: &Bundle) -> SrcView {
        let (adds, mbcs) = bundle.costs(a);
        SrcView {
            map: self.rat.map(a),
            sym: self.rat.sym(a),
            adds,
            mbcs,
        }
    }

    /// Downgrades a source to its plain mapping (ignoring in-bundle symbolic
    /// state) — used when the serial-addition budget is exceeded.
    pub(crate) fn plain(v: &SrcView) -> SrcView {
        SrcView {
            map: v.map,
            sym: SymValue::reg(v.map),
            adds: 0,
            mbcs: 0,
        }
    }

    pub(crate) fn optimizing(&self) -> bool {
        self.cfg.enabled && self.cfg.optimize
    }

    /// In feedback-only mode, symbolic expressions may not be derived; only
    /// fully-known results (from fed-back values and immediates) are used.
    pub(crate) fn allow_expr(&self) -> bool {
        self.optimizing() && self.cfg.enable_reassociation
    }

    /// Whether fully-known results may complete on the rename-stage ALUs
    /// (the [`crate::PassId::EarlyExec`] pass is on).
    pub(crate) fn early_exec_ok(&self) -> bool {
        self.cfg.enabled && self.cfg.enable_early_exec
    }

    pub(crate) fn verify(&self, what: &str, d: &DynInst, got: u64) {
        let want = d.result.unwrap_or_else(|| {
            panic!(
                "strict check: {what} produced a value for {} which has none",
                d.inst
            )
        });
        assert_eq!(
            got, want,
            "strict value check failed ({what}) at pc {:#x} for `{}`: optimizer {got:#x} != oracle {want:#x}",
            d.pc, d.inst
        );
    }

    #[expect(
        clippy::expect_used,
        reason = "rename gate guarantees a free physical register"
    )]
    pub(crate) fn alloc_dst(&mut self, d: &DynInst) -> PhysReg {
        let p = self.pregs.alloc().expect("caller checked can_rename");
        self.oracle[p.index()] = d.result.unwrap_or(0);
        p
    }

    /// Take consumer references on the dependence registers.
    pub(crate) fn hold_srcs(&mut self, srcs: &[PhysReg]) {
        for &p in srcs {
            self.pregs.add_ref(p);
        }
    }

    /// Builds the [`Renamed`] record. Consumer references on `srcs` must
    /// already have been taken (via [`Self::hold_srcs`]) *before* any RAT or
    /// MBC mutation that could release those registers.
    pub(crate) fn renamed(
        &mut self,
        d: &DynInst,
        class: RenamedClass,
        srcs: SrcList,
        dst: Option<PhysReg>,
        dst_new: bool,
    ) -> Renamed {
        Renamed {
            seq: d.seq,
            class,
            srcs,
            dst,
            dst_new,
            early_value: None,
            resolved_early: false,
            load_removed: false,
            addr_known: false,
        }
    }

    fn process(&mut self, req: &RenameReq, bundle: &mut Bundle) -> Renamed {
        let d = &req.d;
        self.stats.engine.insts += 1;
        match d.inst {
            Inst::Alu { op, ra, rb, rc } => self.process_alu(req, op, ra, rb, rc, bundle),
            Inst::Lda { rc, rb, disp } => self.process_lda(req, rc, rb, disp, bundle),
            Inst::Ld { .. } | Inst::FLd { .. } => self.process_load(req, bundle),
            Inst::St { .. } | Inst::FSt { .. } => self.process_store(req, bundle),
            Inst::Br { cond, ra, .. } => self.process_branch(req, cond, ra, bundle),
            Inst::Bru { .. } => {
                bundle.record(None, 0, 0);
                self.renamed(d, RenamedClass::Done, SrcList::new(), None, false)
            }
            Inst::Bsr { .. } | Inst::Jmp { .. } => self.process_call(req, bundle),
            Inst::FAlu { .. } | Inst::FCmp { .. } | Inst::Itof { .. } | Inst::Ftoi { .. } => {
                self.process_fp(req, bundle)
            }
            Inst::Halt | Inst::Nop => {
                bundle.record(None, 0, 0);
                self.renamed(d, RenamedClass::Done, SrcList::new(), None, false)
            }
        }
    }

    /// Plain renaming of an instruction: map sources, allocate a fresh
    /// destination with a self-referencing symbol. Dependences on
    /// known-valued sources are still dropped (constant propagation into
    /// otherwise-unoptimizable instructions).
    pub(crate) fn process_plain(
        &mut self,
        d: &DynInst,
        class: RenamedClass,
        bundle: &mut Bundle,
    ) -> Renamed {
        let mut srcs = SrcList::new();
        for a in d.inst.srcs().into_iter().flatten() {
            let v = self.view(a, bundle);
            if v.sym.known().is_none() {
                srcs.push(v.map);
            }
        }
        self.hold_srcs(&srcs);
        let (dst, dst_new) = match d.inst.dst() {
            Some(a) => {
                let p = self.alloc_dst(d);
                self.rat.write(a, p, SymValue::reg(p), &mut self.pregs);
                (Some(p), true)
            }
            None => (None, false),
        };
        bundle.record(d.inst.dst(), 0, 0);
        self.renamed(d, class, srcs, dst, dst_new)
    }

    /// Plain renaming that additionally records a *derived* known value for
    /// the destination: used when a pass derives a constant but the
    /// EarlyExec pass is absent, so the instruction still executes in the
    /// core while younger instructions see the knowledge (verified against
    /// the oracle before it enters the RAT). `adds` is the serial
    /// rename-adder cost of the derivation, charged to the bundle so chain
    /// budgets stay honest.
    pub(crate) fn process_plain_known(
        &mut self,
        d: &DynInst,
        class: RenamedClass,
        value: u64,
        adds: u32,
        bundle: &mut Bundle,
    ) -> Renamed {
        let mut srcs = SrcList::new();
        for a in d.inst.srcs().into_iter().flatten() {
            let v = self.view(a, bundle);
            if v.sym.known().is_none() {
                srcs.push(v.map);
            }
        }
        self.hold_srcs(&srcs);
        let (dst, dst_new) = match d.inst.dst() {
            Some(a) => {
                self.verify("derived known", d, value);
                let p = self.alloc_dst(d);
                self.rat
                    .write(a, p, SymValue::Known(value), &mut self.pregs);
                (Some(p), true)
            }
            None => (None, false),
        };
        bundle.record(d.inst.dst(), adds, 0);
        self.renamed(d, class, srcs, dst, dst_new)
    }

    pub(crate) fn process_fp(&mut self, req: &RenameReq, bundle: &mut Bundle) -> Renamed {
        self.process_plain(&req.d, RenamedClass::Fp, bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizerConfig;
    use contopt_emu::{Emulator, Step};
    use contopt_isa::{r, ArchReg, Asm};

    /// Runs a program functionally and returns its dynamic stream.
    fn stream(a: Asm) -> Vec<DynInst> {
        let mut emu = Emulator::new(a.finish().expect("assembles"));
        let mut out = Vec::new();
        loop {
            match emu.step().expect("executes") {
                Step::Inst(d) => out.push(d),
                Step::Halted => return out,
            }
        }
    }

    fn opt_default() -> Optimizer {
        Optimizer::new(OptimizerConfig::default(), 4096, |_| 0)
    }

    /// Renames one instruction per bundle (no intra-bundle limits apply),
    /// completing every new destination `lat` cycles later.
    fn rename_all(opt: &mut Optimizer, ds: &[DynInst], lat: u64) -> Vec<Renamed> {
        let mut out = Vec::new();
        for (cycle, &d) in ds.iter().enumerate() {
            let r = opt
                .rename_bundle(
                    cycle as u64,
                    &[RenameReq {
                        d,
                        mispredicted: false,
                    }],
                )
                .remove(0);
            if let (Some(p), true) = (r.dst, r.dst_new) {
                opt.complete(p, d.result.unwrap_or(0), cycle as u64 + lat);
                opt.release(p);
            }
            for &p in &r.srcs {
                opt.release(p);
            }
            out.push(r);
        }
        out
    }

    #[test]
    fn li_and_dependent_add_execute_early() {
        let mut a = Asm::new();
        a.li(r(1), 40);
        a.addq(r(1), 2, r(2));
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 1);
        assert_eq!(rs[0].class, RenamedClass::Done);
        assert_eq!(rs[0].early_value, Some(40));
        assert_eq!(rs[1].early_value, Some(42));
        assert_eq!(opt.stats().executed_early, 2);
    }

    #[test]
    fn move_elimination_aliases_the_producer() {
        let mut a = Asm::new();
        let buf = a.data_zeros(8);
        a.li(r(5), buf as i64);
        a.ldq(r(1), r(5), 0); // unknown value
        a.mov(r(1), r(2));
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 1);
        let load_dst = rs[1].dst.expect("load writes");
        assert_eq!(rs[2].class, RenamedClass::Done);
        assert!(!rs[2].dst_new, "move elimination reuses the producer");
        assert_eq!(rs[2].dst, Some(load_dst));
        assert_eq!(opt.stats().moves_eliminated, 1);
        assert_eq!(
            opt.rat_map(ArchReg::from(r(2))),
            load_dst,
            "both architectural registers name one physical register"
        );
    }

    #[test]
    fn simplified_add_depends_on_the_earlier_producer() {
        // ld -> r1; r2 = r1 + 8; r3 = r2 + 8. The second add's dependence
        // must be redirected to the *load's* register (tree-height
        // reduction), not to r2's.
        let mut a = Asm::new();
        let buf = a.data_zeros(8);
        a.li(r(5), buf as i64);
        a.ldq(r(1), r(5), 0);
        a.addq(r(1), 8, r(2));
        a.addq(r(2), 8, r(3));
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 100);
        let load_dst = rs[1].dst.unwrap();
        assert_eq!(rs[2].srcs.as_slice(), &[load_dst]);
        assert_eq!(rs[3].srcs.as_slice(), &[load_dst], "reassociated past r2");
        assert_eq!(
            opt.rat_sym(ArchReg::from(r(3))),
            SymValue::Expr {
                base: load_dst,
                scale: 0,
                offset: 16
            }
        );
    }

    #[test]
    fn rle_forwards_the_second_load() {
        let mut a = Asm::new();
        let buf = a.data_quads(&[99]);
        a.li(r(5), buf as i64);
        a.ldq(r(1), r(5), 0);
        a.ldq(r(2), r(5), 0);
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 100);
        assert_eq!(rs[1].class, RenamedClass::Load);
        assert!(rs[1].addr_known);
        assert_eq!(rs[2].class, RenamedClass::Done, "second load removed");
        assert!(rs[2].load_removed);
        assert_eq!(rs[2].dst, rs[1].dst, "aliases the first load");
        assert_eq!(opt.stats().loads_removed, 1);
    }

    #[test]
    fn store_forward_with_known_data_executes_load_early() {
        let mut a = Asm::new();
        let buf = a.data_zeros(8);
        a.li(r(5), buf as i64);
        a.li(r(1), 1234);
        a.stq(r(1), r(5), 0);
        a.ldq(r(2), r(5), 0);
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 100);
        assert_eq!(rs[3].class, RenamedClass::Done);
        assert_eq!(rs[3].early_value, Some(1234));
        assert!(rs[3].load_removed);
    }

    #[test]
    fn known_address_loads_have_no_register_dependences() {
        let mut a = Asm::new();
        let buf = a.data_zeros(64);
        a.li(r(5), buf as i64);
        a.ldq(r(1), r(5), 16);
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 100);
        assert!(rs[1].addr_known);
        assert!(
            rs[1].srcs.is_empty(),
            "address embedded, no agen dependence"
        );
        assert_eq!(opt.stats().mem_addr_generated, 1);
    }

    #[test]
    fn branch_with_known_input_resolves_early() {
        let mut a = Asm::new();
        a.li(r(1), 0);
        a.beq(r(1), "target");
        a.nop();
        a.label("target");
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 1);
        assert!(rs[1].resolved_early);
        assert_eq!(rs[1].class, RenamedClass::Done);
        assert_eq!(opt.stats().branches_resolved_early, 1);
    }

    #[test]
    fn value_feedback_converts_consumers() {
        // A load's value becomes known via feedback; a later consumer of the
        // same register executes early.
        let mut a = Asm::new();
        let buf = a.data_quads(&[50]);
        a.li(r(5), buf as i64);
        a.ldq(r(1), r(5), 0);
        for _ in 0..12 {
            a.nop(); // give the feedback time to arrive
        }
        a.addq(r(1), 1, r(2));
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 3);
        let add = &rs[rs.len() - 2];
        assert_eq!(add.early_value, Some(51), "fed-back value propagates");
        assert!(opt.stats().feedback_integrations > 0);
    }

    #[test]
    fn feedback_only_mode_does_not_propagate_constants() {
        let mut a = Asm::new();
        a.li(r(1), 40);
        a.addq(r(1), 2, r(2));
        a.halt();
        let mut opt = Optimizer::new(OptimizerConfig::feedback_only(), 4096, |_| 0);
        let rs = rename_all(&mut opt, &stream(a), 100);
        assert_eq!(rs[0].class, RenamedClass::SimpleInt, "li is not folded");
        assert_eq!(rs[1].class, RenamedClass::SimpleInt);
        assert_eq!(opt.stats().executed_early, 0);
    }

    #[test]
    fn baseline_mode_is_a_plain_renamer() {
        let mut a = Asm::new();
        a.li(r(1), 40);
        a.addq(r(1), 2, r(2));
        a.mov(r(2), r(3));
        a.halt();
        let mut opt = Optimizer::new(OptimizerConfig::baseline(), 4096, |_| 0);
        let rs = rename_all(&mut opt, &stream(a), 100);
        assert!(rs
            .iter()
            .take(3)
            .all(|x| x.class == RenamedClass::SimpleInt));
        assert!(rs.iter().take(3).all(|x| x.dst_new));
        assert_eq!(opt.stats().executed_early, 0);
        assert_eq!(opt.stats().moves_eliminated, 0);
    }

    #[test]
    fn early_exec_pass_gates_rename_stage_completion() {
        // With every pass but EarlyExec on, the optimizer still derives
        // symbols and generates addresses, but no instruction completes at
        // rename: no early ALU results, no early branch resolution, no
        // move elimination, and no MBC load forwarding.
        let cfg = OptimizerConfig::default().without_passes(&[crate::PassId::EarlyExec]);
        assert!(!cfg.enable_early_exec);
        let mut a = Asm::new();
        let buf = a.data_zeros(16);
        a.li(r(1), 40);
        a.addq(r(1), 2, r(2));
        a.mov(r(2), r(4)); // move elimination candidate
        a.li(r(5), buf as i64);
        for _ in 0..4 {
            a.nop(); // let value feedback convert r5 to a known constant
        }
        a.stq(r(2), r(5), 0); // store-forwarding candidate...
        a.ldq(r(6), r(5), 0); // ...reloaded immediately
        a.ldq(r(7), r(5), 0); // and a redundant reload
        a.li(r(3), 0);
        a.beq(r(3), "t");
        a.nop();
        a.label("t");
        a.halt();
        let mut opt = Optimizer::new(cfg, 4096, |_| 0);
        let rs = rename_all(&mut opt, &stream(a), 1);
        let s = opt.stats();
        assert_eq!(s.executed_early, 0, "nothing completes early");
        assert_eq!(s.branches_resolved_early, 0);
        assert_eq!(s.loads_removed, 0, "forwarding requires EarlyExec");
        assert_eq!(s.moves_eliminated, 0, "move elim requires EarlyExec");
        assert!(
            s.mem_addr_generated > 0,
            "fed-back knowledge still generates addresses"
        );
        assert!(rs.iter().all(|x| x.early_value.is_none()));
        assert!(rs.iter().all(|x| !x.resolved_early && !x.load_removed));
        // Every instruction with architectural work went to the core; only
        // the inherently no-op nops and halt may bypass it (the branch is
        // taken, so the trailing nop never executes).
        let done = rs.iter().filter(|x| x.class == RenamedClass::Done).count();
        assert_eq!(done, 5, "only the four nops and halt bypass the core");
    }

    #[test]
    fn rename_stops_when_registers_run_out() {
        let mut a = Asm::new();
        for i in 0..40 {
            a.li(r((i % 20) as u8 + 1), i);
        }
        a.halt();
        // 64 arch registers + zero reg occupy most of an 80-register file.
        let mut opt = Optimizer::new(OptimizerConfig::baseline(), 80, |_| 0);
        let ds = stream(a);
        let reqs: Vec<RenameReq> = ds
            .iter()
            .map(|&d| RenameReq {
                d,
                mispredicted: false,
            })
            .collect();
        let renamed = opt.rename_bundle(0, &reqs);
        assert!(
            renamed.len() < reqs.len(),
            "pool exhaustion must stop rename"
        );
        assert!(!renamed.is_empty(), "some registers were free");
    }

    #[test]
    fn intra_bundle_chain_limit_demotes_dependents() {
        // The paper's §3.1 example: four dependent adds in one packet; only
        // the first is optimized at the default depth.
        // Seed r1 with a known constant, then issue four dependent adds in
        // a single rename packet.
        let mut c = Asm::new();
        c.li(r(1), 1);
        c.addq(r(1), 1, r(2));
        c.addq(r(2), 1, r(3));
        c.addq(r(3), 1, r(4));
        c.addq(r(4), 1, r(5));
        c.halt();
        let ds = stream(c);
        let mut opt = opt_default();
        // First bundle: li alone. Second bundle: the four adds together.
        let first = opt.rename_bundle(
            0,
            &[RenameReq {
                d: ds[0],
                mispredicted: false,
            }],
        );
        assert_eq!(first[0].class, RenamedClass::Done);
        let reqs: Vec<RenameReq> = ds[1..5]
            .iter()
            .map(|&d| RenameReq {
                d,
                mispredicted: false,
            })
            .collect();
        let adds = opt.rename_bundle(1, &reqs);
        assert_eq!(adds[0].class, RenamedClass::Done, "head of the chain folds");
        // The paper's §3.1 example: "only the first instruction is
        // reassociated". The dependents must all still execute in the core
        // (none may early-execute off a value computed this cycle). Note:
        // after demotion, later adds may still *record* symbols built from
        // statically available offset fields — that costs no serial adder —
        // but no dependent's value is computed at rename.
        assert!(
            adds[1..].iter().all(|x| x.class == RenamedClass::SimpleInt),
            "dependents are chain-limited: {:?}",
            adds.iter().map(|x| x.class).collect::<Vec<_>>()
        );
        assert!(opt.stats().chain_limited >= 1);
    }

    #[test]
    fn a_bundle_reset_forgets_the_previous_bundles_writers() {
        // Bundle 1 writes r2 through an add; bundle 2 first spends an add
        // on r5 in its slot 0 (the slot r2's writer had), then reads r2.
        // The reader must see r2 with no in-bundle cost, so its add is the
        // only one on its chain and it executes early.
        let mut a = Asm::new();
        a.li(r(1), 1);
        a.addq(r(1), 1, r(2));
        a.addq(r(1), 1, r(5));
        a.addq(r(2), 1, r(3));
        a.halt();
        let ds = stream(a);
        let req = |d: DynInst| RenameReq {
            d,
            mispredicted: false,
        };
        let mut opt = opt_default();
        opt.rename_bundle(0, &[req(ds[0])]);
        let first = opt.rename_bundle(1, &[req(ds[1])]);
        assert_eq!(first[0].early_value, Some(2));
        let r2 = ArchReg::from(r(2));
        let mut bundle = opt.bundle_scratch.take().expect("scratch bundle");
        assert_eq!(bundle.costs(r2), (1, 0), "r2 took one add in bundle 1");
        bundle.reset();
        assert_eq!(bundle.costs(r2), (0, 0));
        opt.bundle_scratch = Some(bundle);
        let second = opt.rename_bundle(2, &[req(ds[2]), req(ds[3])]);
        assert_eq!(second[0].early_value, Some(2));
        assert_eq!(second[1].class, RenamedClass::Done, "not chain-limited");
        assert_eq!(second[1].early_value, Some(3));
        assert_eq!(opt.stats().chain_limited, 0);
    }

    #[test]
    fn bsr_link_value_is_known() {
        let mut a = Asm::new();
        a.bsr(contopt_isa::Reg::RA, "f");
        a.halt();
        a.label("f");
        a.jmp(contopt_isa::Reg::R31, contopt_isa::Reg::RA);
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 1);
        assert_eq!(rs[0].class, RenamedClass::Done, "link is pc+4, known");
        // The return jump reads RA whose value is known -> resolved early.
        assert!(rs[1].resolved_early, "return target known in the optimizer");
    }

    #[test]
    fn fp_ops_are_never_optimized() {
        let mut a = Asm::new();
        let buf = a.data_f64s(&[1.5]);
        a.li(r(5), buf as i64);
        a.ldt(contopt_isa::f(1), r(5), 0);
        a.addt(contopt_isa::f(1), contopt_isa::f(1), contopt_isa::f(2));
        a.halt();
        let mut opt = opt_default();
        let rs = rename_all(&mut opt, &stream(a), 100);
        assert_eq!(rs[2].class, RenamedClass::Fp);
        assert!(!rs[2].srcs.is_empty(), "FP values are never constants");
    }

    /// A load/add/store/move loop of 50 iterations.
    fn leak_loop() -> Asm {
        let mut a = Asm::new();
        let buf = a.data_zeros(256);
        a.li(r(5), buf as i64);
        a.li(r(9), 50);
        a.label("loop");
        a.ldq(r(1), r(5), 0);
        a.addq(r(1), 1, r(1));
        a.stq(r(1), r(5), 0);
        a.mov(r(1), r(2));
        a.subq(r(9), 1, r(9));
        a.bne(r(9), "loop");
        a.halt();
        a
    }

    #[test]
    fn no_references_leak_on_the_baseline() {
        // The plain renamer holds exactly the RAT's registers once every
        // instruction has completed: the zero register and one register
        // per architectural register that is not hardwired to zero.
        let mut opt = Optimizer::new(OptimizerConfig::baseline(), 4096, |_| 0);
        let before = opt.pregs().live_count();
        assert_eq!(before, 1 + contopt_isa::NUM_ARCH_REGS - 2);
        rename_all(&mut opt, &stream(leak_loop()), 2);
        assert_eq!(opt.pregs().live_count(), before);
    }

    #[test]
    fn no_references_leak_across_a_long_run() {
        let mut opt = opt_default();
        let before = opt.pregs().live_count();
        rename_all(&mut opt, &stream(leak_loop()), 2);
        opt.apply_feedback(u64::MAX); // drain in-flight feedback claims
        let after = opt.pregs().live_count();
        // Live registers: the 64 RAT mappings (+ sym bases + MBC pins),
        // bounded well below the pool size; crucially it must not grow with
        // the dynamic instruction count (50 iterations x 6 insts).
        assert!(after < before + 80, "references leak: {before} -> {after}");
    }
}
