//! Constant propagation / reassociation — the [`super::CpRa`] pass
//! (paper §3, §3.1).
//!
//! Each architectural register's RAT entry carries a symbolic value
//! `(base_preg << scale) ± offset`; ALU operations and `lda` address
//! formation fold into it through [`sym_add`], [`sym_add_imm`],
//! [`sym_scaled_add`], [`sym_shl`], and [`sym_sub`]. Fully-known results
//! hand over to the early-execution pass
//! ([`super::early_exec`]); plain-register expressions become eliminated
//! moves; non-trivial expressions simplify the instruction to a
//! single-cycle `(base << scale) + offset` form whose only dependence is
//! the earlier producer (tree-height reduction). Serial-addition chains
//! within a bundle are bounded by
//! [`crate::config::OptimizerConfig::add_chain_depth`] (§6.2, Figure 10);
//! power-of-two multiplies strength-reduce to shifts.

use crate::optimizer::{Bundle, Optimizer, RenameReq, Renamed, RenamedClass, SrcView};
use crate::preg::SrcList;
use crate::symval::{sym_add, sym_add_imm, sym_scaled_add, sym_shl, sym_sub, Folded, SymValue};
use contopt_isa::{AluOp, ArchReg, Operand};

impl Optimizer {
    pub(crate) fn process_alu(
        &mut self,
        req: &RenameReq,
        op: AluOp,
        ra: contopt_isa::Reg,
        rb: Operand,
        _rc: contopt_isa::Reg,
        bundle: &mut Bundle,
    ) -> Renamed {
        let d = &req.d;
        let va = self.view(ArchReg::from(ra), bundle);
        let vb = match rb {
            Operand::Reg(r) => Some(self.view(ArchReg::from(r), bundle)),
            Operand::Imm(_) => None,
        };

        // First attempt with full symbolic views; retry with plain views if
        // the serial-addition budget is exceeded.
        let attempt = self.fold_alu(op, &va, rb, &vb);
        let budget = self.cfg.max_serial_adds();
        let (folded, va, vb) = match attempt {
            Some((f, inherited)) if inherited + f.used_add as u32 > budget => {
                self.stats.engine.chain_limited += 1;
                let pa = Self::plain(&va);
                let pb = vb.as_ref().map(Self::plain);
                let f2 = self.fold_alu(op, &pa, rb, &pb).map(|(f, _)| f);
                (f2, pa, pb)
            }
            Some((f, _)) => (Some(f), va, vb),
            None => (None, va, vb),
        };

        // In feedback-only mode, only fully-known results may be used.
        let folded = match folded {
            Some(f) if f.value.known().is_none() && !self.allow_expr() => None,
            other => other,
        };

        let dst_arch = d.inst.dst();
        // A multiply that folded did so via power-of-two strength
        // reduction. The fold is always consumed — executed early,
        // simplified to a shift form, or recorded as a derived constant —
        // so the stat is charged once here.
        let reduced_mul = op == AluOp::Mulq && folded.is_some();
        if reduced_mul {
            self.stats.cp_ra.strength_reductions += 1;
        }

        match folded {
            Some(f) => match f.value {
                SymValue::Known(v) if (op.is_simple() || reduced_mul) && self.early_exec_ok() => {
                    // Early execution on the rename-stage ALUs.
                    if let Some(dst_a) = dst_arch {
                        self.verify("early alu", d, v);
                        let p = self.alloc_dst(d);
                        self.rat
                            .write(dst_a, p, SymValue::Known(v), &mut self.pregs);
                        self.stats.early_exec.executed_early += 1;
                        bundle.record(dst_arch, va.adds.max(vb.map_or(0, |x| x.adds)) + 1, 0);
                        let mut r =
                            self.renamed(d, RenamedClass::Done, SrcList::new(), Some(p), true);
                        r.early_value = Some(v);
                        return r;
                    }
                    // Result discarded (dst is a zero register): nothing to do.
                    bundle.record(None, 0, 0);
                    self.stats.early_exec.executed_early += 1;
                    self.renamed(d, RenamedClass::Done, SrcList::new(), None, false)
                }
                SymValue::Known(v) => {
                    // Known result that may not complete at rename: either a
                    // multi-cycle op (non-reduced multiply of two constants)
                    // or the EarlyExec pass is not registered. Execute in
                    // the core, but record the derived constant so younger
                    // instructions still see the knowledge.
                    let class = if op.is_simple() {
                        RenamedClass::SimpleInt
                    } else {
                        RenamedClass::ComplexInt
                    };
                    let adds = va.adds.max(vb.map_or(0, |x| x.adds)) + f.used_add as u32;
                    self.process_plain_known(d, class, v, adds, bundle)
                }
                e @ SymValue::Expr { base, .. } => {
                    let Some(dst_a) = dst_arch else {
                        // Zero-register destination: no architectural effect.
                        bundle.record(None, 0, 0);
                        return self.renamed(d, RenamedClass::Done, SrcList::new(), None, false);
                    };
                    if e.is_plain_reg() && self.early_exec_ok() {
                        // Move elimination: remap the destination onto the
                        // producer; no execution needed. Completing the
                        // instruction at rename requires the EarlyExec
                        // pass; without it the move executes as a
                        // simplified single-cycle op below.
                        self.rat.write(dst_a, base, e, &mut self.pregs);
                        self.stats.cp_ra.moves_eliminated += 1;
                        self.stats.early_exec.executed_early += 1;
                        bundle.record(dst_arch, 0, 0);
                        return self.renamed(
                            d,
                            RenamedClass::Done,
                            SrcList::new(),
                            Some(base),
                            false,
                        );
                    }
                    // Simplified: the instruction now computes
                    // (base << scale) + offset — a single-cycle form whose
                    // only dependence is the (earlier) base producer.
                    self.hold_srcs(&[base]);
                    let p = self.alloc_dst(d);
                    self.rat.write(dst_a, p, e, &mut self.pregs);
                    let total = va.adds.max(vb.map_or(0, |x| x.adds)) + f.used_add as u32;
                    bundle.record(dst_arch, total, 0);
                    self.renamed(
                        d,
                        RenamedClass::SimpleInt,
                        SrcList::one(base),
                        Some(p),
                        true,
                    )
                }
            },
            None => {
                let class = if op.is_simple() {
                    RenamedClass::SimpleInt
                } else {
                    RenamedClass::ComplexInt
                };
                self.process_plain(d, class, bundle)
            }
        }
    }

    /// The CP/RA fold for an ALU op. Returns the folded value plus the
    /// maximum in-bundle serial-add cost inherited from the sources whose
    /// symbols were consumed.
    pub(crate) fn fold_alu(
        &self,
        op: AluOp,
        va: &SrcView,
        rb: Operand,
        vb: &Option<SrcView>,
    ) -> Option<(Folded, u32)> {
        let sa = va.sym;
        let (sb, b_adds) = match (rb, vb) {
            (Operand::Imm(k), _) => (SymValue::Known(k as u64), 0),
            (Operand::Reg(_), Some(v)) => (v.sym, v.adds),
            (Operand::Reg(_), None) => unreachable!("register operand without view"),
        };
        let inherited = va.adds.max(b_adds);
        let f = match op {
            AluOp::Addq => match rb {
                Operand::Imm(k) => Some(sym_add_imm(sa, k)),
                Operand::Reg(_) => sym_add(sa, sb),
            },
            AluOp::Subq => match rb {
                Operand::Imm(k) => Some(sym_add_imm(sa, k.wrapping_neg())),
                Operand::Reg(_) => sym_sub(sa, sb),
            },
            AluOp::S4Addq => sym_scaled_add(sa, 2, sb),
            AluOp::S8Addq => sym_scaled_add(sa, 3, sb),
            AluOp::Sll => match sb.known() {
                Some(k) if k < 64 => sym_shl(sa, k as u32),
                _ => None,
            },
            AluOp::Mulq => {
                // Strength reduction: multiply by a power of two.
                let (val, konst) = match (sa.known(), sb.known()) {
                    (_, Some(k)) => (sa, Some(k)),
                    (Some(k), _) => (sb, Some(k)),
                    _ => (sa, None),
                };
                match konst {
                    Some(k) if k.is_power_of_two() => sym_shl(val, k.trailing_zeros()),
                    _ => None,
                }
            }
            _ => {
                // Generic simple ops: executable only with fully known
                // inputs.
                match (sa.known(), sb.known()) {
                    (Some(a), Some(b)) => Some(Folded {
                        value: SymValue::Known(op.eval(a, b)),
                        used_add: true,
                    }),
                    _ => None,
                }
            }
        };
        f.map(|f| (f, inherited))
    }

    pub(crate) fn process_lda(
        &mut self,
        req: &RenameReq,
        _rc: contopt_isa::Reg,
        rb: contopt_isa::Reg,
        disp: i64,
        bundle: &mut Bundle,
    ) -> Renamed {
        let d = &req.d;
        let vb = self.view(ArchReg::from(rb), bundle);
        let budget = self.cfg.max_serial_adds();
        let mut f = sym_add_imm(vb.sym, disp);
        let mut inherited = vb.adds;
        if inherited + f.used_add as u32 > budget {
            self.stats.engine.chain_limited += 1;
            f = sym_add_imm(SymValue::reg(vb.map), disp);
            inherited = 0;
        }
        if f.value.known().is_none() && !self.allow_expr() {
            return self.process_plain(d, RenamedClass::SimpleInt, bundle);
        }
        let dst_arch = d.inst.dst();
        match f.value {
            SymValue::Known(v) if self.early_exec_ok() => {
                let Some(dst_a) = dst_arch else {
                    bundle.record(None, 0, 0);
                    self.stats.early_exec.executed_early += 1;
                    return self.renamed(d, RenamedClass::Done, SrcList::new(), None, false);
                };
                self.verify("early lda", d, v);
                let p = self.alloc_dst(d);
                self.rat
                    .write(dst_a, p, SymValue::Known(v), &mut self.pregs);
                self.stats.early_exec.executed_early += 1;
                bundle.record(dst_arch, inherited + 1, 0);
                let mut r = self.renamed(d, RenamedClass::Done, SrcList::new(), Some(p), true);
                r.early_value = Some(v);
                r
            }
            SymValue::Known(v) => {
                // Known address but no EarlyExec pass: compute in the core,
                // recording the derived constant for younger instructions.
                self.process_plain_known(
                    d,
                    RenamedClass::SimpleInt,
                    v,
                    inherited + f.used_add as u32,
                    bundle,
                )
            }
            e @ SymValue::Expr { base, .. } => {
                let Some(dst_a) = dst_arch else {
                    bundle.record(None, 0, 0);
                    return self.renamed(d, RenamedClass::Done, SrcList::new(), None, false);
                };
                if e.is_plain_reg() && self.early_exec_ok() {
                    // `mov` (lda 0(rb)): eliminated through reassociation.
                    // Completion at rename requires the EarlyExec pass.
                    self.rat.write(dst_a, base, e, &mut self.pregs);
                    self.stats.cp_ra.moves_eliminated += 1;
                    self.stats.early_exec.executed_early += 1;
                    bundle.record(dst_arch, 0, 0);
                    return self.renamed(d, RenamedClass::Done, SrcList::new(), Some(base), false);
                }
                self.hold_srcs(&[base]);
                let p = self.alloc_dst(d);
                self.rat.write(dst_a, p, e, &mut self.pregs);
                bundle.record(dst_arch, inherited + f.used_add as u32, 0);
                self.renamed(
                    d,
                    RenamedClass::SimpleInt,
                    SrcList::one(base),
                    Some(p),
                    true,
                )
            }
        }
    }

    /// Resolves a memory op's address symbolically; returns
    /// `(address-symbol, inherited adds, inherited mbc accesses)`.
    pub(crate) fn fold_addr(
        &mut self,
        base: contopt_isa::Reg,
        disp: i64,
        bundle: &Bundle,
    ) -> (SymValue, u32, u32) {
        let vb = self.view(ArchReg::from(base), bundle);
        let f = sym_add_imm(vb.sym, disp);
        let budget = self.cfg.max_serial_adds();
        if vb.adds + f.used_add as u32 > budget {
            self.stats.engine.chain_limited += 1;
            return (SymValue::reg(vb.map), 0, 0);
        }
        (f.value, vb.adds, vb.mbcs)
    }
}
