//! Early execution and early branch resolution — the [`super::EarlyExec`]
//! pass (paper §3.3).
//!
//! Simple instructions whose inputs are fully known execute on the
//! rename-stage ALUs (the fold sites live in [`super::cp_ra`] and gate on
//! [`Optimizer::early_exec_ok`]); this module holds the control-flow half:
//! conditional branches whose condition register is known resolve at the
//! optimization stage (shortening the misprediction penalty from 20+ to
//! the front-end refill, Table 2), `bsr` link values (`pc + 4`) complete
//! immediately, and indirect jumps through known registers resolve their
//! targets. Branch-direction inference (a CP/RA feature: `bne` not taken
//! ⇒ the register is zero) also lives here because it piggybacks on
//! branch processing.

use crate::optimizer::{Bundle, Optimizer, RenameReq, Renamed, RenamedClass};
use crate::preg::SrcList;
use crate::symval::SymValue;
use contopt_isa::{ArchReg, Inst};

impl Optimizer {
    pub(crate) fn process_branch(
        &mut self,
        req: &RenameReq,
        cond: contopt_isa::Cond,
        ra: contopt_isa::Reg,
        bundle: &mut Bundle,
    ) -> Renamed {
        let d = &req.d;
        if req.mispredicted {
            self.stats.engine.mispredicted_branches += 1;
        }
        let va = self.view(ArchReg::from(ra), bundle);
        let budget = self.cfg.max_serial_adds();
        let usable = va.adds <= budget;
        if let (Some(v), true, true) = (va.sym.known(), usable, self.early_exec_ok()) {
            // Early branch resolution on the rename-stage ALUs.
            assert_eq!(
                cond.eval(v),
                d.taken,
                "strict check: branch `{}` resolved {} but oracle says {}",
                d.inst,
                cond.eval(v),
                d.taken
            );
            self.stats.early_exec.branches_resolved_early += 1;
            self.stats.early_exec.executed_early += 1;
            if req.mispredicted {
                self.stats.early_exec.mispredicts_recovered_early += 1;
            }
            bundle.record(None, va.adds, 0);
            let mut r = self.renamed(d, RenamedClass::Done, SrcList::new(), None, false);
            r.resolved_early = true;
            return r;
        }
        // Unresolved: executes in the core. Branch-direction inference may
        // still reveal the register's value to younger instructions.
        let srcs = SrcList::one(va.map);
        self.hold_srcs(&srcs);
        if self.optimizing() && self.cfg.enable_branch_inference && cond.implies_zero(d.taken) {
            self.rat
                .update_sym(ArchReg::from(ra), SymValue::Known(0), &mut self.pregs);
            self.stats.cp_ra.branch_inferences += 1;
        }
        bundle.record(None, 0, 0);
        self.renamed(d, RenamedClass::SimpleInt, srcs, None, false)
    }

    pub(crate) fn process_call(&mut self, req: &RenameReq, bundle: &mut Bundle) -> Renamed {
        let d = &req.d;
        let link = d.pc.wrapping_add(4);
        let dst_arch = d.inst.dst();
        match d.inst {
            Inst::Bsr { .. } => {
                if self.optimizing() && self.early_exec_ok() {
                    // The link value is architecturally known.
                    let (dst, dst_new) = match dst_arch {
                        Some(a) => {
                            self.verify("bsr link", d, link);
                            let p = self.alloc_dst(d);
                            self.rat.write(a, p, SymValue::Known(link), &mut self.pregs);
                            (Some(p), true)
                        }
                        None => (None, false),
                    };
                    self.stats.early_exec.executed_early += 1;
                    bundle.record(dst_arch, 0, 0);
                    let mut r = self.renamed(d, RenamedClass::Done, SrcList::new(), dst, dst_new);
                    r.early_value = dst.map(|_| link);
                    r
                } else if self.optimizing() {
                    // No EarlyExec pass: the link value is still derived
                    // knowledge — record it while executing in the core
                    // (consistent with the Jmp path below).
                    self.process_plain_known(d, RenamedClass::SimpleInt, link, 0, bundle)
                } else {
                    self.process_plain(d, RenamedClass::SimpleInt, bundle)
                }
            }
            Inst::Jmp { ra, .. } => {
                if req.mispredicted {
                    self.stats.engine.mispredicted_branches += 1;
                }
                let va = self.view(ArchReg::from(ra), bundle);
                let target_known =
                    self.optimizing() && self.early_exec_ok() && va.sym.known().is_some();
                if target_known {
                    assert_eq!(
                        va.sym.known(),
                        Some(d.next_pc),
                        "strict check: jump target mismatch"
                    );
                }
                if !target_known {
                    self.hold_srcs(&[va.map]);
                }
                let (dst, dst_new) = match dst_arch {
                    Some(a) => {
                        let p = self.alloc_dst(d);
                        let sym = if self.optimizing() {
                            SymValue::Known(link)
                        } else {
                            SymValue::reg(p)
                        };
                        self.rat.write(a, p, sym, &mut self.pregs);
                        (Some(p), true)
                    }
                    None => (None, false),
                };
                bundle.record(dst_arch, 0, 0);
                if target_known {
                    self.stats.early_exec.executed_early += 1;
                    if req.mispredicted {
                        self.stats.early_exec.mispredicts_recovered_early += 1;
                    }
                    let mut r = self.renamed(d, RenamedClass::Done, SrcList::new(), dst, dst_new);
                    r.resolved_early = true;
                    r.early_value = dst.map(|_| link);
                    r
                } else {
                    self.renamed(
                        d,
                        RenamedClass::SimpleInt,
                        SrcList::one(va.map),
                        dst,
                        dst_new,
                    )
                }
            }
            _ => unreachable!("process_call on non-call"),
        }
    }
}
