//! The cycle-level out-of-order machine.
//!
//! The timing model follows the classic oracle-functional / separate-timing
//! structure of academic simulators (the paper builds on SimpleScalar 3.0
//! the same way, §4.2): the functional emulator produces the committed
//! dynamic instruction stream; this module replays it through a
//! Pentium-4-like deep pipeline — fetch (I-cache + gshare/BTB/RAS), a
//! calibrated front-end delay, rename + continuous optimization, dispatch
//! into four small schedulers, dataflow-driven issue with functional-unit
//! and cache-port contention, and in-order retirement.
//!
//! Branch handling uses the stall-on-mispredict model: when fetch sees a
//! branch the predictor gets wrong, fetch stops until the branch resolves
//! (in the execution core, or — with continuous optimization — possibly at
//! the rename stage), then pays the redirect latency. The resulting minimum
//! penalty matches Table 2's 20 cycles on the baseline and 22 with the
//! optimizer's two extra stages.

use crate::config::MachineConfig;
use crate::stats::{PipelineStats, RunReport};
use contopt::{Optimizer, RenameReq, Renamed, RenamedClass, SrcList};
use contopt_bpred::Predictor;
use contopt_emu::{ArchSnapshot, DynInst, Emulator, Step};
use contopt_isa::{ArchReg, ExecClass, Inst, Program, Reg, STACK_TOP};
use contopt_mem::MemHierarchy;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
struct Fetched {
    d: DynInst,
    mispredicted: bool,
    rename_ready: u64,
}

#[derive(Debug, Clone)]
struct RobEntry {
    d: DynInst,
    ren: Renamed,
    mispredicted: bool,
    completed: bool,
    complete_at: u64,
}

/// A scheduler slot. It copies what issue reads from the renamed
/// instruction, so scanning the schedulers never touches the ROB.
#[derive(Debug, Clone, Copy)]
struct SchedEntry {
    seq: u64,
    earliest: u64,
    srcs: SrcList,
    class: RenamedClass,
    addr_known: bool,
}

const INT_SCHED: usize = 0;
const CPLX_SCHED: usize = 1;
const FP_SCHED: usize = 2;
const MEM_SCHED: usize = 3;

/// The simulated machine: functional emulator + timing state.
///
/// # Examples
///
/// ```
/// use contopt_isa::{Asm, r};
/// use contopt_pipeline::{Machine, MachineConfig};
///
/// let mut a = Asm::new();
/// a.li(r(1), 10);
/// a.label("loop");
/// a.subq(r(1), 1, r(1));
/// a.bne(r(1), "loop");
/// a.halt();
/// let report = Machine::new(MachineConfig::default_with_optimizer(), a.finish()?)
///     .run(100_000);
/// assert_eq!(report.pipeline.retired, 22);
/// assert!(report.ipc() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    emu: Emulator,
    opt: Optimizer,
    hier: MemHierarchy,
    pred: Predictor,

    cycle: u64,
    lookahead: VecDeque<DynInst>,
    stream_done: bool,
    insts_pulled: u64,

    fetch_queue: VecDeque<Fetched>,
    fetch_resume_at: u64,
    mispredict_outstanding: bool,

    rob: VecDeque<RobEntry>,
    scheds: [Vec<SchedEntry>; 4],
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    ready_at: Vec<u64>,

    // Scratch buffers reused every cycle so the steady-state rename path
    // performs no heap allocation.
    rename_reqs: Vec<RenameReq>,
    renamed_buf: Vec<Renamed>,

    // FNV chain over the retired stream, folded at retire time
    // (allocation-free) for differential comparison. Only the snapshot of
    // `run_with_state` reads it, so only that path sets `fold_digest`.
    fold_digest: bool,
    stream_digest: u64,

    stats: PipelineStats,
}

impl Machine {
    /// Builds a machine around a program with cold caches and predictors.
    ///
    /// Accepts either an owned [`Program`] or a shared `Arc<Program>`; the
    /// latter lets many machines (e.g. a parallel experiment sweep) share
    /// one program image without deep-cloning it per run.
    pub fn new(cfg: MachineConfig, program: impl Into<Arc<Program>>) -> Machine {
        let emu = Emulator::new(program);
        let opt = Optimizer::new(cfg.optimizer, cfg.preg_count, |a: ArchReg| {
            if a == ArchReg::from(Reg::SP) {
                STACK_TOP
            } else {
                0
            }
        });
        let ready_at = vec![0u64; cfg.preg_count];
        Machine {
            hier: MemHierarchy::new(cfg.hierarchy),
            pred: Predictor::new(cfg.predictor),
            cfg,
            emu,
            opt,
            cycle: 0,
            lookahead: VecDeque::new(),
            stream_done: false,
            insts_pulled: 0,
            fetch_queue: VecDeque::new(),
            rob: VecDeque::new(),
            scheds: Default::default(),
            completions: BinaryHeap::new(),
            ready_at,
            rename_reqs: Vec::new(),
            renamed_buf: Vec::new(),
            fold_digest: false,
            stream_digest: contopt_emu::STREAM_DIGEST_INIT,
            fetch_resume_at: 0,
            mispredict_outstanding: false,
            stats: PipelineStats::default(),
        }
    }

    /// Runs the machine until the program halts or `max_insts` dynamic
    /// instructions have retired, then drains the pipeline.
    ///
    /// # Panics
    ///
    /// Panics on a strict-value-check failure, on exceeding
    /// [`MachineConfig::max_cycles`], or if the pipeline deadlocks (both
    /// indicate simulator bugs).
    pub fn run(mut self, max_insts: u64) -> RunReport {
        self.run_loop(max_insts);
        self.report()
    }

    /// Like [`run`](Self::run), but also returns the end-of-run
    /// architectural state ([`ArchSnapshot`]): register files, memory
    /// content digest, and the retired-stream digest folded at retire
    /// time. Differential tests use this to prove the optimized pipeline
    /// changes timing, never semantics.
    pub fn run_with_state(mut self, max_insts: u64) -> (RunReport, ArchSnapshot) {
        self.fold_digest = true;
        self.run_loop(max_insts);
        let snap = ArchSnapshot::capture(&self.emu, self.stats.retired, self.stream_digest);
        (self.report(), snap)
    }

    fn run_loop(&mut self, max_insts: u64) {
        let mut last_progress = (0u64, 0u64); // (cycle, retired)
        loop {
            self.process_completions();
            self.retire();
            if self.finished() {
                break;
            }
            self.issue();
            self.rename_and_dispatch();
            self.fetch(max_insts);
            self.cycle += 1;

            if self.cfg.max_cycles > 0 && self.cycle > self.cfg.max_cycles {
                panic!("exceeded configured max_cycles {}", self.cfg.max_cycles);
            }
            if self.stats.retired > last_progress.1 {
                last_progress = (self.cycle, self.stats.retired);
            } else if self.cycle - last_progress.0 > 1_000_000 {
                panic!(
                    "pipeline deadlock at cycle {} (retired {}, rob {}, fq {})",
                    self.cycle,
                    self.stats.retired,
                    self.rob.len(),
                    self.fetch_queue.len()
                );
            }
        }
        self.stats.cycles = self.cycle.max(1);
    }

    fn report(self) -> RunReport {
        RunReport {
            pipeline: self.stats,
            optimizer: self.opt.stats(),
            passes: self.opt.pass_stats(),
            mbc: self.opt.mbc_stats(),
            predictor: self.pred.stats(),
            memory: self.hier.stats(),
        }
    }

    fn finished(&self) -> bool {
        self.stream_done
            && self.lookahead.is_empty()
            && self.fetch_queue.is_empty()
            && self.rob.is_empty()
    }

    // ---- stream --------------------------------------------------------

    #[expect(
        clippy::expect_used,
        reason = "suite programs execute cleanly under the reference emulator"
    )]
    fn peek_stream(&mut self, max_insts: u64) -> Option<DynInst> {
        if self.lookahead.is_empty() && !self.stream_done {
            if self.insts_pulled >= max_insts {
                self.stream_done = true;
            } else {
                match self.emu.step().expect("workload executes cleanly") {
                    Step::Inst(d) => {
                        self.insts_pulled += 1;
                        if matches!(d.inst, Inst::Halt) {
                            self.stream_done = true;
                        }
                        self.lookahead.push_back(d);
                    }
                    Step::Halted => self.stream_done = true,
                }
            }
        }
        self.lookahead.front().copied()
    }

    // ---- fetch -----------------------------------------------------------

    fn fetch(&mut self, max_insts: u64) {
        if self.mispredict_outstanding {
            self.stats.mispredict_stall_cycles += 1;
            return;
        }
        if self.cycle < self.fetch_resume_at {
            return;
        }
        let front_total = self.cfg.front_depth + self.cfg.optimizer_extra_stages();
        let capacity = (front_total as usize + 8) * self.cfg.fetch_width;
        let mut fetched = 0;
        let mut line: Option<u64> = None;
        while fetched < self.cfg.fetch_width && self.fetch_queue.len() < capacity {
            let Some(d) = self.peek_stream(max_insts) else {
                break;
            };
            // Instruction cache: one access per line per fetch cycle.
            let line_addr = d.pc / self.cfg.hierarchy.l1i.line_bytes;
            if line != Some(line_addr) {
                let lat = self.hier.inst_fetch(d.pc);
                line = Some(line_addr);
                if lat > self.cfg.hierarchy.l1i_latency {
                    // Miss: the line fills; fetch resumes once it arrives.
                    self.fetch_resume_at = self.cycle + lat - self.cfg.hierarchy.l1i_latency;
                    break;
                }
            }
            self.lookahead.pop_front();
            let mispredicted = self.predict(&d);
            self.fetch_queue.push_back(Fetched {
                d,
                mispredicted,
                rename_ready: self.cycle + front_total,
            });
            fetched += 1;
            if mispredicted {
                self.mispredict_outstanding = true;
                break;
            }
            if d.redirects() {
                break; // taken control flow ends the fetch block
            }
        }
    }

    /// Consults/updates the predictor; returns whether the front end
    /// mispredicted this instruction.
    fn predict(&mut self, d: &DynInst) -> bool {
        match d.inst {
            Inst::Br { target, .. } => !self.pred.update_cond(d.pc, d.taken, target),
            Inst::Bru { .. } => false, // direct, decoded in the front end
            Inst::Bsr { .. } => {
                self.pred.push_return(d.pc.wrapping_add(4));
                false
            }
            Inst::Jmp { rd, ra } => {
                let is_return = rd.is_zero() && ra == Reg::RA;
                if is_return {
                    !self.pred.predict_return(d.next_pc)
                } else {
                    !self.pred.update_indirect(d.pc, d.next_pc)
                }
            }
            _ => false,
        }
    }

    // ---- rename / dispatch ----------------------------------------------

    fn sched_for(class: ExecClass) -> Option<usize> {
        match class {
            ExecClass::SimpleInt => Some(INT_SCHED),
            ExecClass::ComplexInt => Some(CPLX_SCHED),
            ExecClass::Fp => Some(FP_SCHED),
            ExecClass::Mem => Some(MEM_SCHED),
            ExecClass::None => None,
        }
    }

    fn sched_for_renamed(class: RenamedClass) -> Option<usize> {
        match class {
            RenamedClass::Done => None,
            RenamedClass::SimpleInt => Some(INT_SCHED),
            RenamedClass::ComplexInt => Some(CPLX_SCHED),
            RenamedClass::Fp => Some(FP_SCHED),
            RenamedClass::Load | RenamedClass::Store => Some(MEM_SCHED),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "the optimizer renames exactly what was peeked"
    )]
    fn rename_and_dispatch(&mut self) {
        let mut rob_free = self.cfg.rob_entries - self.rob.len();
        // Scheduler slots are reserved against the *unoptimized* class; the
        // optimizer occasionally moves an instruction to the int scheduler
        // (strength-reduced multiplies, expression-forwarded loads), so the
        // occupancy may transiently exceed the nominal capacity by less than
        // one rename bundle — hence the saturating arithmetic.
        let mut sched_free = [
            self.cfg
                .scheduler_entries
                .saturating_sub(self.scheds[0].len()),
            self.cfg
                .scheduler_entries
                .saturating_sub(self.scheds[1].len()),
            self.cfg
                .scheduler_entries
                .saturating_sub(self.scheds[2].len()),
            self.cfg
                .scheduler_entries
                .saturating_sub(self.scheds[3].len()),
        ];
        // Reuse the request/result scratch buffers across cycles (taken and
        // restored around the loop because `dispatch` needs `&mut self`).
        let mut reqs = std::mem::take(&mut self.rename_reqs);
        reqs.clear();
        for f in self.fetch_queue.iter().take(self.cfg.fetch_width) {
            if f.rename_ready > self.cycle {
                break;
            }
            if rob_free == 0 {
                self.stats.rob_stall_cycles += 1;
                break;
            }
            // Conservative structural pre-check: reserve a slot in the
            // scheduler the unoptimized instruction would use (the
            // optimizer can only reduce pressure).
            if let Some(s) = Self::sched_for(f.d.inst.class()) {
                if sched_free[s] == 0 {
                    self.stats.sched_stall_cycles += 1;
                    break;
                }
                sched_free[s] -= 1;
            }
            rob_free -= 1;
            reqs.push(RenameReq {
                d: f.d,
                mispredicted: f.mispredicted,
            });
        }
        if reqs.is_empty() {
            self.rename_reqs = reqs;
            return;
        }
        let mut renamed = std::mem::take(&mut self.renamed_buf);
        renamed.clear();
        self.opt.rename_bundle_into(self.cycle, &reqs, &mut renamed);
        for ren in renamed.drain(..) {
            let f = self
                .fetch_queue
                .pop_front()
                .expect("renamed what we peeked");
            self.dispatch(f, ren);
        }
        self.rename_reqs = reqs;
        self.renamed_buf = renamed;
    }

    #[expect(
        clippy::expect_used,
        reason = "renamed-class invariants established at rename time"
    )]
    fn dispatch(&mut self, f: Fetched, ren: Renamed) {
        if let (Some(dst), true) = (ren.dst, ren.dst_new) {
            self.ready_at[dst.index()] = u64::MAX;
        }
        let mut entry = RobEntry {
            d: f.d,
            ren,
            mispredicted: f.mispredicted,
            completed: false,
            complete_at: u64::MAX,
        };
        match entry.ren.class {
            RenamedClass::Done => {
                // Fully handled in the optimizer: completes immediately and
                // only waits for retirement.
                entry.completed = true;
                entry.complete_at = self.cycle;
                self.stats.bypassed_ooo += 1;
                if entry.ren.load_removed {
                    self.stats.loads_bypassed += 1;
                }
                if let (Some(dst), true) = (entry.ren.dst, entry.ren.dst_new) {
                    let v = entry
                        .ren
                        .early_value
                        .or(entry.d.result)
                        .expect("early destination has a value");
                    self.ready_at[dst.index()] = self.cycle;
                    self.opt.complete(dst, v, self.cycle);
                    self.opt.release(dst); // producer claim
                }
                if f.mispredicted {
                    debug_assert!(entry.ren.resolved_early || entry.d.inst.is_control());
                    self.redirect(self.cycle, true);
                }
            }
            class => {
                self.stats.dispatched_to_ooo += 1;
                let sched = Self::sched_for_renamed(class).expect("non-Done class");
                self.scheds[sched].push(SchedEntry {
                    seq: entry.ren.seq,
                    earliest: self.cycle + self.cfg.sched_delay,
                    srcs: entry.ren.srcs,
                    class,
                    addr_known: entry.ren.addr_known,
                });
            }
        }
        self.rob.push_back(entry);
    }

    fn redirect(&mut self, resolved_at: u64, early: bool) {
        debug_assert!(self.mispredict_outstanding);
        self.mispredict_outstanding = false;
        self.fetch_resume_at = resolved_at + self.cfg.redirect_delay;
        if early {
            self.stats.early_redirects += 1;
        } else {
            self.stats.late_redirects += 1;
        }
    }

    // ---- issue / execute -------------------------------------------------

    #[expect(
        clippy::expect_used,
        reason = "callers index into a non-empty reorder buffer"
    )]
    fn rob_index(&self, seq: u64) -> usize {
        let head = self.rob.front().expect("rob non-empty").ren.seq;
        (seq - head) as usize
    }

    fn issue(&mut self) {
        let mut fu_left = [
            self.cfg.simple_int_fus,
            self.cfg.complex_int_fus,
            self.cfg.fp_fus,
            self.cfg.agen_fus,
        ];
        let mut dports_left = self.cfg.hierarchy.l1d_ports as usize;

        for sched in 0..4 {
            let mut i = 0;
            while i < self.scheds[sched].len() {
                let e = self.scheds[sched][i];
                let now = self.cycle;
                if e.earliest > now || !e.srcs.iter().all(|p| self.ready_at[p.index()] <= now) {
                    i += 1;
                    continue;
                }
                // Functional-unit and port availability.
                let ok = match e.class {
                    RenamedClass::SimpleInt => take(&mut fu_left[0]),
                    RenamedClass::ComplexInt => take(&mut fu_left[1]),
                    RenamedClass::Fp => take(&mut fu_left[2]),
                    RenamedClass::Load => {
                        let agen_ok = e.addr_known || fu_left[3] > 0;
                        if agen_ok && dports_left > 0 {
                            if !e.addr_known {
                                fu_left[3] -= 1;
                            }
                            dports_left -= 1;
                            true
                        } else {
                            false
                        }
                    }
                    RenamedClass::Store => e.addr_known || take(&mut fu_left[3]),
                    RenamedClass::Done => unreachable!("Done never scheduled"),
                };
                if !ok {
                    i += 1;
                    continue;
                }
                self.scheds[sched].remove(i);
                self.execute(self.rob_index(e.seq));
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "memory ops carry effective addresses from the emulator"
    )]
    fn execute(&mut self, idx: usize) {
        let now = self.cycle;
        let (class, addr_known, eff_addr) = {
            let e = &self.rob[idx];
            (e.ren.class, e.ren.addr_known, e.d.eff_addr)
        };
        let exec_lat = match class {
            RenamedClass::SimpleInt => 1,
            RenamedClass::ComplexInt => self.cfg.complex_latency,
            RenamedClass::Fp => self.cfg.fp_latency,
            RenamedClass::Load => {
                let addr = eff_addr.expect("load has an address");
                self.stats.dcache_loads += 1;
                let agen = if addr_known { 0 } else { 1 };
                agen + self.hier.data_access(addr, false)
            }
            RenamedClass::Store => 1, // address generation; data written at retire
            RenamedClass::Done => unreachable!(),
        };
        let complete_at = now + self.cfg.regread_delay + exec_lat;
        let e = &mut self.rob[idx];
        e.complete_at = complete_at;
        if let (Some(dst), true) = (e.ren.dst, e.ren.dst_new) {
            self.ready_at[dst.index()] = complete_at;
        }
        self.completions.push(Reverse((complete_at, e.ren.seq)));
    }

    #[expect(clippy::expect_used, reason = "writers always produce a result value")]
    fn process_completions(&mut self) {
        while let Some(&Reverse((t, seq))) = self.completions.peek() {
            if t > self.cycle {
                break;
            }
            self.completions.pop();
            let idx = self.rob_index(seq);
            let (srcs, dst, dst_new, value, mispredicted, is_control) = {
                let e = &mut self.rob[idx];
                e.completed = true;
                (
                    e.ren.srcs, // inline list: a plain copy, no allocation
                    e.ren.dst,
                    e.ren.dst_new,
                    e.d.result,
                    e.mispredicted,
                    e.d.inst.is_control(),
                )
            };
            for &p in &srcs {
                self.opt.release(p);
            }
            if let (Some(dst), true) = (dst, dst_new) {
                self.opt
                    .complete(dst, value.expect("writer has a result"), t);
                self.opt.release(dst); // producer claim
            }
            if mispredicted && is_control {
                self.redirect(t, false);
            }
        }
    }

    // ---- retire -----------------------------------------------------------

    #[expect(
        clippy::expect_used,
        reason = "the retire loop re-checks the head it pops"
    )]
    fn retire(&mut self) {
        let mut n = 0;
        while n < self.cfg.retire_width {
            let Some(front) = self.rob.front() else { break };
            if !front.completed || front.complete_at > self.cycle {
                break;
            }
            let e = self.rob.pop_front().expect("checked front");
            if e.d.inst.is_store() {
                let addr = e.d.eff_addr.expect("store has an address");
                self.hier.data_access(addr, true);
            }
            if self.fold_digest {
                self.stream_digest = e.d.fold_digest(self.stream_digest);
            }
            self.stats.retired += 1;
            n += 1;
        }
    }
}

#[inline]
fn take(n: &mut usize) -> bool {
    if *n > 0 {
        *n -= 1;
        true
    } else {
        false
    }
}

/// Convenience: build and run a machine in one call.
pub fn simulate(cfg: MachineConfig, program: impl Into<Arc<Program>>, max_insts: u64) -> RunReport {
    Machine::new(cfg, program).run(max_insts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_isa::{r, Asm};

    fn sum_loop(n: i64) -> Program {
        let mut a = Asm::new();
        let arr = a.data_quads(&(0..n as u64).map(|i| i * 3).collect::<Vec<_>>());
        a.li(r(1), arr as i64);
        a.li(r(2), n);
        a.li(r(3), 0);
        a.label("loop");
        a.ldq(r(4), r(1), 0);
        a.addq(r(3), r(4), r(3));
        a.lda(r(1), r(1), 8);
        a.subq(r(2), 1, r(2));
        a.bne(r(2), "loop");
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn baseline_runs_to_completion() {
        let rep = simulate(MachineConfig::default_paper(), sum_loop(100), 1_000_000);
        assert_eq!(rep.pipeline.retired, 3 + 100 * 5 + 1);
        assert!(rep.ipc() > 0.1, "ipc = {}", rep.ipc());
        assert!(rep.ipc() <= 6.0);
    }

    #[test]
    fn optimizer_runs_and_checks_values() {
        // The strict checker inside the optimizer panics on any wrong value,
        // so merely completing is a meaningful correctness statement.
        let rep = simulate(
            MachineConfig::default_with_optimizer(),
            sum_loop(200),
            1_000_000,
        );
        assert_eq!(rep.pipeline.retired, 3 + 200 * 5 + 1);
        assert!(rep.optimizer.executed_early > 0);
    }

    #[test]
    fn optimizer_executes_loop_overhead_early() {
        // After value feedback warms up, the loop counter and the array
        // pointer chains collapse (the paper's §2.4 motivating example).
        let rep = simulate(
            MachineConfig::default_with_optimizer(),
            sum_loop(500),
            1_000_000,
        );
        let pct = rep.optimizer.pct_executed_early();
        assert!(
            pct > 10.0,
            "expected substantial early execution, got {pct:.1}%"
        );
    }

    #[test]
    fn optimizer_speeds_up_the_motivating_loop() {
        let base = simulate(MachineConfig::default_paper(), sum_loop(500), 1_000_000);
        let opt = simulate(
            MachineConfig::default_with_optimizer(),
            sum_loop(500),
            1_000_000,
        );
        let s = opt.speedup_over(&base).unwrap();
        assert!(s > 1.0, "speedup = {s:.3}");
    }

    #[test]
    fn mispredict_penalty_visible() {
        // A data-dependent unpredictable branch pattern.
        let mut a = Asm::new();
        // xorshift-ish pseudo-random branch directions
        a.li(r(1), 0x9E3779B97F4A7C15u64 as i64);
        a.li(r(2), 400);
        a.li(r(3), 0);
        a.label("loop");
        a.srl(r(1), 13, r(4));
        a.xor(r(1), r(4), r(1));
        a.sll(r(1), 7, r(4));
        a.xor(r(1), r(4), r(1));
        a.and(r(1), 1, r(5));
        a.beq(r(5), "even");
        a.addq(r(3), 1, r(3));
        a.label("even");
        a.subq(r(2), 1, r(2));
        a.bne(r(2), "loop");
        a.halt();
        let p = a.finish().unwrap();
        let rep = simulate(MachineConfig::default_paper(), p, 1_000_000);
        assert!(
            rep.predictor.cond_mispredictions > 0,
            "the pattern must actually mispredict"
        );
        assert!(rep.pipeline.mispredict_stall_cycles > 0);
    }

    #[test]
    fn stores_then_loads_forward_through_mbc() {
        // Write a small array, then read it back repeatedly: the MBC should
        // remove most of the re-loads.
        let mut a = Asm::new();
        let buf = a.data_zeros(64);
        a.li(r(1), buf as i64);
        a.li(r(2), 77);
        a.stq(r(2), r(1), 0);
        a.stq(r(2), r(1), 8);
        for _ in 0..20 {
            a.ldq(r(3), r(1), 0);
            a.ldq(r(4), r(1), 8);
            a.addq(r(3), r(4), r(5));
        }
        a.halt();
        let rep = simulate(
            MachineConfig::default_with_optimizer(),
            a.finish().unwrap(),
            1_000_000,
        );
        assert!(
            rep.optimizer.loads_removed >= 30,
            "loads_removed = {}",
            rep.optimizer.loads_removed
        );
    }

    #[test]
    fn done_instructions_bypass_the_ooo_core() {
        let mut a = Asm::new();
        for i in 0..50 {
            a.li(r(1), i);
        }
        a.halt();
        let rep = simulate(
            MachineConfig::default_with_optimizer(),
            a.finish().unwrap(),
            1_000_000,
        );
        assert!(rep.pipeline.bypassed_ooo >= 50);
        assert_eq!(
            rep.pipeline.bypassed_ooo + rep.pipeline.dispatched_to_ooo,
            rep.pipeline.retired
        );
    }
}
