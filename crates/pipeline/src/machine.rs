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
//!
//! # Bookkeeping
//!
//! The model's own bookkeeping does work in proportion to events, not to
//! cycles or window size, and writes each instruction's records once.
//! Each of its three structures yields exactly the order of the plain
//! model it stands for — FIFO queues, a priority queue of completions
//! keyed by `(cycle, seq)`, and a scan of every scheduler in every
//! cycle — and its shortcuts skip only work that would change nothing, so
//! no report depends on it:
//!
//! - **One instruction window.** Every instruction lives in one ring of
//!   slots indexed by `seq & mask`, from the emulator step that produces it
//!   to retire. The ROB is `retire_seq..rename_seq`, the fetch queue is
//!   `rename_seq..fetch_seq`, and an instruction stepped but not yet
//!   fetched (an I-cache miss stopped fetch) waits in slot `fetch_seq`. The
//!   ring has more slots than the ROB and fetch queue together can fill,
//!   so no slot is reused while its instruction is in flight. Dispatch,
//!   execute, completion and retire update the slot in place. Both queues
//!   are runs of consecutive sequence numbers, so their order is program
//!   order, as a FIFO's would be.
//! - **Each record is written once.** The emulator steps straight into the
//!   slot of the instruction it produces (`Emulator::step_into`), and
//!   rename reads the bundle there and hands each renamed record to a sink
//!   that writes it into the same slot (`Optimizer::rename_bundle_with`),
//!   where dispatch reads it. Only a bundle that wraps around the end of
//!   the ring is copied, into one scratch buffer, to be renamed.
//! - **A completion calendar.** Completions sit in power-of-two buckets
//!   indexed by cycle, sized from the machine's longest execution latency
//!   up to a fixed cap. An event goes into bucket `max(complete_at,
//!   now + 1)`: the first completion pass after its issue that a priority
//!   queue keyed by `(cycle, seq)` would pop it in. A drained bucket is
//!   sorted by `(cycle, seq)`, and an event a lap or more ahead stays in
//!   its bucket until its cycle comes. Registers are therefore released in
//!   the queue's order, so the free list and every later allocation come
//!   out the same.
//! - **Wakeup-gated issue.** Each scheduler keeps a cycle before which
//!   none of its entries can issue, and the issue stage skips it until
//!   then. Dispatch lowers the bound to the new entry's ready cycle,
//!   executing a producer lowers every scheduler's bound to the producer's
//!   completion (a tag broadcast), and a scan resets it to the minimum over
//!   the entries it leaves. The bound never exceeds the cycle an entry
//!   could first issue, so a skipped scan is one that would have issued
//!   nothing. A scan that does run is the plain one, so oldest-first
//!   order and unit/port arbitration are those of the plain model.
//! - **Idle stages return early.** A stage with nothing to do returns
//!   before its per-cycle setup: completion when the cycle's calendar
//!   bucket is empty, rename when the fetch queue is empty or its head is
//!   not yet ready, and issue when every scheduler's wake bound is in the
//!   future. In each case the full stage would have changed nothing.
//! - **Two source tags per scheduler entry.** A scheduler entry keeps
//!   exactly two source tags, padded with the zero register
//!   (`SrcList::padded`). The zero register is never allocated, so its
//!   ready cycle stays 0 (`dispatch` debug-asserts it), and an entry's
//!   readiness is two loads and two `max`, with no loop over its sources.

use crate::config::MachineConfig;
use crate::stats::PipelineStats;
use contopt::{Optimizer, PhysReg, RenameReq, Renamed, RenamedClass, SrcList, MAX_SRCS};
use contopt_bpred::Predictor;
use contopt_emu::{ArchSnapshot, DynInst, Emulator};
use contopt_isa::{ArchReg, ExecClass, Inst, Program, Reg, STACK_TOP};
use contopt_mem::MemHierarchy;
use std::sync::Arc;

/// Cycles without a retirement after which a run is declared deadlocked.
/// Session validation rejects machines whose delays and latencies add up
/// to this window, because they could stall that long without a bug.
pub const DEADLOCK_WINDOW: u64 = 1_000_000;

/// Upper bound on the completion calendar's bucket count. Events further
/// ahead wrap around and wait in their bucket for the right lap.
const CALENDAR_MAX_BUCKETS: u64 = 1024;

/// End of a calendar bucket's event list.
const NO_EVENT: u64 = u64::MAX;

/// Timing state of one instruction in the window. The instruction itself,
/// as the emulator produced it and fetch annotated it, sits at the same
/// index of `Machine::insts`, so rename can read a bundle in place.
#[derive(Debug, Clone)]
struct Slot {
    /// First cycle rename may take the instruction.
    rename_ready: u64,
    /// What rename made of it; valid once dispatched.
    ren: Renamed,
    /// Cycle its result is ready: the dispatch cycle for an instruction
    /// the optimizer finished, set at execute for the rest, and
    /// `u64::MAX` until then. Retire waits for it.
    complete_at: u64,
}

/// A scheduler slot. It copies what issue reads from the renamed
/// instruction, so scanning the schedulers never touches the window.
#[derive(Debug, Clone, Copy)]
struct SchedEntry {
    seq: u64,
    earliest: u64,
    /// The source tags, padded with the always-ready zero register.
    srcs: [PhysReg; MAX_SRCS],
    class: RenamedClass,
    addr_known: bool,
}

impl SchedEntry {
    /// First cycle the scheduler delay and the operands let the entry
    /// issue; `u64::MAX` while a producer has not issued.
    #[inline]
    fn ready(&self, ready_at: &[u64]) -> u64 {
        let [a, b] = self.srcs;
        self.earliest
            .max(ready_at[a.index()])
            .max(ready_at[b.index()])
    }
}

const INT_SCHED: usize = 0;
const CPLX_SCHED: usize = 1;
const FP_SCHED: usize = 2;
const MEM_SCHED: usize = 3;

/// Pending completions, bucketed by cycle. Each bucket is a list threaded
/// through one link per window slot, so filing and draining events never
/// allocates.
#[derive(Debug)]
struct Calendar {
    /// Per bucket: the sequence number of its newest event, or `NO_EVENT`.
    heads: Box<[u64]>,
    /// Per window slot: the event's completion cycle and the next event in
    /// its bucket.
    links: Box<[(u64, u64)]>,
    bucket_mask: u64,
    slot_mask: u64,
    /// The events due in the current cycle as `(cycle, seq)`, sorted.
    due: Vec<(u64, u64)>,
}

impl Calendar {
    fn new(cfg: &MachineConfig, slots: usize) -> Calendar {
        let h = &cfg.hierarchy;
        let miss = [1, h.l1d_latency, h.l2_latency, h.memory_latency]
            .into_iter()
            .fold(0, u64::saturating_add);
        let longest = cfg
            .regread_delay
            .saturating_add(miss.max(cfg.complex_latency).max(cfg.fp_latency));
        let buckets = longest
            .saturating_add(1)
            .min(CALENDAR_MAX_BUCKETS)
            .next_power_of_two();
        Calendar {
            heads: vec![NO_EVENT; buckets as usize].into_boxed_slice(),
            links: vec![(0, NO_EVENT); slots].into_boxed_slice(),
            bucket_mask: buckets - 1,
            slot_mask: slots as u64 - 1,
            due: Vec::with_capacity(slots),
        }
    }

    /// Files the completion of `seq` at cycle `at`, issued in cycle `now`.
    /// The first completion pass after issue runs in `now + 1`, so an
    /// event that completes sooner waits in that bucket.
    fn push(&mut self, seq: u64, at: u64, now: u64) {
        let bucket = (at.max(now + 1) & self.bucket_mask) as usize;
        self.links[(seq & self.slot_mask) as usize] = (at, self.heads[bucket]);
        self.heads[bucket] = seq;
    }

    /// Whether no event is filed in the bucket of cycle `now`.
    fn idle(&self, now: u64) -> bool {
        self.heads[(now & self.bucket_mask) as usize] == NO_EVENT
    }

    /// Moves the events due at `now` into `due`, sorted by
    /// `(cycle, seq)`; events of a later lap stay in the bucket.
    fn drain(&mut self, now: u64) {
        self.due.clear();
        let bucket = (now & self.bucket_mask) as usize;
        let mut seq = std::mem::replace(&mut self.heads[bucket], NO_EVENT);
        while seq != NO_EVENT {
            let link = &mut self.links[(seq & self.slot_mask) as usize];
            let (at, next) = *link;
            if at <= now {
                self.due.push((at, seq));
            } else {
                link.1 = self.heads[bucket];
                self.heads[bucket] = seq;
            }
            seq = next;
        }
        self.due.sort_unstable();
    }
}

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
/// let mut machine = Machine::new(MachineConfig::default_with_optimizer(), a.finish()?);
/// machine.run(100_000);
/// assert_eq!(machine.stats().retired, 22);
/// assert!(machine.stats().ipc() > 0.0);
/// assert!(machine.optimizer().stats().executed_early > 0);
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
    stream_done: bool,

    // The instruction window: what the emulator produced and fetch learned
    // (`insts`) and the timing state (`slots`), both indexed by `seq & mask`.
    insts: Box<[RenameReq]>,
    slots: Box<[Slot]>,
    mask: u64,
    /// Oldest instruction in flight; `retire_seq..rename_seq` is the ROB.
    retire_seq: u64,
    /// Next instruction to rename; `rename_seq..fetch_seq` is the fetch queue.
    rename_seq: u64,
    /// Next instruction to fetch.
    fetch_seq: u64,
    /// Slot `fetch_seq` holds an instruction stepped but not yet fetched.
    stepped: bool,
    /// Fetch-queue capacity in instructions.
    fetch_capacity: usize,

    fetch_resume_at: u64,
    mispredict_outstanding: bool,

    scheds: [Vec<SchedEntry>; 4],
    /// Per scheduler: no entry can issue before this cycle.
    sched_wake: [u64; 4],
    calendar: Calendar,
    ready_at: Vec<u64>,

    /// Scratch reused every cycle so the steady-state rename path performs
    /// no heap allocation: a bundle that wraps around the end of the window
    /// is copied here to be renamed.
    wrapped_reqs: Vec<RenameReq>,

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
    ///
    /// # Panics
    ///
    /// Panics if the window size overflows
    /// ([`MachineConfig::window_slots`]); session validation rejects such
    /// machines.
    #[expect(
        clippy::expect_used,
        reason = "session validation caps the window size"
    )]
    pub fn new(cfg: MachineConfig, program: impl Into<Arc<Program>>) -> Machine {
        let emu = Emulator::new(program);
        let opt = Optimizer::new(cfg.optimizer, cfg.preg_count, |a: ArchReg| {
            if a == ArchReg::from(Reg::SP) {
                STACK_TOP
            } else {
                0
            }
        });
        let fetch_capacity = cfg.fetch_queue_capacity().expect("fetch queue fits");
        let window = cfg.window_slots().expect("window fits");
        let idle_inst = RenameReq {
            d: DynInst {
                seq: 0,
                pc: 0,
                inst: Inst::Nop,
                result: None,
                eff_addr: None,
                store_value: None,
                taken: false,
                next_pc: 0,
            },
            mispredicted: false,
        };
        let idle_slot = Slot {
            rename_ready: 0,
            ren: Renamed {
                seq: 0,
                class: RenamedClass::Done,
                srcs: SrcList::new(),
                dst: None,
                dst_new: false,
                early_value: None,
                resolved_early: false,
                load_removed: false,
                addr_known: false,
            },
            complete_at: 0,
        };
        Machine {
            hier: MemHierarchy::new(cfg.hierarchy),
            pred: Predictor::new(cfg.predictor),
            calendar: Calendar::new(&cfg, window),
            ready_at: vec![0u64; cfg.preg_count],
            wrapped_reqs: Vec::with_capacity(cfg.fetch_width),
            cfg,
            emu,
            opt,
            cycle: 0,
            stream_done: false,
            insts: vec![idle_inst; window].into_boxed_slice(),
            slots: vec![idle_slot; window].into_boxed_slice(),
            mask: window as u64 - 1,
            retire_seq: 0,
            rename_seq: 0,
            fetch_seq: 0,
            stepped: false,
            fetch_capacity,
            scheds: Default::default(),
            sched_wake: [u64::MAX; 4],
            fold_digest: false,
            stream_digest: contopt_emu::STREAM_DIGEST_INIT,
            fetch_resume_at: 0,
            mispredict_outstanding: false,
            stats: PipelineStats::default(),
        }
    }

    /// Runs the machine until the program halts or `max_insts` dynamic
    /// instructions have retired, then drains the pipeline. The counters
    /// are then read through [`stats`](Self::stats),
    /// [`optimizer`](Self::optimizer), [`predictor`](Self::predictor) and
    /// [`memory`](Self::memory). A machine runs once.
    ///
    /// # Panics
    ///
    /// Panics on a strict-value-check failure, on exceeding
    /// [`MachineConfig::max_cycles`], or if the pipeline deadlocks (both
    /// indicate simulator bugs).
    pub fn run(&mut self, max_insts: u64) {
        self.run_loop(max_insts);
    }

    /// Like [`run`](Self::run), but also returns the end-of-run
    /// architectural state ([`ArchSnapshot`]): register files, memory
    /// content digest, and the retired-stream digest folded at retire
    /// time. Differential tests use this to prove the optimized pipeline
    /// changes timing, never semantics.
    pub fn run_with_state(&mut self, max_insts: u64) -> ArchSnapshot {
        self.fold_digest = true;
        self.run_loop(max_insts);
        ArchSnapshot::capture(&self.emu, self.stats.retired, self.stream_digest)
    }

    /// The cycle-level pipeline counters.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// The continuous optimizer in the rename stage, with its Table 3 and
    /// Memory Bypass Cache counters.
    pub fn optimizer(&self) -> &Optimizer {
        &self.opt
    }

    /// The front-end branch predictor.
    pub fn predictor(&self) -> &Predictor {
        &self.pred
    }

    /// The cache hierarchy.
    pub fn memory(&self) -> &MemHierarchy {
        &self.hier
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
            } else if self.cycle - last_progress.0 > DEADLOCK_WINDOW {
                panic!(
                    "pipeline deadlock at cycle {} (retired {}, rob {}, fq {})",
                    self.cycle,
                    self.stats.retired,
                    self.rename_seq - self.retire_seq,
                    self.fetch_seq - self.rename_seq
                );
            }
        }
        self.stats.cycles = self.cycle.max(1);
    }

    fn finished(&self) -> bool {
        self.stream_done && !self.stepped && self.retire_seq == self.fetch_seq
    }

    /// The window slot of instruction `seq`.
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    // ---- stream --------------------------------------------------------

    /// Steps the emulator into slot `fetch_seq` unless an instruction
    /// already waits there; returns whether one does.
    #[expect(
        clippy::expect_used,
        reason = "suite programs execute cleanly under the reference emulator"
    )]
    fn step_stream(&mut self, max_insts: u64) -> bool {
        if !self.stepped && !self.stream_done {
            if self.fetch_seq >= max_insts {
                self.stream_done = true;
            } else {
                let i = self.slot(self.fetch_seq);
                let req = &mut self.insts[i];
                if self
                    .emu
                    .step_into(&mut req.d)
                    .expect("workload executes cleanly")
                {
                    if matches!(req.d.inst, Inst::Halt) {
                        self.stream_done = true;
                    }
                    self.stepped = true;
                } else {
                    self.stream_done = true;
                }
            }
        }
        self.stepped
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
        let rename_ready = self.cycle + self.cfg.front_depth + self.cfg.optimizer_extra_stages();
        let mut fetched = 0;
        let mut line: Option<u64> = None;
        while fetched < self.cfg.fetch_width
            && ((self.fetch_seq - self.rename_seq) as usize) < self.fetch_capacity
        {
            if !self.step_stream(max_insts) {
                break;
            }
            let i = self.slot(self.fetch_seq);
            // Instruction cache: one access per line per fetch cycle.
            let pc = self.insts[i].d.pc;
            let line_addr = self.hier.inst_line(pc);
            if line != Some(line_addr) {
                let lat = self.hier.inst_fetch(pc);
                line = Some(line_addr);
                if lat > self.cfg.hierarchy.l1i_latency {
                    // Miss: the line fills; fetch resumes once it arrives.
                    self.fetch_resume_at = self.cycle + lat - self.cfg.hierarchy.l1i_latency;
                    break;
                }
            }
            self.stepped = false;
            self.fetch_seq += 1;
            fetched += 1;
            let req = &mut self.insts[i];
            req.mispredicted = predict(&mut self.pred, &req.d);
            self.slots[i].rename_ready = rename_ready;
            if req.mispredicted {
                self.mispredict_outstanding = true;
                break;
            }
            if req.d.redirects() {
                break; // taken control flow ends the fetch block
            }
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

    fn rename_and_dispatch(&mut self) {
        if self.rename_seq == self.fetch_seq
            || self.slots[self.slot(self.rename_seq)].rename_ready > self.cycle
        {
            return; // nothing has left the front end
        }
        let mut rob_free = self.cfg.rob_entries - (self.rename_seq - self.retire_seq) as usize;
        // Scheduler slots are reserved against the *unoptimized* class; the
        // optimizer occasionally moves an instruction to the int scheduler
        // (strength-reduced multiplies, expression-forwarded loads), so the
        // occupancy may transiently exceed the nominal capacity by less than
        // one rename bundle — hence the saturating arithmetic.
        let mut sched_free = self
            .scheds
            .each_ref()
            .map(|s| self.cfg.scheduler_entries.saturating_sub(s.len()));
        let queued = (self.fetch_seq - self.rename_seq) as usize;
        let mut n = 0;
        while n < self.cfg.fetch_width.min(queued) {
            let i = self.slot(self.rename_seq + n as u64);
            if self.slots[i].rename_ready > self.cycle {
                break;
            }
            if rob_free == 0 {
                self.stats.rob_stall_cycles += 1;
                break;
            }
            // Conservative structural pre-check: reserve a slot in the
            // scheduler the unoptimized instruction would use (the
            // optimizer can only reduce pressure).
            if let Some(s) = Self::sched_for(self.insts[i].d.inst.class()) {
                if sched_free[s] == 0 {
                    self.stats.sched_stall_cycles += 1;
                    break;
                }
                sched_free[s] -= 1;
            }
            rob_free -= 1;
            n += 1;
        }
        if n == 0 {
            return;
        }
        let first = self.slot(self.rename_seq);
        let reqs = if first + n <= self.insts.len() {
            &self.insts[first..first + n]
        } else {
            let wrap = first + n - self.insts.len();
            self.wrapped_reqs.clear();
            self.wrapped_reqs.extend_from_slice(&self.insts[first..]);
            self.wrapped_reqs.extend_from_slice(&self.insts[..wrap]);
            &self.wrapped_reqs
        };
        // Rename writes each record into its instruction's slot; dispatch
        // then reads it there.
        let (slots, mask) = (&mut self.slots, self.mask);
        let mut next = self.rename_seq;
        self.opt.rename_bundle_with(self.cycle, reqs, |ren| {
            debug_assert_eq!(ren.seq, next, "rename keeps program order");
            next += 1;
            let i = (ren.seq & mask) as usize;
            slots[i].ren = ren;
        });
        while self.rename_seq < next {
            self.dispatch();
        }
    }

    /// Dispatches instruction `rename_seq`, whose renamed record rename
    /// has written into its slot.
    #[expect(
        clippy::expect_used,
        reason = "renamed-class invariants established at rename time"
    )]
    fn dispatch(&mut self) {
        let seq = self.rename_seq;
        self.rename_seq += 1;
        let now = self.cycle;
        let i = self.slot(seq);
        let ren = &self.slots[i].ren;
        debug_assert_eq!(
            self.ready_at[PhysReg::ZERO.index()],
            0,
            "the zero register pads source tags, so it is always ready"
        );
        if let (Some(dst), true) = (ren.dst, ren.dst_new) {
            self.ready_at[dst.index()] = u64::MAX;
        }
        let complete_at = match ren.class {
            RenamedClass::Done => {
                // Fully handled in the optimizer: completes immediately and
                // only waits for retirement.
                self.stats.bypassed_ooo += 1;
                if ren.load_removed {
                    self.stats.loads_bypassed += 1;
                }
                let req = &self.insts[i];
                if let (Some(dst), true) = (ren.dst, ren.dst_new) {
                    let v = ren
                        .early_value
                        .or(req.d.result)
                        .expect("early destination has a value");
                    self.ready_at[dst.index()] = now;
                    self.opt.complete(dst, v, now);
                    self.opt.release(dst); // producer claim
                }
                if req.mispredicted {
                    debug_assert!(ren.resolved_early || req.d.inst.is_control());
                    self.redirect(now, true);
                }
                now
            }
            class => {
                self.stats.dispatched_to_ooo += 1;
                let sched = Self::sched_for_renamed(class).expect("non-Done class");
                let entry = SchedEntry {
                    seq,
                    earliest: now + self.cfg.sched_delay,
                    srcs: ren.srcs.padded(),
                    class,
                    addr_known: ren.addr_known,
                };
                let wake = &mut self.sched_wake[sched];
                *wake = (*wake).min(entry.ready(&self.ready_at));
                self.scheds[sched].push(entry);
                u64::MAX
            }
        };
        self.slots[i].complete_at = complete_at;
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

    fn issue(&mut self) {
        let now = self.cycle;
        if self.sched_wake.iter().all(|&wake| now < wake) {
            return; // no scheduler can issue yet
        }
        let mut fu_left = [
            self.cfg.simple_int_fus,
            self.cfg.complex_int_fus,
            self.cfg.fp_fus,
            self.cfg.agen_fus,
        ];
        let mut dports_left = self.cfg.hierarchy.l1d_ports as usize;

        for sched in 0..4 {
            if now < self.sched_wake[sched] {
                continue;
            }
            // Rebuilt by the scan from the entries it leaves (and lowered
            // by whatever executes meanwhile).
            self.sched_wake[sched] = u64::MAX;
            let mut i = 0;
            while i < self.scheds[sched].len() {
                let e = self.scheds[sched][i];
                let ready = e.ready(&self.ready_at);
                if ready > now {
                    self.sched_wake[sched] = self.sched_wake[sched].min(ready);
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
                    self.sched_wake[sched] = self.sched_wake[sched].min(now + 1);
                    i += 1;
                    continue;
                }
                self.scheds[sched].remove(i);
                self.execute(e.seq);
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "memory ops carry effective addresses from the emulator"
    )]
    fn execute(&mut self, seq: u64) {
        let now = self.cycle;
        let i = self.slot(seq);
        let ren = &self.slots[i].ren;
        let (class, addr_known) = (ren.class, ren.addr_known);
        let dst = ren.dst.filter(|_| ren.dst_new);
        let exec_lat = match class {
            RenamedClass::SimpleInt => 1,
            RenamedClass::ComplexInt => self.cfg.complex_latency,
            RenamedClass::Fp => self.cfg.fp_latency,
            RenamedClass::Load => {
                let addr = self.insts[i].d.eff_addr.expect("load has an address");
                self.stats.dcache_loads += 1;
                let agen = if addr_known { 0 } else { 1 };
                agen + self.hier.data_access(addr, false)
            }
            RenamedClass::Store => 1, // address generation; data written at retire
            RenamedClass::Done => unreachable!(),
        };
        let complete_at = now + self.cfg.regread_delay + exec_lat;
        self.slots[i].complete_at = complete_at;
        if let Some(dst) = dst {
            self.ready_at[dst.index()] = complete_at;
            // Tag broadcast: consumers of `dst` may issue from `complete_at`.
            for wake in &mut self.sched_wake {
                *wake = (*wake).min(complete_at);
            }
        }
        self.calendar.push(seq, complete_at, now);
    }

    #[expect(clippy::expect_used, reason = "writers always produce a result value")]
    fn process_completions(&mut self) {
        if self.calendar.idle(self.cycle) {
            return;
        }
        self.calendar.drain(self.cycle);
        for k in 0..self.calendar.due.len() {
            let (t, seq) = self.calendar.due[k];
            let i = self.slot(seq);
            let ren = &self.slots[i].ren;
            let req = &self.insts[i];
            for &p in &ren.srcs {
                self.opt.release(p);
            }
            if let (Some(dst), true) = (ren.dst, ren.dst_new) {
                self.opt
                    .complete(dst, req.d.result.expect("writer has a result"), t);
                self.opt.release(dst); // producer claim
            }
            if req.mispredicted && req.d.inst.is_control() {
                self.redirect(t, false);
            }
        }
    }

    // ---- retire -----------------------------------------------------------

    #[expect(clippy::expect_used, reason = "stores carry effective addresses")]
    fn retire(&mut self) {
        let mut n = 0;
        while n < self.cfg.retire_width && self.retire_seq < self.rename_seq {
            let i = self.slot(self.retire_seq);
            if self.slots[i].complete_at > self.cycle {
                break;
            }
            let d = &self.insts[i].d;
            if d.inst.is_store() {
                let addr = d.eff_addr.expect("store has an address");
                self.hier.data_access(addr, true);
            }
            if self.fold_digest {
                self.stream_digest = d.fold_digest(self.stream_digest);
            }
            self.retire_seq += 1;
            self.stats.retired += 1;
            n += 1;
        }
    }
}

/// Consults/updates the predictor; returns whether the front end
/// mispredicted this instruction.
fn predict(pred: &mut Predictor, d: &DynInst) -> bool {
    match d.inst {
        Inst::Br { target, .. } => !pred.update_cond(d.pc, d.taken, target),
        Inst::Bru { .. } => false, // direct, decoded in the front end
        Inst::Bsr { .. } => {
            pred.push_return(d.pc.wrapping_add(4));
            false
        }
        Inst::Jmp { rd, ra } => {
            let is_return = rd.is_zero() && ra == Reg::RA;
            if is_return {
                !pred.predict_return(d.next_pc)
            } else {
                !pred.update_indirect(d.pc, d.next_pc)
            }
        }
        _ => false,
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

    /// Runs `program` on a `cfg` machine to completion.
    fn run(cfg: MachineConfig, program: Program) -> Machine {
        let mut m = Machine::new(cfg, program);
        m.run(1_000_000);
        m
    }

    #[test]
    fn baseline_runs_to_completion() {
        let m = run(MachineConfig::default_paper(), sum_loop(100));
        let s = m.stats();
        assert_eq!(s.retired, 3 + 100 * 5 + 1);
        assert!(s.ipc() > 0.1, "ipc = {}", s.ipc());
        assert!(s.ipc() <= 6.0);
    }

    #[test]
    fn optimizer_runs_and_checks_values() {
        // The strict checker inside the optimizer panics on any wrong value,
        // so merely completing is a meaningful correctness statement.
        let m = run(MachineConfig::default_with_optimizer(), sum_loop(200));
        assert_eq!(m.stats().retired, 3 + 200 * 5 + 1);
        assert!(m.optimizer().stats().executed_early > 0);
    }

    #[test]
    fn optimizer_executes_loop_overhead_early() {
        // After value feedback warms up, the loop counter and the array
        // pointer chains collapse (the paper's §2.4 motivating example).
        let m = run(MachineConfig::default_with_optimizer(), sum_loop(500));
        let pct = m.optimizer().stats().pct_executed_early();
        assert!(
            pct > 10.0,
            "expected substantial early execution, got {pct:.1}%"
        );
    }

    #[test]
    fn optimizer_speeds_up_the_motivating_loop() {
        let base = run(MachineConfig::default_paper(), sum_loop(500));
        let opt = run(MachineConfig::default_with_optimizer(), sum_loop(500));
        assert_eq!(base.stats().retired, opt.stats().retired);
        let s = base.stats().cycles as f64 / opt.stats().cycles as f64;
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
        let m = run(MachineConfig::default_paper(), p);
        assert!(
            m.predictor().stats().cond_mispredictions > 0,
            "the pattern must actually mispredict"
        );
        assert!(m.stats().mispredict_stall_cycles > 0);
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
        let m = run(MachineConfig::default_with_optimizer(), a.finish().unwrap());
        let loads_removed = m.optimizer().stats().loads_removed;
        assert!(loads_removed >= 30, "loads_removed = {loads_removed}");
    }

    #[test]
    fn done_instructions_bypass_the_ooo_core() {
        let mut a = Asm::new();
        for i in 0..50 {
            a.li(r(1), i);
        }
        a.halt();
        let m = run(MachineConfig::default_with_optimizer(), a.finish().unwrap());
        let s = m.stats();
        assert!(s.bypassed_ooo >= 50);
        assert_eq!(s.bypassed_ooo + s.dispatched_to_ooo, s.retired);
    }
}
