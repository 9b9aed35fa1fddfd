//! The traced run: per-layer metrics of one workload.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions, kept in memory, and written at exit to
//! `perfbench/traces/<workload>-seed<seed>.jsonl`. The run:
//!
//! 1. times the set-up layers (scenario load, suite build);
//! 2. runs the workload's cells through `Lab::execute` untraced, then again
//!    as one `SimSession::run` span per cell on the same number of workers
//!    (the difference is the tracing overhead);
//! 3. serves the cells from a loopback server, cold and then warm, with
//!    spans around the client's submit and fetch calls and around
//!    `SweepEngine::sweep` on the warm cache;
//! 4. runs every fig9 machine on the workload's kernels one cell at a time,
//!    each followed by a replay of the cell's emulator stream through the
//!    emulator, predictor, memory hierarchy and optimizer APIs in the order
//!    `Machine` calls them, and checks that each replay reproduces its
//!    layer's work;
//! 5. times the four cells `BENCH_throughput.json` tracked.

use crate::cells::{Cell, CellSet, Expected, Tally, FIG9};
use crate::{median, Args, Metric, Outcome};
use contopt_client::protocol::{read_frame, write_frame, CellReply, Message};
use contopt_client::Client;
use contopt_experiments::Lab;
use contopt_server::{Server, ServerConfig, ServerHandle, SweepCell};
use contopt_sim::bpred::{Predictor, PredictorStats};
use contopt_sim::emu::{DynInst, Emulator, Step};
use contopt_sim::isa::{ArchReg, Inst, Reg, STACK_TOP};
use contopt_sim::mem::{CacheStats, MemHierarchy};
use contopt_sim::{
    JsonValue, MachineConfig, Optimizer, RenameReq, Renamed, RenamedClass, Report, Scenario,
    SimSession,
};
use std::collections::BTreeSet;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Instructions per replay chunk: each layer runs over a whole chunk
/// between two clock reads, so the clock costs nothing measurable.
const CHUNK: usize = 1 << 14;

/// Warm resubmissions after the served cold sweep.
const WARM_RESUBMISSIONS: u64 = 100;

/// Repetitions of the cheap timed calls (set-up layers, warm engine
/// sweeps, frame encode/decode).
const REPS: usize = 9;

/// The cells `BENCH_throughput.json` tracked: two kernels under the
/// baseline and the all-passes machine at 150k instructions.
const THROUGHPUT_KERNELS: [&str; 2] = ["mcf", "untst"];
const THROUGHPUT_INSTS: u64 = 150_000;

// ---- spans ---------------------------------------------------------------

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    cell: String,
    start: Duration,
    end: Duration,
}

/// An in-memory span recorder. Span ids start at 1; parent 0 is the root.
struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` (given its own span id) inside a span; returns `f`'s
    /// result and the span's duration.
    fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        cell: &str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(id);
        let end = self.origin.elapsed();
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Span {
                id,
                parent,
                name,
                cell: cell.to_string(),
                start,
                end,
            });
        (out, end - start)
    }

    /// Writes the stamp, then one JSON object per span, in start order.
    fn write(self, path: &Path, stamp: JsonValue) -> std::io::Result<()> {
        let mut spans = self.spans.into_inner().unwrap_or_else(|e| e.into_inner());
        spans.sort_by_key(|s| (s.start, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", JsonValue::obj([("stamp", stamp)]))?;
        for s in spans {
            let line = JsonValue::obj([
                ("id", s.id.into()),
                ("parent", s.parent.into()),
                ("name", s.name.into()),
                ("cell", s.cell.into()),
                ("start_ns", (s.start.as_nanos() as u64).into()),
                ("end_ns", (s.end.as_nanos() as u64).into()),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// What every step of the traced run records into.
struct Ctx {
    /// Expected reports of every cell the run simulates.
    exp: Expected,
    tally: Tally,
    tr: Tracer,
    m: Vec<Metric>,
}

fn cell_name(c: &Cell) -> String {
    format!("{}/{}", c.label, c.kernel.name)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// `part / whole`, or 0 when nothing was counted.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Median wall time of `REPS` calls of `f`.
fn time_reps<T>(mut f: impl FnMut() -> T) -> Duration {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            secs(t.elapsed())
        })
        .collect();
    Duration::from_secs_f64(median(&times))
}

// ---- layer replays -------------------------------------------------------

/// What one replay of a cell's emulator stream did and how long each layer
/// took.
#[derive(Default)]
struct Replay {
    steps: u64,
    emu: Duration,
    bpred: Duration,
    mem: Duration,
    rename: Duration,
    lookups: u64,
    predictor: PredictorStats,
    l1d: CacheStats,
    l1i_accesses: u64,
}

/// Feeds the predictor the way `Machine::predict` does; returns whether the
/// front end mispredicted `d`, or `None` when `d` needs no prediction.
fn predict(pred: &mut Predictor, d: &DynInst) -> Option<bool> {
    match d.inst {
        Inst::Br { target, .. } => Some(!pred.update_cond(d.pc, d.taken, target)),
        Inst::Bsr { .. } => {
            pred.push_return(d.pc.wrapping_add(4));
            Some(false)
        }
        Inst::Jmp { rd, ra } if rd.is_zero() && ra == Reg::RA => {
            Some(!pred.predict_return(d.next_pc))
        }
        Inst::Jmp { .. } => Some(!pred.update_indirect(d.pc, d.next_pc)),
        _ => None,
    }
}

/// Recycles a renamed instruction's physical registers the way the machine
/// does when it completes: consumers release their sources, and a new
/// destination gets its value and drops the producer claim.
fn retire(opt: &mut Optimizer, ren: &Renamed, d: &DynInst, now: u64) -> Result<(), String> {
    if ren.class != RenamedClass::Done {
        for &p in &ren.srcs {
            opt.release(p);
        }
    }
    if let (Some(dst), true) = (ren.dst, ren.dst_new) {
        let value = if ren.class == RenamedClass::Done {
            ren.early_value.or(d.result)
        } else {
            d.result
        };
        let value = value.ok_or_else(|| format!("pc {:#x}: writer without a value", d.pc))?;
        opt.complete(dst, value, now);
        opt.release(dst);
    }
    Ok(())
}

/// Replays `cell`'s emulator stream through each layer's API, one chunk at
/// a time, with a span per layer per chunk.
fn replay(cell: &Cell, insts: u64, tr: &Tracer, parent: u64) -> Result<Replay, String> {
    let cfg = cell.machine;
    let name = cell_name(cell);
    let mut emu = Emulator::new(Arc::clone(&cell.kernel.program));
    let mut pred = Predictor::new(cfg.predictor);
    let mut hier = MemHierarchy::new(cfg.hierarchy);
    let mut opt = Optimizer::new(cfg.optimizer, cfg.preg_count, |a: ArchReg| {
        if a == ArchReg::from(Reg::SP) {
            STACK_TOP
        } else {
            0
        }
    });
    let line_bytes = cfg.hierarchy.l1i.line_bytes;
    let mut r = Replay::default();
    let mut chunk: Vec<DynInst> = Vec::with_capacity(CHUNK);
    let mut mispredicted: Vec<bool> = Vec::with_capacity(CHUNK);
    let mut reqs: Vec<RenameReq> = Vec::with_capacity(cfg.fetch_width);
    let mut renamed: Vec<Renamed> = Vec::with_capacity(cfg.fetch_width);
    let (mut line, mut now, mut done) = (None, 0u64, false);
    while !done {
        chunk.clear();
        let (stepped, t) = tr.span("Emulator::step", parent, &name, |_| {
            while chunk.len() < CHUNK {
                if r.steps >= insts {
                    return Ok(true);
                }
                match emu.step().map_err(|e| format!("{name}: {e}"))? {
                    Step::Inst(d) => {
                        r.steps += 1;
                        chunk.push(d);
                        if matches!(d.inst, Inst::Halt) {
                            return Ok(true);
                        }
                    }
                    Step::Halted => return Ok(true),
                }
            }
            Ok::<_, String>(false)
        });
        done = stepped?;
        r.emu += t;

        mispredicted.clear();
        let ((), t) = tr.span("Predictor", parent, &name, |_| {
            for d in &chunk {
                let miss = predict(&mut pred, d);
                r.lookups += u64::from(miss.is_some());
                mispredicted.push(miss.unwrap_or(false));
            }
        });
        r.bpred += t;

        let ((), t) = tr.span("MemHierarchy", parent, &name, |_| {
            for d in &chunk {
                let l = d.pc / line_bytes;
                if line != Some(l) {
                    hier.inst_fetch(d.pc);
                    line = Some(l);
                    r.l1i_accesses += 1;
                }
                if let Some(addr) = d.eff_addr {
                    if d.inst.is_load() || d.inst.is_store() {
                        hier.data_access(addr, d.inst.is_store());
                    }
                }
            }
        });
        r.mem += t;

        let (renamed_ok, t) = tr.span("Optimizer::rename_bundle_into", parent, &name, |_| {
            let width = cfg.fetch_width;
            for (ds, ms) in chunk.chunks(width).zip(mispredicted.chunks(width)) {
                reqs.clear();
                reqs.extend(
                    ds.iter()
                        .zip(ms)
                        .map(|(&d, &m)| RenameReq { d, mispredicted: m }),
                );
                renamed.clear();
                opt.rename_bundle_into(now, &reqs, &mut renamed);
                if renamed.len() != reqs.len() {
                    return Err(format!("{name}: rename stalled with recycled registers"));
                }
                for (ren, req) in renamed.iter().zip(&reqs) {
                    retire(&mut opt, ren, &req.d, now)?;
                }
                now += 1;
            }
            Ok(())
        });
        renamed_ok?;
        r.rename += t;
    }
    r.predictor = pred.stats();
    r.l1d = hier.stats().l1d;
    Ok(r)
}

/// One layer cell: the machine's run of it and the replay of its stream.
struct LayerCell {
    label: String,
    machine: Duration,
    report: Report,
    replay: Replay,
}

/// Counts of replays that disagreed with the machine, by layer.
#[derive(Default)]
struct Fidelity {
    steps: u64,
    bpred: u64,
    l1d: u64,
    failed: u64,
}

impl Fidelity {
    fn flag(counter: &mut u64, cell: &str, what: &str) {
        *counter += 1;
        eprintln!("perfbench: REPLAY MISMATCH {cell}: {what}");
    }

    /// Checks a replay against the machine's report. Stall-on-mispredict
    /// fetch sees each instruction exactly once, so the predictor replay
    /// matches on every cell; the L1D replay matches only on the baseline,
    /// where no load is removed by the optimizer.
    fn check(&mut self, cell: &Cell, r: &Replay, report: &Report) {
        let name = cell_name(cell);
        if r.steps != report.pipeline.retired {
            let what = format!(
                "emu.steps {} != retired {}",
                r.steps, report.pipeline.retired
            );
            Fidelity::flag(&mut self.steps, &name, &what);
        }
        if r.predictor != report.predictor {
            let what = format!("predictor {:?} != {:?}", r.predictor, report.predictor);
            Fidelity::flag(&mut self.bpred, &name, &what);
        }
        if !cell.machine.optimizer.enabled && r.l1d != report.memory.l1d {
            let what = format!("l1d {:?} != {:?}", r.l1d, report.memory.l1d);
            Fidelity::flag(&mut self.l1d, &name, &what);
        }
    }
}

/// Runs every layer cell serially: the machine, then the replay.
fn layer_cells(
    set: &CellSet,
    cx: &mut Ctx,
    json_times: &mut Vec<f64>,
    fidelity: &mut Fidelity,
) -> Result<Vec<LayerCell>, String> {
    let tr = &cx.tr;
    let mut out = Vec::new();
    for c in &set.cells {
        let name = cell_name(c);
        let session = c.session(set.insts)?;
        let (report, machine) = tr.span("SimSession::run", 0, &name, |_| {
            catch_unwind(AssertUnwindSafe(|| session.run()))
        });
        let Ok(report) = report else {
            cx.tally.fail_all(1, &format!("{name} panicked"));
            continue;
        };
        let (text, t) = tr.span("Report::canonical_json", 0, &name, |_| {
            report.canonical_json()
        });
        json_times.push(secs(t));
        cx.tally
            .check(&cx.exp, &c.label, c.kernel.name, Some(&text));
        let (replayed, _) = tr.span("replay", 0, &name, |id| {
            catch_unwind(AssertUnwindSafe(|| replay(c, set.insts, tr, id)))
        });
        let replay = match replayed {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                Fidelity::flag(&mut fidelity.failed, &name, &e);
                continue;
            }
            Err(_) => {
                Fidelity::flag(&mut fidelity.failed, &name, "replay panicked");
                continue;
            }
        };
        fidelity.check(c, &replay, &report);
        out.push(LayerCell {
            label: c.metric_label(),
            machine,
            report,
            replay,
        });
    }
    Ok(out)
}

/// Metrics of the machine and its layers, summed over the layer cells.
fn layer_metrics(cells: &[LayerCell], m: &mut Vec<Metric>) {
    let sum = |f: &dyn Fn(&LayerCell) -> f64| cells.iter().map(f).sum::<f64>();
    let steps = sum(&|c| c.replay.steps as f64);
    let per_inst = |f: &dyn Fn(&LayerCell) -> Duration| sum(&|c| secs(f(c)) * 1e9) / steps;
    m.push(Metric::new(
        "emu.ns_per_inst",
        per_inst(&|c| c.replay.emu),
        "ns",
    ));
    m.push(Metric::new("emu.steps", steps, "count"));

    m.push(Metric::new(
        "bpred.ns_per_inst",
        per_inst(&|c| c.replay.bpred),
        "ns",
    ));
    m.push(Metric::new(
        "bpred.lookups",
        sum(&|c| c.replay.lookups as f64),
        "count",
    ));
    let cond = sum(&|c| c.report.predictor.cond_predictions as f64);
    let cond_miss = sum(&|c| c.report.predictor.cond_mispredictions as f64);
    m.push(Metric::new(
        "bpred.cond_mispredict_ratio",
        ratio(cond_miss, cond),
        "ratio",
    ));

    m.push(Metric::new(
        "mem.ns_per_inst",
        per_inst(&|c| c.replay.mem),
        "ns",
    ));
    let l1d = sum(&|c| c.report.memory.l1d.accesses as f64);
    let l1d_miss = sum(&|c| c.report.memory.l1d.misses() as f64);
    let l2 = sum(&|c| c.report.memory.l2.accesses as f64);
    let l2_miss = sum(&|c| c.report.memory.l2.misses() as f64);
    let l1i = sum(&|c| c.report.memory.l1i.accesses as f64);
    m.push(Metric::new("mem.l1d_accesses", l1d, "count"));
    m.push(Metric::new(
        "mem.l1d_miss_ratio",
        ratio(l1d_miss, l1d),
        "ratio",
    ));
    m.push(Metric::new(
        "mem.l2_miss_ratio",
        ratio(l2_miss, l2),
        "ratio",
    ));
    let l1i_replay = sum(&|c| c.replay.l1i_accesses as f64);
    m.push(Metric::new(
        "mem.l1i_replay_ratio",
        ratio(l1i_replay, l1i),
        "ratio",
    ));

    let early = sum(&|c| c.report.optimizer.executed_early as f64);
    let removed = sum(&|c| c.report.optimizer.loads_removed as f64);
    let mbc_hits = sum(&|c| c.report.mbc.hits as f64);
    let mbc_lookups = sum(&|c| c.report.mbc.lookups as f64);
    m.push(Metric::new("core.executed_early", early, "count"));
    m.push(Metric::new("core.loads_removed", removed, "count"));
    m.push(Metric::new(
        "core.mbc_hit_ratio",
        ratio(mbc_hits, mbc_lookups),
        "ratio",
    ));

    let labels: BTreeSet<&str> = cells.iter().map(|c| c.label.as_str()).collect();
    for label in labels {
        let of: Vec<&LayerCell> = cells.iter().filter(|c| c.label == label).collect();
        let s = |f: &dyn Fn(&LayerCell) -> f64| of.iter().map(|c| f(c)).sum::<f64>();
        let ns = |f: &dyn Fn(&LayerCell) -> Duration| s(&|c| secs(f(c)) * 1e9);
        let retired = s(&|c| c.report.pipeline.retired as f64);
        let cycles = s(&|c| c.report.pipeline.cycles as f64);
        let machine = ns(&|c| c.machine);
        let replays = ns(&|c| c.replay.emu + c.replay.bpred + c.replay.mem + c.replay.rename);
        let rename = ns(&|c| c.replay.rename);
        m.push(Metric::new(
            format!("core.rename_ns_per_inst.{label}"),
            rename / retired,
            "ns",
        ));
        m.push(Metric::new(
            format!("pipeline.ns_per_inst.{label}"),
            machine / retired,
            "ns",
        ));
        m.push(Metric::new(
            format!("pipeline.ns_per_cycle.{label}"),
            machine / cycles,
            "ns",
        ));
        m.push(Metric::new(
            format!("pipeline.self_ns_per_inst.{label}"),
            (machine - replays) / retired,
            "ns",
        ));
    }
    let retired = sum(&|c| c.report.pipeline.retired as f64);
    let cycles = sum(&|c| c.report.pipeline.cycles as f64);
    m.push(Metric::new("pipeline.retired", retired, "count"));
    m.push(Metric::new("pipeline.cycles", cycles, "count"));
    m.push(Metric::new("pipeline.cpi", cycles / retired, "ratio"));
}

// ---- local sweep -----------------------------------------------------------

/// `Lab::execute` untraced, then the same cells as one span per
/// `SimSession::run` on the same number of workers.
fn local(set: &CellSet, jobs: usize, cx: &mut Ctx) -> Result<f64, String> {
    let tr = &cx.tr;
    let mut lab = Lab::new(set.insts);
    let plan = set.plan();
    let (ran, execute) = tr.span("Lab::execute", 0, "", |_| {
        catch_unwind(AssertUnwindSafe(|| lab.execute(&plan, jobs)))
    });
    if ran.is_err() {
        cx.tally.fail_all(set.cells.len(), "Lab::execute panicked");
    }
    for c in &set.cells {
        let text = lab
            .cached(&c.machine, c.kernel.name)
            .map(|r| r.canonical_json());
        cx.tally
            .check(&cx.exp, &c.label, c.kernel.name, text.as_deref());
    }

    let sessions = set
        .cells
        .iter()
        .map(|c| c.session(set.insts))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    let busy_ns = AtomicU64::new(0);
    let first_idle = Mutex::new(None::<Instant>);
    let reports: Mutex<Vec<Option<Report>>> = Mutex::new(vec![None; sessions.len()]);
    let ((), traced) = tr.span("traced_sweep", 0, "", |parent| {
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(session) = sessions.get(i) else {
                        let mut idle = first_idle.lock().unwrap_or_else(|e| e.into_inner());
                        idle.get_or_insert_with(Instant::now);
                        return;
                    };
                    let name = cell_name(&set.cells[i]);
                    let (report, t) = tr.span("SimSession::run", parent, &name, |_| {
                        catch_unwind(AssertUnwindSafe(|| session.run())).ok()
                    });
                    busy_ns.fetch_add(t.as_nanos() as u64, Ordering::Relaxed);
                    reports.lock().unwrap_or_else(|e| e.into_inner())[i] = report;
                });
            }
        });
    });
    let end = Instant::now();
    let reports = reports.into_inner().unwrap_or_else(|e| e.into_inner());
    for (c, r) in set.cells.iter().zip(&reports) {
        let text = r.as_ref().map(Report::canonical_json);
        cx.tally
            .check(&cx.exp, &c.label, c.kernel.name, text.as_deref());
    }
    let idle = first_idle.into_inner().unwrap_or_else(|e| e.into_inner());
    let tail = idle.map_or(Duration::ZERO, |t| end.saturating_duration_since(t));
    let busy = busy_ns.into_inner() as f64 / 1e9;
    let m = &mut cx.m;
    m.push(Metric::new("lab.execute_s", secs(execute), "s"));
    m.push(Metric::new(
        "lab.busy_ratio",
        busy / (jobs as f64 * secs(traced)),
        "ratio",
    ));
    m.push(Metric::new("lab.tail_s", secs(tail), "s"));
    m.push(Metric::new(
        "trace.overhead_ratio",
        secs(traced) / secs(execute),
        "ratio",
    ));
    Ok(secs(execute))
}

// ---- served sweep ----------------------------------------------------------

/// Binds a loopback sweep server with `jobs` workers and pings it.
fn serve(jobs: usize) -> Result<(ServerHandle, Client), String> {
    let config = ServerConfig {
        jobs,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config)
        .and_then(Server::spawn)
        .map_err(|e| format!("loopback server: {e}"))?;
    let client = Client::new(server.addr().to_string());
    client.ping().map_err(|e| format!("ping: {e}"))?;
    Ok((server, client))
}

/// Serves the cells from a loopback server: one cold submission, then warm
/// resubmissions, then `SweepEngine::sweep` on the warm cache directly.
fn served(set: &CellSet, jobs: usize, seed: u64, local_s: f64, cx: &mut Ctx) -> Result<(), String> {
    let tr = &cx.tr;
    let n = set.cells.len();
    let (server, client) = serve(jobs)?;
    let (mut simulated, mut hits, mut errors, mut retries) = (0, 0, 0, 0);
    let (mut submits, mut fetches) = (Vec::new(), Vec::new());
    let mut cold_s = 0.0;
    let mut sample: Option<Vec<CellReply>> = None;
    for round in 0..=WARM_RESUBMISSIONS {
        let order = if round == 0 {
            (0..n).collect()
        } else {
            crate::cells::permutation(n, seed ^ round)
        };
        let (sweep, submit) = tr.span("Client::submit_plan", 0, "", |_| {
            client.submit_plan(set.insts, set.plan_cells(&order), Some(jobs as u64))
        });
        let mut sweep = sweep.map_err(|e| format!("submit: {e}"))?;
        let (replies, fetch) = tr.span("Sweep::fetch_reports", 0, "", |_| sweep.fetch_reports());
        let replies = replies.map_err(|e| format!("fetch: {e}"))?;
        let status = sweep.status();
        if replies.len() != n {
            cx.tally.fail_all(n, "short reply");
        }
        cx.tally.check_replies(&cx.exp, &replies);
        simulated += status.simulated;
        hits += status.cache_hits;
        errors += status.errors;
        retries += sweep.retries();
        if round == 0 {
            cold_s = secs(submit + fetch);
        } else {
            if status.simulated != 0 || status.cache_hits != n as u64 {
                cx.tally
                    .fail_all(n, "warm sweep was not served from the cache");
            }
            submits.push(secs(submit));
            fetches.push(secs(fetch));
            sample.get_or_insert(replies);
        }
    }

    let engine = server.engine();
    let cells: Vec<SweepCell> = set
        .cells
        .iter()
        .map(|c| SweepCell {
            label: c.label.clone(),
            machine: c.machine,
            workload: c.kernel.name.to_string(),
            program: None,
        })
        .collect();
    let mut engine_ms = Vec::new();
    for _ in 0..REPS {
        let (resp, t) = tr.span("SweepEngine::sweep", 0, "", |_| {
            engine.sweep(set.insts, &cells, None)
        });
        let resp = resp.map_err(|e| format!("engine sweep: {}", e.message))?;
        cx.tally.check_replies(&cx.exp, &resp.cells);
        if resp.status.simulated != 0 {
            cx.tally.fail_all(n, "warm engine sweep simulated");
        }
        engine_ms.push(secs(t) * 1e3);
    }
    server.shutdown();

    let replies = sample.unwrap_or_default();
    let frames: Vec<Message> = replies
        .iter()
        .filter_map(|r| r.report().cloned().map(Message::CellResult))
        .collect();
    let mut bytes = 0usize;
    for f in &frames {
        let mut buf = Vec::new();
        write_frame(&mut buf, f).map_err(|e| e.to_string())?;
        bytes += buf.len();
    }
    let frame = frames.first().ok_or("no cell_result to time")?;
    let encode = time_reps(|| {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).map(|()| buf)
    });
    let mut encoded = Vec::new();
    write_frame(&mut encoded, frame).map_err(|e| e.to_string())?;
    let decode = time_reps(|| read_frame(&mut encoded.as_slice()));

    let m = &mut cx.m;
    m.push(Metric::new(
        "server.engine_warm_ms",
        median(&engine_ms),
        "ms",
    ));
    m.push(Metric::new(
        "server.cold_gap_ratio",
        cold_s / local_s,
        "ratio",
    ));
    m.push(Metric::new("server.simulated", simulated as f64, "count"));
    m.push(Metric::new("server.cache_hits", hits as f64, "count"));
    m.push(Metric::new("server.errors", errors as f64, "count"));
    m.push(Metric::new(
        "client.submit_ms",
        median(&submits) * 1e3,
        "ms",
    ));
    m.push(Metric::new("client.fetch_ms", median(&fetches) * 1e3, "ms"));
    m.push(Metric::new("client.bytes", bytes as f64, "B"));
    m.push(Metric::new("client.retries", f64::from(retries), "count"));
    m.push(Metric::new("protocol.encode_us", secs(encode) * 1e6, "us"));
    m.push(Metric::new("protocol.decode_us", secs(decode) * 1e6, "us"));
    Ok(())
}

// ---- the traced run ----------------------------------------------------------

/// The traced run of `args.workload`.
pub fn run(args: &Args, stamp: JsonValue) -> Result<Outcome, String> {
    let w = args.workload;
    let jobs = w.jobs();
    let set = w.cells(args.seed, args.insts)?;
    let layer_set = w.layer_cells(args.seed, args.insts)?;
    // The layer cells include the workload's cells.
    let mut cx = Ctx {
        exp: Expected::load(&layer_set, args.insts.is_some())?,
        tally: Tally::default(),
        tr: Tracer::new(),
        m: Vec::new(),
    };

    let load = time_reps(|| Scenario::load(FIG9));
    let suite = time_reps(contopt_sim::workloads::suite);
    let local_s = local(&set, jobs, &mut cx)?;
    served(&set, jobs, args.seed, local_s, &mut cx)?;

    let mut json_times = Vec::new();
    let mut fidelity = Fidelity::default();
    let cells = layer_cells(&layer_set, &mut cx, &mut json_times, &mut fidelity)?;
    let m = &mut cx.m;
    layer_metrics(&cells, m);
    m.push(Metric::new("sim.scenario_load_ms", secs(load) * 1e3, "ms"));
    m.push(Metric::new(
        "sim.report_json_us",
        median(&json_times) * 1e6,
        "us",
    ));
    m.push(Metric::new(
        "workloads.suite_build_ms",
        secs(suite) * 1e3,
        "ms",
    ));
    m.push(Metric::new(
        "replay.steps_mismatches",
        fidelity.steps as f64,
        "count",
    ));
    m.push(Metric::new(
        "replay.bpred_mismatches",
        fidelity.bpred as f64,
        "count",
    ));
    m.push(Metric::new(
        "replay.l1d_mismatches",
        fidelity.l1d as f64,
        "count",
    ));
    m.push(Metric::new(
        "replay.failures",
        fidelity.failed as f64,
        "count",
    ));

    for kernel in THROUGHPUT_KERNELS {
        let configs = [
            ("baseline", MachineConfig::default_paper()),
            ("full_passes", MachineConfig::default_with_optimizer()),
        ];
        for (config, machine) in configs {
            let session = SimSession::builder()
                .workload(kernel)
                .machine(machine)
                .insts(THROUGHPUT_INSTS)
                .build()
                .map_err(|e| e.to_string())?;
            let name = format!("{config}/{kernel}");
            let mut mips = Vec::new();
            for _ in 0..3 {
                let (report, t) = cx.tr.span("SimSession::run", 0, &name, |_| session.run());
                mips.push(report.pipeline.retired as f64 / secs(t) / 1e6);
            }
            cx.m.push(Metric::new(
                format!("pipeline.mips.{kernel}.{config}"),
                median(&mips),
                "MIPS",
            ));
        }
    }

    let path = format!("perfbench/traces/{}-seed{}.jsonl", w.name(), args.seed);
    if let Err(e) = cx.tr.write(Path::new(&path), stamp) {
        eprintln!("perfbench: cannot write {path}: {e}");
    } else {
        eprintln!("perfbench: spans written to {path}");
    }
    Ok(Outcome {
        metrics: cx.m,
        tally: cx.tally,
    })
}
