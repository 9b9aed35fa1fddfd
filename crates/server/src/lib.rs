//! # contopt-server — sweep-as-a-service for the contopt lab
//!
//! The server half of the sweep service: a TCP daemon that accepts
//! scenario (or raw-plan) submissions in the
//! [`contopt_client::protocol`] wire format, fans the deduplicated cells
//! across a bounded worker pool, and answers with the same canonical
//! `Report` JSON a local `contopt-experiments` run would produce —
//! byte-for-byte, so remote golden checks stay meaningful.
//!
//! A request becomes cells through contopt-sim alone: [`Scenario::cells`]
//! expands a scenario, a cell takes the submitted program of its workload
//! name, and [`CellKey::new`] keys it by that program's text. The server
//! keeps no program table and interns no name a client chose.
//!
//! [`Scenario::cells`]: contopt_sim::Scenario::cells
//!
//! Two mechanisms make concurrent clients cheap:
//!
//! * **Result cache** — completed cell reports live in a bounded LRU
//!   keyed by the cell's full behavioural identity: its [`CellKey`]
//!   (normalized machine configuration, workload, shipped program text)
//!   and instruction budget. A resubmitted sweep is answered without
//!   simulating anything.
//! * **In-flight dedup** — while a cell is being simulated for one
//!   request, any other request needing the same cell *joins* the
//!   in-flight work (waits on its completion) instead of simulating it
//!   again. Overlapping sweeps from unrelated clients cost one
//!   simulation per unique cell, total. A local worker and a forwarder
//!   claim a cell through the same claim step and hold it in the same
//!   guard, which publishes the report or, dropped unpublished, releases
//!   the claim; either way it wakes the joiners.
//!
//! And three make it robust:
//!
//! * **Per-cell fault isolation** — a simulation that panics is caught
//!   (`catch_unwind`) and reported as a typed `cell_error` frame; every
//!   sibling cell still streams back, and the panicked cell's in-flight
//!   claim is released so concurrent joiners never deadlock on the
//!   `Condvar`. A downstream's `cell_error` releases the frontier's claim
//!   the same way. The sweep degrades by one cell instead of tearing
//!   down.
//! * **Deadlines** — every connection gets read/write timeouts
//!   ([`ServerConfig::request_timeout`], `--request-timeout` on the
//!   binary), so a stalled or malicious peer cannot pin a handler
//!   thread forever.
//! * **Graceful drain** — shutting a server down stops accepting, then
//!   waits (bounded by [`ServerConfig::drain_timeout`]) for in-flight
//!   connections to finish before returning.
//!
//! `tests/faults.rs` tests these guarantees from outside the server: a
//! loopback relay between client and server drops, truncates, delays or
//! black-holes the response stream, and a cell whose `max_cycles` the
//! workload overruns really panics.
//!
//! The service also **federates**: a *frontier* server configured with
//! downstream addresses ([`ServerConfig::federation`], `--downstream` /
//! `CONTOPT_DOWNSTREAM` on the binary) places each request's unique
//! cells across its local pool and its downstream contopt-servers
//! (least-outstanding-cells, [`scheduler`]), forwarding batches over
//! the same v1 protocol through the ordinary client SDK ([`federation`]
//! — per-link deadlines, deterministic retry backoff). Reports are
//! opaque canonical JSON and every tier keys its cache by the same
//! behavioural fingerprint, so any topology produces byte-identical
//! sweeps; an unreachable downstream drains while its in-flight batch
//! is absorbed by the local pool — no cell is lost or simulated twice.
//!
//! Everything is `std`: `TcpListener` + one thread per connection,
//! `Mutex`/`Condvar` for the engine, and the per-request worker pool is
//! [`contopt_sim::run_parallel`], the one the experiments `Lab` runs on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod federation;
pub mod scheduler;

use contopt_client::protocol::{
    read_frame, write_frame, CellError, CellReply, CellResult, DownstreamStatus, Message, PlanCell,
    ProtocolError, ServerStatus, SweepStatus, WireError, PROTOCOL_VERSION,
};
use contopt_sim::{run_parallel, CellKey, MachineConfig, ProgramSpec, SimSession};
use federation::{DownstreamLink, Federation, FederationConfig};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`Server`] / [`SweepEngine`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads available per request. Submissions may hint a
    /// smaller number; larger hints are clamped to this.
    pub jobs: usize,
    /// Completed-report cache capacity, in cells. `0` disables caching
    /// (in-flight dedup still applies).
    pub cache_capacity: usize,
    /// Per-connection read/write deadline. A peer that stalls longer
    /// than this mid-frame gets its connection dropped instead of
    /// pinning a handler thread. `None` disables the deadline.
    pub request_timeout: Option<Duration>,
    /// How long shutdown waits for in-flight connections to finish
    /// before giving up on them.
    pub drain_timeout: Duration,
    /// Downstream federation (no downstreams = standalone server, every
    /// cell executes locally).
    pub federation: FederationConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            jobs: contopt_sim::default_jobs(),
            cache_capacity: 1024,
            request_timeout: Some(DEFAULT_REQUEST_TIMEOUT),
            drain_timeout: Duration::from_secs(5),
            federation: FederationConfig::default(),
        }
    }
}

/// The default per-connection read/write deadline (`--request-timeout`).
pub const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// One requested cell, before deduplication.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Label echoed back in the matching [`CellResult`].
    pub label: String,
    /// The machine configuration to simulate.
    pub machine: MachineConfig,
    /// Workload short name: Table 1, or a shipped program's name when
    /// `program` is set.
    pub workload: String,
    /// The shipped program this cell runs, as the submission carried it
    /// under this cell's workload name: the assembled program runs and
    /// keys the cell, and a frontier forwards the spec downstream.
    pub program: Option<ProgramSpec>,
}

/// How one unique cell was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Obtained {
    /// This request ran the simulation.
    Simulated,
    /// Served from the completed-report cache.
    CacheHit,
    /// Waited for another request's in-flight simulation of the same
    /// cell.
    Joined,
    /// Answered by a downstream server of this federated frontier.
    Forwarded,
}

/// The outcome of producing one unique cell.
enum CellOutcome {
    /// The canonical report, and how it was obtained.
    Ready(Arc<String>, Obtained),
    /// The cell failed; `code` is the wire-visible cause.
    Failed { code: String, message: String },
}

/// What the claim step found for one cell.
enum Claimed<'a> {
    /// Served from the completed-report cache (touched for LRU).
    Hit(Arc<String>),
    /// Another request holds the cell's claim.
    Busy,
    /// The caller now holds the claim.
    Mine(Claim<'a>),
}

struct CacheEntry {
    report: Arc<String>,
    /// Last-touch tick for LRU eviction.
    tick: u64,
}

/// The engine caches and claims cells by [`CellKey`] and instruction
/// budget: unlike the experiments `Lab` (one budget per lab), submissions
/// choose their own.
#[derive(Default)]
struct EngineState {
    cache: HashMap<(CellKey, u64), CacheEntry>,
    in_flight: HashSet<(CellKey, u64)>,
    tick: u64,
    total_simulations: u64,
}

/// The shared sweep engine: result cache, in-flight claims, and lifetime
/// counters. One engine serves every connection of a [`Server`].
pub struct SweepEngine {
    jobs: usize,
    cache_capacity: usize,
    request_timeout: Option<Duration>,
    drain_timeout: Duration,
    state: Mutex<EngineState>,
    cond: Condvar,
    /// Active connection gauge, for graceful drain.
    conns: Mutex<u64>,
    conn_cond: Condvar,
    /// Set when the server begins shutting down; the accept loop reads
    /// it to stop accepting.
    draining: AtomicBool,
    /// Downstream links (empty on a standalone server).
    federation: Federation,
}

/// A completed sweep: accounting plus the per-cell results in request
/// declaration order.
pub struct SweepResponse {
    /// The accounting frame sent first.
    pub status: SweepStatus,
    /// One reply per requested cell (duplicates included): a report, or
    /// a typed per-cell error.
    pub cells: Vec<CellReply>,
}

impl SweepEngine {
    /// Creates an engine with the given tuning.
    pub fn new(config: ServerConfig) -> SweepEngine {
        SweepEngine {
            jobs: config.jobs.max(1),
            cache_capacity: config.cache_capacity,
            request_timeout: config.request_timeout,
            drain_timeout: config.drain_timeout,
            state: Mutex::new(EngineState::default()),
            cond: Condvar::new(),
            conns: Mutex::new(0),
            conn_cond: Condvar::new(),
            draining: AtomicBool::new(false),
            federation: Federation::new(&config.federation),
        }
    }

    /// The downstream federation (empty on a standalone server).
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// Synchronously probes every downstream link (daemon startup,
    /// tests) and returns the resulting topology snapshot.
    pub fn probe_downstreams(&self) -> Vec<DownstreamStatus> {
        self.federation.probe_all()
    }

    /// Lifetime count of simulations this engine has run, across all
    /// requests. Cache hits and joins do not move it.
    pub fn total_simulations(&self) -> u64 {
        self.lock().total_simulations
    }

    /// Entries currently held in the result cache.
    pub fn cache_entries(&self) -> usize {
        self.lock().cache.len()
    }

    /// Cells currently being simulated, across all requests.
    pub fn in_flight_cells(&self) -> usize {
        self.lock().in_flight.len()
    }

    /// The health-check snapshot a `ping` is answered with.
    pub fn server_status(&self) -> ServerStatus {
        let state = self.lock();
        ServerStatus {
            protocol_version: PROTOCOL_VERSION,
            jobs: self.jobs as u64,
            cache_capacity: self.cache_capacity as u64,
            cache_entries: state.cache.len() as u64,
            in_flight: state.in_flight.len() as u64,
            total_simulations: state.total_simulations,
            downstreams: self.federation.statuses(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EngineState> {
        // The engine never panics while holding the lock (simulation runs
        // outside it), so poisoning is unreachable in practice; recover
        // rather than cascade.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    // --- connection gauge (graceful drain) ---

    fn connection_started(self: &Arc<Self>) -> ConnGuard {
        let mut count = self
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *count += 1;
        ConnGuard {
            engine: Arc::clone(self),
        }
    }

    fn connection_finished(&self) {
        let mut count = self
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *count = count.saturating_sub(1);
        drop(count);
        self.conn_cond.notify_all();
    }

    /// Marks the engine as draining, so the accept loop stops.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Waits up to the drain timeout for every connection to finish.
    /// Returns `true` if the server drained completely.
    fn wait_idle(&self) -> bool {
        let deadline = Instant::now() + self.drain_timeout;
        let mut count = self
            .conns
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while *count > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .conn_cond
                .wait_timeout(count, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            count = guard;
        }
        true
    }

    /// Executes one sweep: dedupes the cells, places them across the
    /// local worker pool and any healthy downstream links
    /// (least-outstanding-cells, [`scheduler::place`]), and assembles
    /// results in declaration order. Fails fast — before any simulation —
    /// if a cell names an unknown workload or an invalid configuration.
    /// A cell that *fails during simulation* (panic) degrades to a typed
    /// [`CellReply::Failed`] while its siblings complete normally; a
    /// downstream link that fails mid-batch is marked unhealthy and its
    /// cells are absorbed by the local pool.
    pub fn sweep(
        &self,
        insts: u64,
        cells: &[SweepCell],
        jobs_hint: Option<u64>,
    ) -> Result<SweepResponse, WireError> {
        // Dedup: map each requested cell to its unique-cell index.
        let mut uniq_index: HashMap<CellKey, usize> = HashMap::new();
        let mut firsts: Vec<(&SweepCell, CellKey)> = Vec::new();
        let cell_to_uniq: Vec<usize> = cells
            .iter()
            .map(|cell| {
                let program = cell.program.as_ref().map(|p| &*p.program);
                let key = CellKey::new(&cell.machine, &cell.workload, program);
                *uniq_index.entry(key).or_insert_with_key(|key| {
                    firsts.push((cell, key.clone()));
                    firsts.len() - 1
                })
            })
            .collect();

        // Pre-build every session so an invalid cell rejects the whole
        // request up front instead of failing mid-sweep.
        let uniq: Vec<(&SweepCell, (CellKey, u64), SimSession)> = firsts
            .into_iter()
            .map(|(cell, key)| {
                let builder = SimSession::builder().machine(cell.machine).insts(insts);
                let builder = match &cell.program {
                    Some(p) => builder.program(Arc::clone(&p.program)),
                    None => builder.workload(cell.workload.clone()),
                };
                let session = builder.build().map_err(|e| WireError {
                    code: "bad-request".to_string(),
                    message: format!("cell {:?}/{}: {e}", cell.label, cell.workload),
                })?;
                Ok((cell, (key, insts), session))
            })
            .collect::<Result<_, _>>()?;

        // Place each unique cell on a backend: 0 = the local pool,
        // 1.. = healthy downstream links. Placement balances load only;
        // results are byte-identical at any topology.
        let links = self.federation.healthy_links();
        let mut loads = vec![self.in_flight_cells() as u64];
        loads.extend(links.iter().map(|l| l.outstanding()));
        let mut batches: Vec<Vec<usize>> = vec![Vec::new(); loads.len()];
        for (i, backend) in scheduler::place(uniq.len(), &loads).into_iter().enumerate() {
            batches[backend].push(i);
        }

        let jobs = jobs_hint
            .map(|h| h.clamp(1, self.jobs as u64) as usize)
            .unwrap_or(self.jobs);
        let uniq_ref = &uniq;
        let (local, forwarded) = std::thread::scope(|s| {
            let forwarders: Vec<_> = batches[1..]
                .iter()
                .zip(&links)
                .filter(|(batch, _)| !batch.is_empty())
                .map(|(batch, link)| {
                    s.spawn(move || self.forward_batch(insts, uniq_ref, batch, link))
                })
                .collect();
            // Simulation panics are caught inside `Claim::simulate`; a
            // worker that dies anyway loses only the cell it was running.
            let local = run_parallel(&batches[0], jobs, |&i| {
                let (_, key, session) = &uniq[i];
                self.obtain(key, session)
            });
            // A forwarder's claims release as they drop, also on unwind,
            // so joiners re-claim instead of deadlocking.
            let forwarded: Vec<_> = forwarders
                .into_iter()
                .filter_map(|h| h.join().ok())
                .collect();
            (local, forwarded)
        });
        // A cell whose worker or forwarder died keeps this outcome.
        let mut obtained: Vec<CellOutcome> = (0..uniq.len())
            .map(|_| CellOutcome::Failed {
                code: "internal".to_string(),
                message: "sweep worker terminated before this cell completed".to_string(),
            })
            .collect();
        for (&i, outcome) in batches[0].iter().zip(local) {
            if let Some(outcome) = outcome {
                obtained[i] = outcome;
            }
        }
        let mut ds_statuses: Vec<SweepStatus> = Vec::new();
        for (out, status) in forwarded {
            for (i, outcome) in out {
                obtained[i] = outcome;
            }
            ds_statuses.extend(status);
        }

        let mut simulated = 0u64;
        let mut cache_hits = 0u64;
        let mut joined = 0u64;
        let mut errors = 0u64;
        let mut forwarded = 0u64;
        for outcome in &obtained {
            match outcome {
                CellOutcome::Ready(_, Obtained::Simulated) => simulated += 1,
                CellOutcome::Ready(_, Obtained::CacheHit) => cache_hits += 1,
                CellOutcome::Ready(_, Obtained::Joined) => joined += 1,
                CellOutcome::Ready(_, Obtained::Forwarded) => forwarded += 1,
                CellOutcome::Failed { .. } => errors += 1,
            }
        }
        // Federated accounting: what a downstream did for our forwarded
        // cells folds into the same counters, so the invariant
        // `simulated + cache_hits + joined + errors == unique` holds
        // tier-wide. Downstream *errors* are not added — each already
        // surfaced as a Failed outcome above.
        for ds in &ds_statuses {
            simulated += ds.simulated;
            cache_hits += ds.cache_hits;
            joined += ds.joined;
        }

        // Each unique cell's fingerprint, computed once; a duplicate
        // carries its original's.
        let fingerprints: Vec<String> = uniq
            .iter()
            .map(|(_, (key, _), _)| key.fingerprint(insts))
            .collect();
        let results: Vec<CellReply> = cells
            .iter()
            .zip(&cell_to_uniq)
            .map(|(cell, &u)| {
                let fingerprint = fingerprints[u].clone();
                match &obtained[u] {
                    CellOutcome::Ready(report, _) => CellReply::Report(CellResult {
                        label: cell.label.clone(),
                        workload: cell.workload.clone(),
                        fingerprint,
                        report: String::clone(report),
                    }),
                    CellOutcome::Failed { code, message } => CellReply::Failed(CellError {
                        label: cell.label.clone(),
                        workload: cell.workload.clone(),
                        fingerprint,
                        code: code.clone(),
                        message: message.clone(),
                    }),
                }
            })
            .collect();

        let state = self.lock();
        let status = SweepStatus {
            results: results.len() as u64,
            unique: uniq.len() as u64,
            simulated,
            cache_hits,
            joined,
            errors,
            forwarded,
            total_simulations: state.total_simulations,
            cache_entries: state.cache.len() as u64,
        };
        drop(state);
        Ok(SweepResponse {
            status,
            cells: results,
        })
    }

    /// Forwards one placed batch over a downstream link as an ordinary
    /// `submit_plan` (shipping each cell program as received), publishing
    /// every returned report into the local cache under the batch's
    /// claims — cache coherence across tiers: on the next request a
    /// forwarded cell is indistinguishable from a locally simulated one.
    /// A link failure (retries exhausted, rejection, or a short reply
    /// stream) marks the link unhealthy and the batch is simulated
    /// locally under the same claims, so no cell is lost or simulated
    /// twice.
    fn forward_batch(
        &self,
        insts: u64,
        uniq: &[(&SweepCell, (CellKey, u64), SimSession)],
        batch: &[usize],
        link: &DownstreamLink,
    ) -> (Vec<(usize, CellOutcome)>, Option<SweepStatus>) {
        let mut out: Vec<(usize, CellOutcome)> = Vec::with_capacity(batch.len());
        let mut claims: Vec<(usize, Claim<'_>)> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();
        // Phase 1: a frontier cache hit never forwards, a busy cell waits
        // its turn locally, everything else is claimed for the batch.
        let mut state = self.lock();
        for &i in batch {
            match self.claim(&mut state, &uniq[i].1) {
                Claimed::Hit(report) => {
                    out.push((i, CellOutcome::Ready(report, Obtained::CacheHit)))
                }
                Claimed::Busy => deferred.push(i),
                Claimed::Mine(claim) => claims.push((i, claim)),
            }
        }
        drop(state);

        let mut ds_status = None;
        if !claims.is_empty() {
            let mut plan = Vec::with_capacity(claims.len());
            let mut programs: Vec<ProgramSpec> = Vec::new();
            for &(i, _) in &claims {
                let cell = uniq[i].0;
                if let Some(p) = &cell.program {
                    if !programs.iter().any(|q| q.name == p.name) {
                        programs.push(p.clone());
                    }
                }
                plan.push(PlanCell {
                    label: cell.label.clone(),
                    machine: cell.machine,
                    workload: cell.workload.clone(),
                });
            }

            let n = claims.len() as u64;
            link.add_outstanding(n);
            let forwarded = link
                .client()
                .submit_plan_with_programs(insts, plan, programs, None)
                .and_then(|mut sweep| {
                    let replies = sweep.fetch_reports()?;
                    Ok((sweep.status(), replies))
                });
            link.sub_outstanding(n);

            match forwarded {
                Ok((status, replies)) if replies.len() == claims.len() => {
                    link.note_forwarded(n);
                    ds_status = Some(status);
                    for ((i, claim), reply) in claims.into_iter().zip(replies) {
                        let outcome = match reply {
                            CellReply::Report(r) => {
                                claim.publish(Arc::new(r.report), Obtained::Forwarded)
                            }
                            // The downstream's typed cell_error occupies
                            // this cell's slot, exactly as a local panic
                            // would; the claim releases as it drops.
                            CellReply::Failed(e) => CellOutcome::Failed {
                                code: e.code,
                                message: e.message,
                            },
                        };
                        out.push((i, outcome));
                    }
                }
                _ => {
                    // Link exhausted: drain it and absorb the batch
                    // locally under the claims we already hold.
                    link.mark_unhealthy();
                    for (i, claim) in claims {
                        out.push((i, claim.simulate(&uniq[i].2)));
                    }
                }
            }
        }

        // Phase 2: cells that were in flight elsewhere when the batch
        // was placed — every claim of ours is resolved by now, so
        // blocking on their owners cannot deadlock.
        for &i in &deferred {
            let (_, key, session) = &uniq[i];
            out.push((i, self.obtain(key, session)));
        }
        (out, ds_status)
    }

    /// Produces one cell's canonical report: from cache, by joining an
    /// in-flight simulation, or by claiming and simulating it here.
    fn obtain(&self, key: &(CellKey, u64), session: &SimSession) -> CellOutcome {
        let mut waited = false;
        let mut state = self.lock();
        let claim = loop {
            match self.claim(&mut state, key) {
                Claimed::Hit(report) => {
                    let how = if waited {
                        Obtained::Joined
                    } else {
                        Obtained::CacheHit
                    };
                    return CellOutcome::Ready(report, how);
                }
                Claimed::Busy => {
                    waited = true;
                    state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                Claimed::Mine(claim) => break claim,
            }
        };
        drop(state);
        claim.simulate(session)
    }

    /// The claim step, the only way to claim a cell, run on the locked
    /// `state`: a cached report is touched for LRU and returned, a cell
    /// another request holds is busy, and any other cell is claimed for
    /// the caller.
    fn claim<'a>(&'a self, state: &mut EngineState, key: &'a (CellKey, u64)) -> Claimed<'a> {
        if let Some(entry) = state.cache.get_mut(key) {
            state.tick += 1;
            entry.tick = state.tick;
            return Claimed::Hit(Arc::clone(&entry.report));
        }
        if !state.in_flight.insert(key.clone()) {
            return Claimed::Busy;
        }
        Claimed::Mine(Claim { engine: self, key })
    }
}

/// A held claim on one cell: the only code that publishes a cell or
/// releases its claim. Dropping it — published or not, and also on
/// unwind — releases the claim and wakes the joiners, so a panic, a
/// downstream `cell_error` or a dying forwarder never leaves them
/// waiting on a cell nobody owns; they re-claim it instead.
struct Claim<'a> {
    engine: &'a SweepEngine,
    key: &'a (CellKey, u64),
}

impl Claim<'_> {
    /// Simulates the claimed cell here and publishes its report. A
    /// panicking simulation is caught and degraded to
    /// [`CellOutcome::Failed`], and the claim is released unpublished.
    fn simulate(self, session: &SimSession) -> CellOutcome {
        match catch_unwind(AssertUnwindSafe(|| session.run().canonical_json())) {
            Ok(json) => self.publish(Arc::new(json), Obtained::Simulated),
            Err(payload) => CellOutcome::Failed {
                code: "panic".to_string(),
                message: panic_message(payload.as_ref()),
            },
        }
    }

    /// Caches `report` (tick-stamped, capacity-gated LRU), then releases
    /// the claim and wakes joiners. Only a report simulated here
    /// ([`Obtained::Simulated`]) counts as one of this engine's
    /// simulations; a forwarded one is accounted by its downstream.
    fn publish(self, report: Arc<String>, how: Obtained) -> CellOutcome {
        let engine = self.engine;
        let mut state = engine.lock();
        if how == Obtained::Simulated {
            state.total_simulations += 1;
        }
        if engine.cache_capacity > 0 {
            if state.cache.len() >= engine.cache_capacity {
                // O(n) LRU eviction: n is the (small, bounded) cache size
                // and eviction is rare next to a simulation's cost.
                if let Some(victim) = state
                    .cache
                    .iter()
                    .min_by_key(|(_, e)| e.tick)
                    .map(|(k, _)| k.clone())
                {
                    state.cache.remove(&victim);
                }
            }
            state.tick += 1;
            let entry = CacheEntry {
                report: Arc::clone(&report),
                tick: state.tick,
            };
            state.cache.insert(self.key.clone(), entry);
        }
        drop(state);
        // `self` drops on return: the claim is released and joiners wake.
        CellOutcome::Ready(report, how)
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.engine.lock().in_flight.remove(self.key);
        self.engine.cond.notify_all();
    }
}

/// RAII decrement of the engine's active-connection gauge.
struct ConnGuard {
    engine: Arc<SweepEngine>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.engine.connection_finished();
    }
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "simulation panicked".to_string()
    }
}

/// Expands a submission message into the flat cell list the engine runs,
/// returning `(insts, cells, jobs_hint)`: a scenario lowers through
/// [`Scenario::cells`] to the [`PlanCell`]s a plan carries, and each cell
/// takes the submission's program of its workload name. The decoder has
/// verified and name-checked every program; nothing a client names is
/// interned or outlives its request.
///
/// [`Scenario::cells`]: contopt_sim::Scenario::cells
fn expand_request(msg: Message) -> Result<(u64, Vec<SweepCell>, Option<u64>), WireError> {
    let (jobs, insts, cells, programs) = match msg {
        Message::SubmitScenario { jobs, scenario } => {
            let cells: Vec<PlanCell> = scenario
                .cells()
                .map(|(cfg, workload)| PlanCell {
                    label: cfg.label.clone(),
                    machine: cfg.machine,
                    workload: workload.to_string(),
                })
                .collect();
            (jobs, scenario.insts, cells, scenario.programs)
        }
        Message::SubmitPlan {
            jobs,
            insts,
            cells,
            programs,
        } => (jobs, insts, cells, programs),
        other => {
            return Err(WireError {
                code: "bad-request".to_string(),
                message: format!(
                    "expected submit_scenario, submit_plan, or ping, got {}",
                    other.type_tag()
                ),
            })
        }
    };
    let cells = cells
        .into_iter()
        .map(|c| SweepCell {
            program: programs.iter().find(|p| p.name == c.workload).cloned(),
            label: c.label,
            machine: c.machine,
            workload: c.workload,
        })
        .collect();
    Ok((insts, cells, jobs))
}

/// Serves one connection: one request frame in, one status frame plus the
/// per-cell frames (or one error frame) out. `ping` requests are answered
/// with a `server_status` frame.
fn handle_connection(engine: &SweepEngine, stream: TcpStream) {
    // Arm the per-connection deadlines before touching the stream; a
    // peer that stalls mid-frame gets an I/O error, not a pinned thread.
    let _ = stream.set_read_timeout(engine.request_timeout);
    let _ = stream.set_write_timeout(engine.request_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let fail = |writer: &mut BufWriter<TcpStream>, code: &str, message: String| {
        // Best-effort: the peer may already be gone.
        let _ = write_frame(
            writer,
            &Message::Error(WireError {
                code: code.to_string(),
                message,
            }),
        );
    };
    let request = match read_frame(&mut reader) {
        Ok(msg) => msg,
        Err(ProtocolError::VersionMismatch(v)) => {
            return fail(
                &mut writer,
                "version",
                format!("unsupported protocol version {v}"),
            )
        }
        Err(ProtocolError::Io(_)) => return, // peer vanished; nothing to tell it
        Err(e) => return fail(&mut writer, "bad-request", e.to_string()),
    };
    if matches!(request, Message::Ping) {
        let _ = write_frame(&mut writer, &Message::ServerStatus(engine.server_status()));
        return;
    }
    let (insts, cells, jobs) = match expand_request(request) {
        Ok(parts) => parts,
        Err(e) => return fail(&mut writer, &e.code, e.message),
    };
    let response = match engine.sweep(insts, &cells, jobs) {
        Ok(r) => r,
        Err(e) => return fail(&mut writer, &e.code, e.message),
    };
    if write_frame(&mut writer, &Message::SweepStatus(response.status)).is_err() {
        return;
    }
    for cell in response.cells {
        let msg = match cell {
            CellReply::Report(r) => Message::CellResult(r),
            CellReply::Failed(e) => Message::CellError(e),
        };
        if write_frame(&mut writer, &msg).is_err() {
            return;
        }
    }
}

/// A bound, not-yet-serving sweep server.
pub struct Server {
    listener: TcpListener,
    engine: Arc<SweepEngine>,
}

impl Server {
    /// Binds to `addr` (port `0` picks an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            engine: Arc::new(SweepEngine::new(config)),
        })
    }

    /// The bound address (useful after binding port `0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared engine (counters are observable through it while the
    /// server runs).
    pub fn engine(&self) -> Arc<SweepEngine> {
        Arc::clone(&self.engine)
    }

    /// Serves connections on the calling thread, forever. Each
    /// connection gets its own thread; the engine serializes shared
    /// state.
    pub fn serve_forever(self) -> io::Result<()> {
        accept_loop(self.listener, self.engine);
        Ok(())
    }

    /// Serves connections on a background thread; the returned handle
    /// stops the server when dropped (or via
    /// [`shutdown`](ServerHandle::shutdown)).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let engine = self.engine();
        let listener = self.listener;
        let loop_engine = Arc::clone(&engine);
        let thread = std::thread::spawn(move || {
            accept_loop(listener, loop_engine);
        });
        Ok(ServerHandle {
            addr,
            engine,
            thread: Some(thread),
        })
    }
}

fn accept_loop(listener: TcpListener, engine: Arc<SweepEngine>) {
    for stream in listener.incoming() {
        if engine.is_draining() {
            return;
        }
        let Ok(stream) = stream else { continue };
        let guard = engine.connection_started();
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let _guard = guard;
            handle_connection(&engine, stream);
        });
    }
}

/// A running background server (see [`Server::spawn`]).
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<SweepEngine>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is accepting on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine, for inspecting lifetime counters.
    pub fn engine(&self) -> Arc<SweepEngine> {
        Arc::clone(&self.engine)
    }

    /// Stops accepting, then drains: in-flight connections get up to
    /// [`ServerConfig::drain_timeout`] to finish before shutdown
    /// returns. Returns `true` if the server drained completely.
    pub fn shutdown(mut self) -> bool {
        self.stop()
    }

    fn stop(&mut self) -> bool {
        let Some(thread) = self.thread.take() else {
            return true;
        };
        self.engine.begin_drain();
        // The accept loop blocks in `accept`; poke it awake so it sees
        // the flag. A failed connect means the listener is already gone.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
        self.engine.wait_idle()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_sim::{Scenario, ALL_WORKLOADS};

    fn asm_smoke() -> Scenario {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        Scenario::load(format!("{dir}/asm_smoke.json")).unwrap()
    }

    #[test]
    fn scenarios_expand_by_name_as_workloads_for_walks_them() {
        let mut sc = asm_smoke();
        sc.configs[0].workloads = vec![ALL_WORKLOADS.to_string()];
        sc.configs[1].workloads = vec!["asmk".to_string(), "twf".to_string()];
        let mut walked = Vec::new();
        for cfg in &sc.configs {
            for w in sc.workloads_for(cfg).unwrap() {
                let shipped = sc.programs.iter().any(|p| p.name == w.name);
                walked.push((cfg.label.clone(), w.name.to_string(), shipped));
            }
        }
        let msg = Message::SubmitScenario {
            jobs: None,
            scenario: sc.clone(),
        };
        let (insts, cells, _) = expand_request(msg).unwrap();
        assert_eq!(insts, sc.insts);
        let expanded: Vec<_> = cells
            .iter()
            .map(|c| (c.label.clone(), c.workload.clone(), c.program.is_some()))
            .collect();
        assert_eq!(expanded, walked);
        assert_eq!(expanded.len(), 24 + 2);
        for c in &cells {
            assert_eq!(
                c.machine,
                sc.configs
                    .iter()
                    .find(|g| g.label == c.label)
                    .unwrap()
                    .machine
            );
        }
    }

    #[test]
    fn duplicate_cells_carry_their_originals_fingerprint() {
        let sc = asm_smoke();
        let engine = SweepEngine::new(ServerConfig {
            jobs: 2,
            ..ServerConfig::default()
        });
        let (insts, mut cells, _) = expand_request(Message::SubmitScenario {
            jobs: None,
            scenario: sc,
        })
        .unwrap();
        let base = cells[0].machine;
        let mut inert = base;
        inert.optimizer.mbc_entries = 7; // inert: optimizer disabled
        let twf = |machine| SweepCell {
            label: "t".to_string(),
            machine,
            workload: "twf".to_string(),
            program: None,
        };
        let asmk = cells[0].clone();
        cells.extend([twf(base), asmk.clone(), twf(inert), asmk]);
        let response = engine.sweep(insts, &cells, None).unwrap();
        assert_eq!(response.status.unique, 3);
        let fp: Vec<&str> = response
            .cells
            .iter()
            .map(|reply| match reply {
                CellReply::Report(r) => r.fingerprint.as_str(),
                CellReply::Failed(e) => panic!("{}: {}", e.workload, e.message),
            })
            .collect();
        assert_eq!(fp[..2], ["86dd975387b453a4", "d75c06b39f4e9cfb"]);
        assert_eq!(fp[2], CellKey::new(&base, "twf", None).fingerprint(insts));
        assert_eq!([fp[3], fp[4], fp[5]], [fp[0], fp[2], fp[0]]);
    }
}
