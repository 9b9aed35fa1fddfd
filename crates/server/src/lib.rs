//! # contopt-server — sweep-as-a-service for the contopt lab
//!
//! The server half of the sweep service: a TCP daemon that accepts
//! scenario (or raw-plan) submissions in the
//! [`contopt_client::protocol`] wire format, fans the deduplicated cells
//! across a bounded worker pool, and answers with the same canonical
//! `Report` JSON a local `contopt-experiments` run would produce —
//! byte-for-byte, so remote golden checks stay meaningful.
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
//!   simulation per unique cell, total.
//!
//! And three make it robust:
//!
//! * **Per-cell fault isolation** — a simulation that panics is caught
//!   (`catch_unwind`) and reported as a typed `cell_error` frame; every
//!   sibling cell still streams back, and the panicked cell's in-flight
//!   claim is released so concurrent joiners never deadlock on the
//!   `Condvar`. The sweep degrades by one cell instead of tearing down.
//! * **Deadlines** — every connection gets read/write timeouts
//!   ([`ServerConfig::request_timeout`], `--request-timeout` on the
//!   binary), so a stalled or malicious peer cannot pin a handler
//!   thread forever.
//! * **Graceful drain** — shutting a server down stops accepting, then
//!   waits (bounded by [`ServerConfig::drain_timeout`]) for in-flight
//!   connections to finish before returning.
//!
//! A deterministic fault-injection harness (the [`fault`] module, only
//! compiled under `cfg(any(test, feature = "fault-injection"))`) scripts
//! cell panics, connection drops, frame truncation, delays, and black
//! holes into a live server; `tests/faults.rs` drives it end-to-end.
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

#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;

#[cfg(any(test, feature = "fault-injection"))]
use fault::{ConnFaults, FrameFate};

/// No-op stand-ins so the serve path reads identically whether or not
/// fault injection is compiled in.
#[cfg(not(any(test, feature = "fault-injection")))]
mod fault_stub {
    pub(crate) struct ConnFaults;

    #[allow(dead_code)] // Truncate/Drop are never built without injection
    pub(crate) enum FrameFate {
        Send,
        Truncate,
        Drop,
    }

    impl ConnFaults {
        pub(crate) fn none() -> ConnFaults {
            ConnFaults
        }

        pub(crate) fn black_hole(&self) -> bool {
            false
        }

        pub(crate) fn before_frame(&mut self) -> FrameFate {
            FrameFate::Send
        }
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
use fault_stub::{ConnFaults, FrameFate};

use contopt_client::protocol::{
    read_frame, write_frame, CellError, CellReply, CellResult, DownstreamStatus, Message, PlanCell,
    ProtocolError, ServerStatus, SweepStatus, WireError, PROTOCOL_VERSION,
};
use contopt_sim::isa::{asm_text, Program};
use contopt_sim::{
    run_parallel, CellKey, MachineConfig, ProgramSource, ProgramSpec, SimSession, VerifyPolicy,
    ALL_WORKLOADS,
};
use federation::{DownstreamLink, Federation, FederationConfig};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Write};
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
            jobs: default_jobs(),
            cache_capacity: 1024,
            request_timeout: Some(DEFAULT_REQUEST_TIMEOUT),
            drain_timeout: Duration::from_secs(5),
            federation: FederationConfig::default(),
        }
    }
}

/// The default per-connection read/write deadline (`--request-timeout`).
pub const DEFAULT_REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// The machine's available parallelism, as a sane worker-pool default.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A text-authored program bound to a cell (from a scenario's or plan's
/// `"programs"` block): the assembled image, its canonical encoding,
/// and the verification policy it was admitted under.
#[derive(Debug, Clone)]
pub struct CellProgram {
    /// The canonical [`asm_text::emit`] rendering — the behavioural
    /// identity folded into cache keys and wire fingerprints, and the
    /// text a frontier re-ships when it forwards the cell downstream.
    pub text: Arc<str>,
    /// The assembled program the simulation runs.
    pub program: Arc<Program>,
    /// The verification policy forwarded along with the program.
    pub verify: VerifyPolicy,
}

impl CellProgram {
    /// Canonicalizes an assembled program for caching and forwarding.
    pub fn new(program: Arc<Program>, verify: VerifyPolicy) -> CellProgram {
        CellProgram {
            text: asm_text::emit(&program).into(),
            program,
            verify,
        }
    }
}

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
    /// The shipped program this cell runs, when the submission carried
    /// one under this cell's workload name.
    pub program: Option<CellProgram>,
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

/// The non-blocking face of the cache/claim state machine, for the
/// forwarding path (which must never sleep on another request's work
/// while it holds a whole batch).
enum TryObtain {
    /// Served from cache.
    Hit(Arc<String>),
    /// Another request owns the in-flight claim; come back via the
    /// blocking [`SweepEngine::obtain`] after the batch resolves.
    Busy,
    /// The claim is now held by the caller, who must resolve it through
    /// `simulate_claimed`, `publish_forwarded`, or `release_claim`.
    Claimed,
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
    /// Set when the server begins shutting down; long-running fault
    /// handlers (black holes) also poll it so drain stays bounded.
    draining: AtomicBool,
    /// Downstream links (empty on a standalone server).
    federation: Federation,
    #[cfg(any(test, feature = "fault-injection"))]
    faults: Mutex<Option<Arc<fault::FaultPlan>>>,
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
            #[cfg(any(test, feature = "fault-injection"))]
            faults: Mutex::new(None),
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

    /// Installs a fault plan; subsequent connections and simulations
    /// consult it. Only available with fault injection compiled in.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn inject_faults(&self, plan: fault::FaultPlan) {
        *self
            .faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::new(plan));
    }

    #[cfg(any(test, feature = "fault-injection"))]
    fn fault_plan(&self) -> Option<Arc<fault::FaultPlan>> {
        self.faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Claims connection-level faults for a fresh connection.
    fn claim_conn_faults(&self) -> ConnFaults {
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(plan) = self.fault_plan() {
            return plan.claim_connection();
        }
        ConnFaults::none()
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

    /// Marks the engine as draining (black-hole handlers and other
    /// long waits poll this to wind down promptly).
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
                let program = cell.program.as_ref().map(|cp| Arc::clone(&cp.text));
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
                    Some(cp) => builder.program(Arc::clone(&cp.program)),
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
        let assignment = if links.is_empty() {
            vec![0; uniq.len()]
        } else {
            let mut loads = Vec::with_capacity(links.len() + 1);
            loads.push(self.in_flight_cells() as u64);
            loads.extend(links.iter().map(|l| l.outstanding()));
            scheduler::place(uniq.len(), &loads)
        };
        let local_cells: Vec<usize> = (0..uniq.len()).filter(|&i| assignment[i] == 0).collect();
        let mut per_link: Vec<Vec<usize>> = vec![Vec::new(); links.len()];
        for (i, &backend) in assignment.iter().enumerate() {
            if backend > 0 {
                per_link[backend - 1].push(i);
            }
        }

        let jobs = jobs_hint
            .map(|h| h.clamp(1, self.jobs as u64) as usize)
            .unwrap_or(self.jobs);
        let uniq_ref = &uniq;
        let (local, forwarded) = std::thread::scope(|s| {
            let forwarders: Vec<_> = per_link
                .into_iter()
                .zip(links.iter())
                .filter(|(batch, _)| !batch.is_empty())
                .map(|(batch, link)| {
                    let link = Arc::clone(link);
                    s.spawn(move || self.forward_batch(insts, uniq_ref, &batch, &link))
                })
                .collect();
            // Simulation panics are caught inside `obtain`; a worker that
            // dies anyway loses only the cell it was running.
            let local = run_parallel(&local_cells, jobs, |&i| {
                let (_, key, session) = &uniq[i];
                self.obtain(key, session)
            });
            // Forwarder claims release on unwind (ClaimSet), so joiners
            // re-claim instead of deadlocking.
            let forwarded: Vec<_> = forwarders
                .into_iter()
                .filter_map(|h| h.join().ok())
                .collect();
            (local, forwarded)
        });
        let mut obtained: Vec<Option<CellOutcome>> = (0..uniq.len()).map(|_| None).collect();
        for (&i, outcome) in local_cells.iter().zip(local) {
            obtained[i] = outcome;
        }
        let mut ds_statuses: Vec<SweepStatus> = Vec::new();
        for (out, status) in forwarded {
            for (i, outcome) in out {
                obtained[i] = Some(outcome);
            }
            ds_statuses.extend(status);
        }

        let mut simulated = 0u64;
        let mut cache_hits = 0u64;
        let mut joined = 0u64;
        let mut errors = 0u64;
        let mut forwarded = 0u64;
        for entry in &obtained {
            match entry {
                Some(CellOutcome::Ready(_, Obtained::Simulated)) => simulated += 1,
                Some(CellOutcome::Ready(_, Obtained::CacheHit)) => cache_hits += 1,
                Some(CellOutcome::Ready(_, Obtained::Joined)) => joined += 1,
                Some(CellOutcome::Ready(_, Obtained::Forwarded)) => forwarded += 1,
                Some(CellOutcome::Failed { .. }) | None => errors += 1,
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
                    Some(CellOutcome::Ready(report, _)) => CellReply::Report(CellResult {
                        label: cell.label.clone(),
                        workload: cell.workload.clone(),
                        fingerprint,
                        report: String::clone(report),
                    }),
                    Some(CellOutcome::Failed { code, message }) => CellReply::Failed(CellError {
                        label: cell.label.clone(),
                        workload: cell.workload.clone(),
                        fingerprint,
                        code: code.clone(),
                        message: message.clone(),
                    }),
                    // The worker or forwarder holding this cell died.
                    None => CellReply::Failed(CellError {
                        label: cell.label.clone(),
                        workload: cell.workload.clone(),
                        fingerprint,
                        code: "internal".to_string(),
                        message: "sweep worker terminated before this cell completed".to_string(),
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
    /// `submit_plan` (shipping any cell programs inline), publishing
    /// every returned report into the local cache under the batch's
    /// already-held claims — cache coherence across tiers: on the next
    /// request a forwarded cell is indistinguishable from a locally
    /// simulated one. A link failure (retries exhausted, rejection, or
    /// a short reply stream) marks the link unhealthy and the remaining
    /// batch is simulated locally under the same claims, so no cell is
    /// lost or simulated twice.
    fn forward_batch(
        &self,
        insts: u64,
        uniq: &[(&SweepCell, (CellKey, u64), SimSession)],
        batch: &[usize],
        link: &Arc<DownstreamLink>,
    ) -> (Vec<(usize, CellOutcome)>, Option<SweepStatus>) {
        let mut out: Vec<(usize, CellOutcome)> = Vec::with_capacity(batch.len());
        let mut claimed: Vec<usize> = Vec::new();
        let mut deferred: Vec<usize> = Vec::new();
        // Phase 1 (non-blocking): a frontier cache hit never forwards,
        // a busy cell waits its turn locally, everything else is
        // claimed for the downstream batch.
        for &i in batch {
            match self.try_obtain(&uniq[i].1) {
                TryObtain::Hit(report) => {
                    out.push((i, CellOutcome::Ready(report, Obtained::CacheHit)));
                }
                TryObtain::Busy => deferred.push(i),
                TryObtain::Claimed => claimed.push(i),
            }
        }

        let mut ds_status = None;
        if !claimed.is_empty() {
            // Panic-safe claim ledger: claims not explicitly resolved
            // below are released on unwind so Condvar joiners re-claim
            // instead of deadlocking on cells nobody owns.
            struct ClaimSet<'a> {
                engine: &'a SweepEngine,
                keys: Vec<Option<&'a (CellKey, u64)>>,
            }
            impl<'a> ClaimSet<'a> {
                fn take(&mut self, j: usize) -> Option<&'a (CellKey, u64)> {
                    self.keys.get_mut(j).and_then(Option::take)
                }
            }
            impl Drop for ClaimSet<'_> {
                fn drop(&mut self) {
                    for key in self.keys.iter().flatten() {
                        self.engine.release_claim(key);
                    }
                }
            }
            let mut claims = ClaimSet {
                engine: self,
                keys: claimed.iter().map(|&i| Some(&uniq[i].1)).collect(),
            };

            let mut plan = Vec::with_capacity(claimed.len());
            let mut programs: Vec<ProgramSpec> = Vec::new();
            for &i in &claimed {
                let cell = uniq[i].0;
                if let Some(cp) = &cell.program {
                    if !programs.iter().any(|p| p.name == cell.workload) {
                        programs.push(ProgramSpec {
                            name: cell.workload.clone(),
                            source: ProgramSource::Inline(cp.text.to_string()),
                            verify: cp.verify,
                            program: Arc::clone(&cp.program),
                        });
                    }
                }
                plan.push(PlanCell {
                    label: cell.label.clone(),
                    machine: cell.machine,
                    workload: cell.workload.clone(),
                });
            }

            link.add_outstanding(claimed.len() as u64);
            let forwarded = link
                .client()
                .submit_plan_with_programs(insts, plan, programs, None)
                .and_then(|mut sweep| {
                    let replies = sweep.fetch_reports()?;
                    Ok((sweep.status(), replies))
                });
            link.sub_outstanding(claimed.len() as u64);

            match forwarded {
                Ok((status, replies)) if replies.len() == claimed.len() => {
                    link.note_forwarded(claimed.len() as u64);
                    ds_status = Some(status);
                    for (j, reply) in replies.into_iter().enumerate() {
                        let i = claimed[j];
                        let Some(key) = claims.take(j) else { continue };
                        match reply {
                            CellReply::Report(r) => {
                                let report = Arc::new(r.report);
                                self.publish_forwarded(key, &report);
                                out.push((i, CellOutcome::Ready(report, Obtained::Forwarded)));
                            }
                            CellReply::Failed(e) => {
                                // The downstream's typed cell_error
                                // occupies this cell's slot, exactly as
                                // a local panic would.
                                self.release_claim(key);
                                out.push((
                                    i,
                                    CellOutcome::Failed {
                                        code: e.code,
                                        message: e.message,
                                    },
                                ));
                            }
                        }
                    }
                }
                _ => {
                    // Link exhausted: drain it and absorb the batch
                    // locally under the claims we already hold.
                    link.mark_unhealthy();
                    for (j, &i) in claimed.iter().enumerate() {
                        let Some(key) = claims.take(j) else { continue };
                        out.push((i, self.simulate_claimed(key, &uniq[i].2)));
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
    /// in-flight simulation, or by claiming and simulating it here. A
    /// panicking simulation is caught and degraded to
    /// [`CellOutcome::Failed`]; its in-flight claim is released so
    /// joiners wake and re-claim instead of deadlocking on a cell
    /// nobody owns.
    fn obtain(&self, key: &(CellKey, u64), session: &SimSession) -> CellOutcome {
        let mut waited = false;
        let mut state = self.lock();
        loop {
            // Split the borrow so the tick bump and the cache lookup can
            // coexist without a second lookup.
            let s = &mut *state;
            if let Some(entry) = s.cache.get_mut(key) {
                s.tick += 1;
                entry.tick = s.tick;
                let report = Arc::clone(&entry.report);
                let how = if waited {
                    Obtained::Joined
                } else {
                    Obtained::CacheHit
                };
                return CellOutcome::Ready(report, how);
            }
            if s.in_flight.contains(key) {
                waited = true;
                state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            s.in_flight.insert(key.clone());
            break;
        }
        drop(state);
        self.simulate_claimed(key, session)
    }

    /// One non-blocking step of [`obtain`](Self::obtain): a cache hit
    /// returns the report, an in-flight cell reports busy (the caller
    /// decides whether to wait), otherwise the cell is claimed and the
    /// caller *must* resolve the claim — by
    /// [`simulate_claimed`](Self::simulate_claimed),
    /// [`publish_forwarded`](Self::publish_forwarded), or
    /// [`release_claim`](Self::release_claim).
    fn try_obtain(&self, key: &(CellKey, u64)) -> TryObtain {
        let mut state = self.lock();
        let s = &mut *state;
        if let Some(entry) = s.cache.get_mut(key) {
            s.tick += 1;
            entry.tick = s.tick;
            return TryObtain::Hit(Arc::clone(&entry.report));
        }
        if s.in_flight.contains(key) {
            return TryObtain::Busy;
        }
        s.in_flight.insert(key.clone());
        TryObtain::Claimed
    }

    /// Runs a cell the caller already holds the in-flight claim for,
    /// publishing the report (or releasing the claim on panic, so
    /// joiners wake and re-claim instead of deadlocking on a cell
    /// nobody owns).
    fn simulate_claimed(&self, key: &(CellKey, u64), session: &SimSession) -> CellOutcome {
        struct Claim<'a> {
            engine: &'a SweepEngine,
            key: &'a (CellKey, u64),
            published: bool,
        }
        impl Drop for Claim<'_> {
            fn drop(&mut self) {
                if !self.published {
                    self.engine.release_claim(self.key);
                }
            }
        }
        let mut claim = Claim {
            engine: self,
            key,
            published: false,
        };

        #[cfg(any(test, feature = "fault-injection"))]
        let injected = self
            .fault_plan()
            .is_some_and(|plan| plan.take_panic(key.0.workload()));
        #[cfg(not(any(test, feature = "fault-injection")))]
        let injected = false;

        let run = catch_unwind(AssertUnwindSafe(|| {
            if injected {
                panic!("injected fault: cell panic");
            }
            session.run().canonical_json()
        }));
        let report = match run {
            Ok(json) => Arc::new(json),
            Err(payload) => {
                // `claim` drops here unpublished: the in-flight entry is
                // removed and joiners are notified, so they re-claim the
                // cell (and surface their own error if it fails again).
                return CellOutcome::Failed {
                    code: "panic".to_string(),
                    message: panic_message(payload.as_ref()),
                };
            }
        };

        let mut state = self.lock();
        state.total_simulations += 1;
        self.publish_locked(&mut state, key, &report);
        claim.published = true;
        drop(state);
        self.cond.notify_all();
        CellOutcome::Ready(report, Obtained::Simulated)
    }

    /// Installs a report produced *elsewhere* (a downstream server)
    /// under a claim this frontier holds. Identical to the local
    /// publish except the engine's own simulation counter does not
    /// move — the downstream's `sweep_status` accounts for the work.
    fn publish_forwarded(&self, key: &(CellKey, u64), report: &Arc<String>) {
        let mut state = self.lock();
        self.publish_locked(&mut state, key, report);
        drop(state);
        self.cond.notify_all();
    }

    /// Caches `report` under `key` (tick-stamped, capacity-gated LRU)
    /// and releases the in-flight claim. Callers notify the Condvar
    /// after unlocking.
    fn publish_locked(&self, state: &mut EngineState, key: &(CellKey, u64), report: &Arc<String>) {
        state.tick += 1;
        let tick = state.tick;
        if self.cache_capacity > 0 {
            if state.cache.len() >= self.cache_capacity {
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
            state.cache.insert(
                key.clone(),
                CacheEntry {
                    report: Arc::clone(report),
                    tick,
                },
            );
        }
        state.in_flight.remove(key);
    }

    /// Releases an unresolved in-flight claim and wakes joiners so they
    /// re-claim the cell.
    fn release_claim(&self, key: &(CellKey, u64)) {
        self.lock().in_flight.remove(key);
        self.cond.notify_all();
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

/// Builds the name → [`CellProgram`] table for a submission's inline
/// programs (the protocol layer assembled each one on parse). Names must
/// be unique and must not shadow a Table 1 workload — the same rule at
/// every federation tier, so a frontier never forwards a program a
/// downstream would refuse.
fn program_table(programs: &[ProgramSpec]) -> Result<Vec<(String, CellProgram)>, WireError> {
    let bad = |message: String| WireError {
        code: "bad-request".to_string(),
        message,
    };
    let mut table: Vec<(String, CellProgram)> = Vec::with_capacity(programs.len());
    for spec in programs {
        if contopt_sim::workloads::build(&spec.name).is_some() {
            return Err(bad(format!(
                "program {:?} shadows a Table 1 workload; pick a distinct name",
                spec.name
            )));
        }
        if table.iter().any(|(name, _)| *name == spec.name) {
            return Err(bad(format!("duplicate program {:?}", spec.name)));
        }
        table.push((
            spec.name.clone(),
            CellProgram::new(Arc::clone(&spec.program), spec.verify),
        ));
    }
    Ok(table)
}

/// A requested cell: `workload` runs the submission's shipped program of
/// that name when there is one, and the Table 1 benchmark otherwise.
fn sweep_cell(
    label: &str,
    machine: MachineConfig,
    workload: &str,
    table: &[(String, CellProgram)],
) -> SweepCell {
    SweepCell {
        label: label.to_string(),
        machine,
        workload: workload.to_string(),
        program: table
            .iter()
            .find(|(name, _)| name == workload)
            .map(|(_, cp)| cp.clone()),
    }
}

/// Expands a submission message into the flat cell list the engine runs.
/// Returns `(insts, cells, jobs_hint)`.
fn expand_request(msg: Message) -> Result<(u64, Vec<SweepCell>, Option<u64>), WireError> {
    match msg {
        Message::SubmitScenario { jobs, scenario } => {
            // Scenario programs arrive assembled and verified, and every
            // name was validated on receipt (the protocol layer enforces
            // inline text and runs the verifier). Cells expand by name —
            // nothing a client names outlives its request — and cells
            // carrying a program are cache-keyed by its canonical text,
            // so client-chosen names can never alias each other or
            // Table 1 workloads.
            let table = program_table(&scenario.programs)?;
            let mut cells = Vec::new();
            for cfg in &scenario.configs {
                for name in &cfg.workloads {
                    if name == ALL_WORKLOADS {
                        for w in contopt_sim::workloads::names() {
                            cells.push(sweep_cell(&cfg.label, cfg.machine, w, &table));
                        }
                    } else {
                        cells.push(sweep_cell(&cfg.label, cfg.machine, name, &table));
                    }
                }
            }
            Ok((scenario.insts, cells, jobs))
        }
        Message::SubmitPlan {
            jobs,
            insts,
            cells,
            programs,
        } => {
            let table = program_table(&programs)?;
            let cells = cells
                .iter()
                .map(|c| sweep_cell(&c.label, c.machine, &c.workload, &table))
                .collect();
            Ok((insts, cells, jobs))
        }
        other => Err(WireError {
            code: "bad-request".to_string(),
            message: format!(
                "expected submit_scenario, submit_plan, or ping, got {}",
                other.type_tag()
            ),
        }),
    }
}

/// Writes one response frame, applying any connection-level injected
/// faults. `Ok(true)` = sent, keep going; `Ok(false)` = the connection
/// was deliberately cut (injected drop/truncation), stop.
fn send_frame(
    writer: &mut BufWriter<TcpStream>,
    msg: &Message,
    faults: &mut ConnFaults,
) -> Result<bool, ProtocolError> {
    match faults.before_frame() {
        FrameFate::Send => {
            write_frame(writer, msg)?;
            Ok(true)
        }
        FrameFate::Drop => Ok(false),
        FrameFate::Truncate => {
            // A deliberately half-written frame: correct length prefix,
            // half the payload, then the connection closes — the reader
            // must surface a typed I/O error, never hang or misparse.
            let text = msg.to_json().to_string();
            let bytes = text.as_bytes();
            writer.write_all(&(bytes.len() as u32).to_be_bytes())?;
            writer.write_all(&bytes[..bytes.len() / 2])?;
            writer.flush()?;
            Ok(false)
        }
    }
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
    let mut faults = engine.claim_conn_faults();
    let fail = |writer: &mut BufWriter<TcpStream>,
                faults: &mut ConnFaults,
                code: &str,
                message: String| {
        // Best-effort: the peer may already be gone.
        let _ = send_frame(
            writer,
            &Message::Error(WireError {
                code: code.to_string(),
                message,
            }),
            faults,
        );
    };
    let request = match read_frame(&mut reader) {
        Ok(msg) => msg,
        Err(ProtocolError::VersionMismatch(v)) => {
            return fail(
                &mut writer,
                &mut faults,
                "version",
                format!("unsupported protocol version {v}"),
            )
        }
        Err(ProtocolError::Io(_)) => return, // peer vanished; nothing to tell it
        Err(e) => return fail(&mut writer, &mut faults, "bad-request", e.to_string()),
    };
    if faults.black_hole() {
        // Injected fault: swallow the request. Bounded — wind down as
        // soon as the server drains (or after the deadline budget), so
        // a black hole never outlives its test.
        let cap = engine
            .request_timeout
            .unwrap_or(DEFAULT_REQUEST_TIMEOUT)
            .saturating_mul(4);
        let start = Instant::now();
        while !engine.is_draining() && start.elapsed() < cap {
            std::thread::sleep(Duration::from_millis(10));
        }
        return;
    }
    if matches!(request, Message::Ping) {
        let _ = send_frame(
            &mut writer,
            &Message::ServerStatus(engine.server_status()),
            &mut faults,
        );
        return;
    }
    let (insts, cells, jobs) = match expand_request(request) {
        Ok(parts) => parts,
        Err(e) => return fail(&mut writer, &mut faults, &e.code, e.message),
    };
    let response = match engine.sweep(insts, &cells, jobs) {
        Ok(r) => r,
        Err(e) => return fail(&mut writer, &mut faults, &e.code, e.message),
    };
    match send_frame(
        &mut writer,
        &Message::SweepStatus(response.status),
        &mut faults,
    ) {
        Ok(true) => {}
        Ok(false) | Err(_) => return,
    }
    for cell in response.cells {
        let msg = match cell {
            CellReply::Report(r) => Message::CellResult(r),
            CellReply::Failed(e) => Message::CellError(e),
        };
        match send_frame(&mut writer, &msg, &mut faults) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
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

    /// Installs a fault plan on the engine (see [`fault::FaultPlan`]).
    /// Only available with fault injection compiled in.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn inject_faults(&self, plan: fault::FaultPlan) {
        self.engine.inject_faults(plan);
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
    use contopt_sim::Scenario;

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
