//! # contopt-client — SDK and CLI for the contopt sweep service
//!
//! This crate is the client half of *sweep-as-a-service*: it owns the
//! [`protocol`] module both sides compile against, and layers a small
//! blocking SDK on top of it. A [`Client`] submits a scenario (the same
//! checked-in `scenarios/*.json` format the local harness runs) or a raw
//! cell plan to a `contopt-server`, and streams back per-cell canonical
//! `Report` JSON — byte-identical to what a local run would have written
//! under `goldens/`, so the golden-check machinery in
//! `contopt-experiments` applies unchanged to remote results.
//!
//! ```no_run
//! use contopt_client::Client;
//! use contopt_sim::Scenario;
//!
//! let scenario = Scenario::parse(&std::fs::read_to_string("scenarios/smoke.json")?)?;
//! let mut sweep = Client::new("127.0.0.1:4077").submit_scenario(&scenario, None)?;
//! println!("{} unique cells, {} from cache", sweep.status().unique, sweep.status().cache_hits);
//! for cell in sweep.fetch_reports()? {
//!     match cell.into_result() {
//!         Ok(ok) => print!("{}/{} [{}]\n{}", ok.label, ok.workload, ok.fingerprint, ok.report),
//!         Err(failed) => eprintln!("{failed}"),
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Robustness
//!
//! The client never blocks forever and never re-pays for finished work:
//!
//! * **Deadlines** — connects are bounded by
//!   [`ClientConfig::connect_timeout`] and every read/write by
//!   [`ClientConfig::io_timeout`]; a black-holed server surfaces as a
//!   typed timeout error, not a hang.
//! * **Retries** — transient failures (connection refused/dropped, a
//!   deadline mid-stream) are retried per [`RetryPolicy`]: bounded
//!   attempts, exponential backoff, and *deterministic* splitmix64
//!   jitter (seeded, no `rand` — reproducible schedules in tests).
//! * **Idempotent recovery** — a retry re-submits the whole request, but
//!   the server caches every completed cell by behavioural fingerprint,
//!   so only the cells that had not finished are re-simulated; finished
//!   cells come back from cache, byte-identical.
//!
//! The `contopt-client` binary wraps this in a CLI whose `--check` mode
//! pairs each returned report with its golden file and reuses the
//! experiments crate's golden harness (`check_goldens` +
//! `TolerancePolicy`), so a remote check exits with the same code — and
//! for the same bytes — as a local `contopt-experiments --scenario FILE
//! --check`. A per-cell server failure (`cell_error` frame) maps to exit
//! code 3, while every sibling cell is still checked.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod protocol;

use contopt_sim::workloads::splitmix64;
use contopt_sim::{ProgramSpec, Scenario};
use protocol::{
    read_frame, write_frame, CellReply, Message, PlanCell, ProtocolError, ServerStatus,
    SweepStatus, WireError,
};
use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure: transport, protocol, or a server-reported
/// error.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting to the server failed (refused, unreachable, or the
    /// connect deadline expired).
    Connect(io::Error),
    /// The conversation broke down at the wire level (includes read and
    /// write deadlines expiring mid-exchange).
    Protocol(ProtocolError),
    /// The server rejected the request or failed mid-sweep.
    Remote(WireError),
    /// The server sent a message the protocol allows but this exchange
    /// does not (e.g. a request type in a response position).
    Unexpected(&'static str),
}

impl ClientError {
    /// Whether retrying the same request could plausibly succeed: the
    /// failure was in transport (connect, dropped connection, expired
    /// deadline), not a server-side rejection or a malformed payload.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ClientError::Connect(_) | ClientError::Protocol(ProtocolError::Io(_))
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "cannot reach sweep server: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Remote(e) => write!(f, "{e}"),
            ClientError::Unexpected(what) => {
                write!(f, "server sent an out-of-place message: expected {what}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// When and how often to retry transient failures.
///
/// Attempt `n` (0-based) sleeps for a duration drawn deterministically
/// from `[cap/2, cap]`, where `cap = min(max_delay, base_delay · 2ⁿ)`
/// and the position inside the window comes from splitmix64 over
/// `seed + n` — the same seed always produces the same schedule, so
/// recovery tests are exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts (1 = no retries).
    pub max_attempts: u32,
    /// Backoff window before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff window.
    pub max_delay: Duration,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
            seed: 0x5EED_C047_0707_2026,
        }
    }
}

impl RetryPolicy {
    /// No retries: one attempt, fail fast.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The deterministic backoff before retry number `attempt`
    /// (0-based): jittered within `[cap/2, cap]` for
    /// `cap = min(max_delay, base_delay · 2^attempt)`.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let base = self.base_delay.as_nanos() as u64;
        let cap = base
            .saturating_mul(1u64 << attempt.min(32))
            .min(self.max_delay.as_nanos() as u64);
        let half = cap / 2;
        let jitter = if half == 0 {
            0
        } else {
            splitmix64(self.seed.wrapping_add(u64::from(attempt))) % (half + 1)
        };
        Duration::from_nanos(half + jitter)
    }
}

/// Deadlines and retry behaviour for a [`Client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Bound on each read and write on the stream (`None` = block
    /// forever). The default is generous — the server answers only once
    /// the whole sweep has executed — but finite, so a stalled socket is
    /// a typed error, never a hang.
    pub io_timeout: Option<Duration>,
    /// Retry schedule for transient failures.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            io_timeout: Some(Duration::from_secs(300)),
            retry: RetryPolicy::default(),
        }
    }
}

/// A handle on a sweep server, addressed as `HOST:PORT`.
///
/// The client is connectionless between submissions: each
/// [`submit_scenario`](Client::submit_scenario) /
/// [`submit_plan`](Client::submit_plan) opens one TCP connection that
/// carries exactly that request and its response stream. Transient
/// failures — connect errors, and connection drops or expired deadlines
/// mid-stream — are retried per the configured [`RetryPolicy`]; because
/// the server caches completed cells by fingerprint, a retry only
/// re-costs the cells that had not finished.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    config: ClientConfig,
}

impl Client {
    /// Creates a client for the server at `addr` (`HOST:PORT`) with the
    /// default deadlines and retry policy.
    pub fn new(addr: impl Into<String>) -> Client {
        Client::with_config(addr, ClientConfig::default())
    }

    /// Creates a client with explicit deadlines and retry behaviour.
    pub fn with_config(addr: impl Into<String>, config: ClientConfig) -> Client {
        Client {
            addr: addr.into(),
            config,
        }
    }

    /// The server address this client submits to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The deadlines and retry policy in force.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// Submits a full scenario sweep.
    ///
    /// `jobs` hints how many workers the server should dedicate; the
    /// server clamps it to its own pool. The scenario is validated
    /// locally before anything is sent, so a malformed file fails fast
    /// with the same [`ScenarioError`](contopt_sim::ScenarioError)
    /// diagnostics a local run would produce.
    pub fn submit_scenario(
        &self,
        scenario: &Scenario,
        jobs: Option<u64>,
    ) -> Result<Sweep, ClientError> {
        scenario.validate().map_err(ProtocolError::Scenario)?;
        // Shipped programs must be self-contained on the wire: a "file"
        // source resolves against *this* host's filesystem, so its
        // assembled form travels as canonical inline text instead.
        let scenario = scenario.with_inlined_programs();
        self.submit(Message::SubmitScenario { jobs, scenario })
    }

    /// Submits a raw list of cells under one instruction budget.
    pub fn submit_plan(
        &self,
        insts: u64,
        cells: Vec<PlanCell>,
        jobs: Option<u64>,
    ) -> Result<Sweep, ClientError> {
        self.submit_plan_with_programs(insts, cells, Vec::new(), jobs)
    }

    /// [`submit_plan`](Self::submit_plan) with text-authored programs
    /// shipped alongside the cells: workload names resolve against
    /// `programs` before Table 1, exactly as in a scenario's
    /// `"programs"` block. Sources must be inline ([`ProgramSpec`]s
    /// built by [`Scenario::with_inlined_programs`] or
    /// `ProgramSpec::inline` qualify); the server re-assembles and
    /// verifies them at its protocol boundary. This is also the
    /// call a federated frontier server makes on its own downstream
    /// links — the SDK is shared between clients and servers.
    pub fn submit_plan_with_programs(
        &self,
        insts: u64,
        cells: Vec<PlanCell>,
        programs: Vec<ProgramSpec>,
        jobs: Option<u64>,
    ) -> Result<Sweep, ClientError> {
        self.submit(Message::SubmitPlan {
            jobs,
            insts,
            cells,
            programs,
        })
    }

    /// Probes the server's liveness: sends a `ping` and returns the
    /// server's configuration and lifetime counters. Uses the same
    /// deadlines as a submission but never retries — a health check
    /// should report the first answer, fast.
    pub fn ping(&self) -> Result<ServerStatus, ClientError> {
        let (mut reader, mut writer) = self.open()?;
        write_frame(&mut writer, &Message::Ping)?;
        match read_frame(&mut reader)? {
            Message::ServerStatus(status) => Ok(status),
            Message::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("server_status or error")),
        }
    }

    /// One connection attempt: connect under the deadline and arm the
    /// per-stream read/write deadlines.
    fn open(&self) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), ClientError> {
        let stream = match self.config.connect_timeout {
            None => TcpStream::connect(&self.addr).map_err(ClientError::Connect)?,
            Some(deadline) => {
                let addrs = self.addr.to_socket_addrs().map_err(ClientError::Connect)?;
                let mut last: Option<io::Error> = None;
                let mut connected = None;
                for addr in addrs {
                    match TcpStream::connect_timeout(&addr, deadline) {
                        Ok(s) => {
                            connected = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match connected {
                    Some(s) => s,
                    None => {
                        return Err(ClientError::Connect(last.unwrap_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidInput,
                                "address resolved to no socket addresses",
                            )
                        })))
                    }
                }
            }
        };
        stream
            .set_read_timeout(self.config.io_timeout)
            .map_err(ClientError::Connect)?;
        stream
            .set_write_timeout(self.config.io_timeout)
            .map_err(ClientError::Connect)?;
        let reader = BufReader::new(stream.try_clone().map_err(ClientError::Connect)?);
        Ok((reader, BufWriter::new(stream)))
    }

    /// One full submission attempt: open, send the request, read the
    /// status frame.
    fn open_and_submit(
        &self,
        request: &Message,
    ) -> Result<(BufReader<TcpStream>, SweepStatus), ClientError> {
        let (mut reader, mut writer) = self.open()?;
        write_frame(&mut writer, request)?;
        match read_frame(&mut reader)? {
            Message::SweepStatus(status) => Ok((reader, status)),
            Message::Error(e) => Err(ClientError::Remote(e)),
            _ => Err(ClientError::Unexpected("sweep_status or error")),
        }
    }

    fn submit(&self, request: Message) -> Result<Sweep, ClientError> {
        let mut attempts: u32 = 1;
        loop {
            match self.open_and_submit(&request) {
                Ok((reader, status)) => {
                    return Ok(Sweep {
                        reader,
                        status,
                        client: self.clone(),
                        request,
                        attempts,
                    })
                }
                Err(e) if e.is_transient() && attempts < self.config.retry.max_attempts => {
                    std::thread::sleep(self.config.retry.backoff_delay(attempts - 1));
                    attempts += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Upper bound on the report-vector preallocation. The server-supplied
/// `results` count sizes the first allocation; clamping it means a
/// buggy or malicious server can claim `u64::MAX` results without
/// forcing a huge up-front allocation — the vector just grows normally
/// past this point.
const MAX_PREALLOCATED_RESULTS: u64 = 4096;

/// An accepted sweep: the server's [`SweepStatus`] plus the still-open
/// response stream carrying the per-cell reports.
pub struct Sweep {
    reader: BufReader<TcpStream>,
    status: SweepStatus,
    client: Client,
    request: Message,
    /// Connections opened so far for this request (≥ 1).
    attempts: u32,
}

impl Sweep {
    /// The server's accounting for this sweep (cache hits, fresh
    /// simulations, per-cell errors, lifetime totals). After a
    /// mid-stream retry this reflects the *final* attempt — retried
    /// sweeps typically show everything as cache hits.
    pub fn status(&self) -> SweepStatus {
        self.status
    }

    /// How many times this request was retried on a fresh connection
    /// (0 = the first connection served the whole sweep).
    pub fn retries(&self) -> u32 {
        self.attempts - 1
    }

    /// Drains the response stream, returning one [`CellReply`] per
    /// requested cell, in the request's declaration order — a
    /// [`CellReply::Report`] for each completed cell and a
    /// [`CellReply::Failed`] for each cell the server could not
    /// simulate.
    ///
    /// If the connection drops (or a deadline expires) mid-stream, the
    /// request is re-submitted per the [`RetryPolicy`]; the server's
    /// fingerprint cache makes the retry idempotent — completed cells
    /// are not re-simulated, and the bytes that come back are identical.
    pub fn fetch_reports(&mut self) -> Result<Vec<CellReply>, ClientError> {
        let mut pending: Option<ClientError> = None;
        loop {
            if let Some(e) = pending.take() {
                if self.attempts >= self.client.config.retry.max_attempts {
                    return Err(e);
                }
                std::thread::sleep(
                    self.client
                        .config
                        .retry
                        .backoff_delay(self.attempts.saturating_sub(1)),
                );
                self.attempts += 1;
                match self.client.open_and_submit(&self.request) {
                    Ok((reader, status)) => {
                        self.reader = reader;
                        self.status = status;
                    }
                    Err(e2) if e2.is_transient() => {
                        pending = Some(e2);
                        continue;
                    }
                    Err(e2) => return Err(e2),
                }
            }
            match drain_cells(&mut self.reader, &self.status) {
                Ok(cells) => return Ok(cells),
                Err(e) if e.is_transient() => pending = Some(e),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Reads exactly `status.results` per-cell frames off one connection.
fn drain_cells(
    reader: &mut BufReader<TcpStream>,
    status: &SweepStatus,
) -> Result<Vec<CellReply>, ClientError> {
    let mut cells = Vec::with_capacity(status.results.min(MAX_PREALLOCATED_RESULTS) as usize);
    for _ in 0..status.results {
        match read_frame(reader)? {
            Message::CellResult(cell) => cells.push(CellReply::Report(cell)),
            Message::CellError(e) => cells.push(CellReply::Failed(e)),
            Message::Error(e) => return Err(ClientError::Remote(e)),
            _ => return Err(ClientError::Unexpected("cell_result, cell_error, or error")),
        }
    }
    Ok(cells)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_windowed() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
            seed: 42,
        };
        for attempt in 0..8 {
            let a = policy.backoff_delay(attempt);
            let b = policy.backoff_delay(attempt);
            assert_eq!(a, b, "same (seed, attempt) must give the same delay");
            let cap = policy
                .base_delay
                .saturating_mul(1 << attempt.min(31))
                .min(policy.max_delay);
            assert!(a >= cap / 2, "attempt {attempt}: {a:?} below {cap:?}/2");
            assert!(a <= cap, "attempt {attempt}: {a:?} above cap {cap:?}");
        }
        // The cap stops growing at max_delay.
        assert!(policy.backoff_delay(30) <= policy.max_delay);
    }

    #[test]
    fn backoff_schedules_differ_by_seed_but_not_by_call() {
        let a = RetryPolicy {
            seed: 1,
            ..RetryPolicy::default()
        };
        let b = RetryPolicy {
            seed: 2,
            ..RetryPolicy::default()
        };
        let schedule = |p: &RetryPolicy| (0..4).map(|n| p.backoff_delay(n)).collect::<Vec<_>>();
        assert_eq!(schedule(&a), schedule(&a));
        assert_ne!(
            schedule(&a),
            schedule(&b),
            "different seeds should jitter differently"
        );
    }

    #[test]
    fn transient_errors_are_exactly_transport_failures() {
        let io = ClientError::Protocol(ProtocolError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "dropped",
        )));
        assert!(io.is_transient());
        assert!(
            ClientError::Connect(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"))
                .is_transient()
        );
        assert!(!ClientError::Remote(WireError {
            code: "bad-request".into(),
            message: "m".into(),
        })
        .is_transient());
        assert!(!ClientError::Protocol(ProtocolError::VersionMismatch(9)).is_transient());
        assert!(!ClientError::Unexpected("sweep_status").is_transient());
    }

    #[test]
    fn retry_policy_none_is_single_shot() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
