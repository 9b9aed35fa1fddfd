//! Downstream federation: forwarding sweep cells to other
//! contopt-servers over the same v1 protocol.
//!
//! A *frontier* server started with `--downstream ADDR[,ADDR…]` places
//! each request's deduplicated cells across its local worker pool and a
//! set of downstream links ([`crate::scheduler`] does the placement).
//! Every link wraps the ordinary client SDK — `contopt_client::Client`
//! with its [`ClientConfig`] deadlines and deterministic
//! `RetryPolicy` backoff — so a downstream hop fails, retries, and
//! times out exactly like any other client of the service.
//!
//! Health is tracked per link: a failed forward (or failed startup
//! probe) marks the link unhealthy, unhealthy links drain — they
//! receive no new cells, and their in-flight batch is absorbed by the
//! local pool — and a background `ping` re-probe, at most once per link
//! every 5 s, restores them without ever blocking cell placement.

use contopt_client::protocol::DownstreamStatus;
use contopt_client::{Client, ClientConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long an unhealthy link rests before a background re-probe.
const REPROBE_INTERVAL: Duration = Duration::from_secs(5);

/// How a frontier server reaches its downstream tier.
#[derive(Debug, Clone, Default)]
pub struct FederationConfig {
    /// Downstream `HOST:PORT` addresses (empty = standalone server).
    pub downstreams: Vec<String>,
    /// Per-link deadlines and retry schedule — the same [`ClientConfig`]
    /// any SDK client uses.
    pub client: ClientConfig,
}

/// One downstream contopt-server link: the SDK client plus health and
/// traffic gauges.
#[derive(Debug)]
pub struct DownstreamLink {
    client: Client,
    /// Whether the last interaction (probe or forward) succeeded. Links
    /// start healthy; the first failure flips this and starts draining.
    healthy: AtomicBool,
    /// Guards against concurrent background re-probes of one link.
    probing: AtomicBool,
    /// Cells currently forwarded and not yet answered.
    outstanding: AtomicU64,
    /// Lifetime count of cells forwarded over this link.
    forwarded: AtomicU64,
    last_probe: Mutex<Option<Instant>>,
}

impl DownstreamLink {
    fn new(address: String, config: ClientConfig) -> DownstreamLink {
        DownstreamLink {
            client: Client::with_config(address, config),
            healthy: AtomicBool::new(true),
            probing: AtomicBool::new(false),
            outstanding: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            last_probe: Mutex::new(None),
        }
    }

    /// The downstream address as configured.
    pub fn address(&self) -> &str {
        self.client.addr()
    }

    /// The SDK client this link forwards through.
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Whether the frontier currently considers this link usable.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Marks the link unusable; it drains until a re-probe succeeds.
    pub fn mark_unhealthy(&self) {
        self.healthy.store(false, Ordering::Release);
    }

    /// Cells currently forwarded to this link and not yet answered.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Lifetime count of cells forwarded over this link.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Acquire)
    }

    /// Records `n` more cells answered by this link.
    pub(crate) fn note_forwarded(&self, n: u64) {
        self.forwarded.fetch_add(n, Ordering::AcqRel);
    }

    pub(crate) fn add_outstanding(&self, n: u64) {
        self.outstanding.fetch_add(n, Ordering::AcqRel);
    }

    pub(crate) fn sub_outstanding(&self, n: u64) {
        self.outstanding.fetch_sub(n, Ordering::AcqRel);
    }

    /// Pings the downstream synchronously and records the verdict.
    pub fn probe(&self) -> bool {
        let healthy = self.client.ping().is_ok();
        self.healthy.store(healthy, Ordering::Release);
        *self.last_probe.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
        healthy
    }

    /// Kicks a background re-probe of an unhealthy link, rate-limited
    /// to one probe per `REPROBE_INTERVAL`. Never blocks: the ping (and
    /// its timeouts) runs on a detached thread, so a blackholed
    /// downstream cannot stall cell placement.
    fn maybe_reprobe(self: &Arc<Self>) {
        if self.is_healthy() {
            return;
        }
        if self.probing.swap(true, Ordering::AcqRel) {
            return; // a probe is already running
        }
        let due = {
            let last = self.last_probe.lock().unwrap_or_else(|e| e.into_inner());
            last.is_none_or(|at| at.elapsed() >= REPROBE_INTERVAL)
        };
        if !due {
            self.probing.store(false, Ordering::Release);
            return;
        }
        let link = Arc::clone(self);
        std::thread::spawn(move || {
            link.probe();
            link.probing.store(false, Ordering::Release);
        });
    }

    /// This link's slice of the federated `server_status`.
    pub fn status(&self) -> DownstreamStatus {
        DownstreamStatus {
            address: self.address().to_string(),
            healthy: self.is_healthy(),
            outstanding: self.outstanding(),
            forwarded: self.forwarded(),
        }
    }
}

/// The frontier's set of downstream links. Empty on a standalone
/// server, where every cell executes locally.
#[derive(Debug, Default)]
pub struct Federation {
    links: Vec<Arc<DownstreamLink>>,
}

impl Federation {
    /// Builds the links (one per configured address). No I/O happens
    /// here; call [`probe_all`](Self::probe_all) to check reachability.
    pub fn new(config: &FederationConfig) -> Federation {
        Federation {
            links: config
                .downstreams
                .iter()
                .map(|addr| Arc::new(DownstreamLink::new(addr.clone(), config.client)))
                .collect(),
        }
    }

    /// All configured links, healthy or not.
    pub fn links(&self) -> &[Arc<DownstreamLink>] {
        &self.links
    }

    /// The links currently eligible for placement. Unhealthy links are
    /// skipped (they drain) and each gets a non-blocking re-probe
    /// kicked if one is due.
    pub fn healthy_links(&self) -> Vec<Arc<DownstreamLink>> {
        let mut out = Vec::new();
        for link in &self.links {
            if link.is_healthy() {
                out.push(Arc::clone(link));
            } else {
                link.maybe_reprobe();
            }
        }
        out
    }

    /// Probes every link synchronously (daemon startup, tests) and
    /// returns the resulting topology snapshot.
    pub fn probe_all(&self) -> Vec<DownstreamStatus> {
        for link in &self.links {
            link.probe();
        }
        self.statuses()
    }

    /// The current topology snapshot, one entry per configured link.
    pub fn statuses(&self) -> Vec<DownstreamStatus> {
        self.links.iter().map(|l| l.status()).collect()
    }
}
