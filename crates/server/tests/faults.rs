//! Recovery suite: a real server, a real client, and assertions on
//! *graceful degradation* under cell panics, mid-stream connection
//! drops, frame truncation, black-holed requests, and latency.
//!
//! Every fault comes from outside the server. A loopback relay between
//! the client (or a frontier) and a real server produces the transport
//! faults, and a cell whose `max_cycles` the workload overruns panics in
//! the pipeline for real.

// Test scaffolding may panic freely; the crate-level deny on
// unwrap/expect protects the service itself, not its test harness.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_client::protocol::{CellReply, CellResult, PlanCell};
use contopt_client::{Client, ClientConfig, RetryPolicy};
use contopt_experiments::{check_goldens, golden_path, CheckOutcome, Golden, TolerancePolicy};
use contopt_server::{Server, ServerConfig, ServerHandle};
use contopt_sim::{MachineConfig, Scenario};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn smoke() -> Scenario {
    Scenario::load(repo_root().join("scenarios/smoke.json")).expect("checked-in smoke scenario")
}

/// twf on the paper's machine, capped at `max_cycles`. At smoke's budget
/// twf needs 168,648 cycles, so any smaller cap panics in the pipeline.
fn capped_twf(max_cycles: u64) -> PlanCell {
    let mut machine = MachineConfig::default_paper();
    machine.max_cycles = max_cycles;
    PlanCell {
        label: "capped".to_string(),
        machine,
        workload: "twf".to_string(),
    }
}

/// Smoke's four cells as a raw plan, in declaration order, plus a fifth
/// that panics after 1,000 cycles.
fn smoke_plus_a_panicking_cell(sc: &Scenario) -> Vec<PlanCell> {
    let mut plan: Vec<PlanCell> = sc
        .configs
        .iter()
        .flat_map(|cfg| {
            cfg.workloads.iter().map(|w| PlanCell {
                label: cfg.label.clone(),
                machine: cfg.machine,
                workload: w.clone(),
            })
        })
        .collect();
    plan.push(capped_twf(1_000));
    plan
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server")
}

/// A transport fault the relay applies to one connection.
#[derive(Clone, Copy)]
enum Fault {
    /// Close after this many complete response frames.
    DropAfter(usize),
    /// Send response frame N (1-based) as its length prefix plus half
    /// its payload, then close.
    Truncate(usize),
    /// Wait this long before relaying each response frame.
    Delay(Duration),
    /// Read the request and forward nothing; hold the connection until
    /// the peer gives up, for at most 800 ms.
    BlackHole,
}

/// A loopback relay in front of `upstream`: each of its first `times`
/// connections suffers `fault`, later ones are relayed untouched.
/// Returns the address to connect to instead of `upstream`.
fn relay(upstream: SocketAddr, fault: Fault, times: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let addr = listener.local_addr().expect("relay address");
    std::thread::spawn(move || {
        for (k, conn) in listener.incoming().enumerate() {
            let Ok(conn) = conn else { continue };
            let fault = (k < times).then_some(fault);
            std::thread::spawn(move || relay_connection(conn, upstream, fault));
        }
    });
    addr
}

/// Reads one raw frame: the 4-byte big-endian length prefix and the
/// payload it announces.
fn read_raw_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut frame = vec![0u8; 4];
    r.read_exact(&mut frame)?;
    let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    frame.resize(4 + len, 0);
    r.read_exact(&mut frame[4..])?;
    Ok(frame)
}

/// Relays one request frame upstream and the response frames back until
/// the server closes, applying `fault` on the way back.
fn relay_connection(mut peer: TcpStream, upstream: SocketAddr, fault: Option<Fault>) {
    let Ok(request) = read_raw_frame(&mut peer) else {
        return;
    };
    if let Some(Fault::BlackHole) = fault {
        // Returns when the peer closes, or after 800 ms.
        let _ = peer.set_read_timeout(Some(Duration::from_millis(800)));
        let _ = peer.read(&mut [0u8; 1]);
        return;
    }
    let Ok(mut server) = TcpStream::connect(upstream) else {
        return;
    };
    if server.write_all(&request).is_err() {
        return;
    }
    let mut sent = 0;
    while let Ok(frame) = read_raw_frame(&mut server) {
        match fault {
            Some(Fault::DropAfter(n)) if sent == n => return,
            Some(Fault::Truncate(n)) if sent + 1 == n => {
                let _ = peer.write_all(&frame[..4 + (frame.len() - 4) / 2]);
                return;
            }
            Some(Fault::Delay(d)) => std::thread::sleep(d),
            _ => {}
        }
        if peer.write_all(&frame).is_err() {
            return;
        }
        sent += 1;
    }
}

/// A client with fast, deterministic retries (so the suite stays quick)
/// and a finite I/O deadline.
fn fast_client(addr: String, max_attempts: u32, io_timeout: Duration) -> Client {
    Client::with_config(
        addr,
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            io_timeout: Some(io_timeout),
            retry: RetryPolicy {
                max_attempts,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(80),
                seed: 7,
            },
        },
    )
}

fn default_config() -> ServerConfig {
    ServerConfig {
        jobs: 2,
        cache_capacity: 1024,
        request_timeout: Some(Duration::from_secs(2)),
        drain_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

/// A frontier whose downstream links fail fast: a finite I/O deadline
/// (long enough for a debug-build downstream to actually simulate its
/// batch, short enough that a black-holed link degrades in test time)
/// and a tight retry schedule.
fn frontier_config(downstreams: Vec<String>) -> ServerConfig {
    ServerConfig {
        federation: contopt_server::federation::FederationConfig {
            downstreams,
            client: ClientConfig {
                connect_timeout: Some(Duration::from_secs(5)),
                io_timeout: Some(Duration::from_secs(3)),
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_delay: Duration::from_millis(10),
                    max_delay: Duration::from_millis(80),
                    seed: 13,
                },
            },
        },
        ..default_config()
    }
}

/// Asserts that every report byte-matches its checked-in golden.
fn assert_match_goldens<'a>(sc: &Scenario, reports: impl IntoIterator<Item = &'a CellResult>) {
    let dir = repo_root().join("goldens");
    let goldens: Vec<Golden> = reports
        .into_iter()
        .map(|cell| Golden {
            path: golden_path(&dir, &sc.name, &cell.label, &cell.workload),
            text: cell.report.clone(),
        })
        .collect();
    let drifts = check_goldens(&goldens, &TolerancePolicy::exact()).expect("goldens readable");
    assert!(
        drifts.is_empty(),
        "reports drifted from their goldens: {drifts:?}"
    );
}

/// One panicking cell degrades exactly that cell to a typed
/// `cell_error`; every sibling still streams back, byte-identical to the
/// checked-in goldens, and the status accounting balances.
#[test]
fn a_panicking_cell_yields_cell_error_and_all_siblings() {
    let server = spawn_server(default_config());
    let client = fast_client(server.addr().to_string(), 1, Duration::from_secs(60));
    let sc = smoke();

    let mut sweep = client
        .submit_plan(sc.insts, smoke_plus_a_panicking_cell(&sc), Some(2))
        .expect("submit");
    let status = sweep.status();
    assert_eq!(status.results, 5, "smoke's 2 configs x 2 workloads + 1");
    assert_eq!(status.errors, 1, "exactly the panicked cell failed");
    assert_eq!(
        status.simulated + status.cache_hits + status.joined + status.errors,
        status.unique,
        "accounting still balances with a failed cell: {status:?}"
    );

    let cells = sweep.fetch_reports().expect("fetch");
    assert_eq!(cells.len(), 5, "every requested cell gets a reply");
    let failures: Vec<_> = cells.iter().filter_map(CellReply::failure).collect();
    let reports: Vec<&CellResult> = cells.iter().filter_map(CellReply::report).collect();
    assert_eq!(failures.len(), 1);
    assert_eq!(reports.len(), 4, "N-1 siblings survive the panic");

    let failed = failures[0];
    assert_eq!(failed.label, "capped");
    assert_eq!(failed.workload, "twf", "the capped cell runs twf");
    assert_eq!(failed.code, "panic");
    assert!(
        failed.message.contains("max_cycles"),
        "the panic payload is surfaced: {:?}",
        failed.message
    );
    // A per-cell failure is an *error* outcome for --check: exit code 3.
    assert_eq!(CheckOutcome::Error.exit_code(), 3);

    // The surviving siblings are not merely present — they byte-match
    // the checked-in goldens, exactly as a fault-free sweep would.
    assert_match_goldens(&sc, reports);
}

/// A panicked cell releases its in-flight claim and is never cached:
/// resubmitting the same sweep reruns it (and it fails again) while the
/// survivors come back from cache. A leaked claim would hang the second
/// submission; a cached failure would show up as a hit.
#[test]
fn panicked_claims_are_released_and_the_cell_reruns_on_resubmit() {
    let server = spawn_server(default_config());
    let engine = server.engine();
    let client = fast_client(server.addr().to_string(), 1, Duration::from_secs(60));
    let sc = smoke();
    let plan = smoke_plus_a_panicking_cell(&sc);

    let mut first = client
        .submit_plan(sc.insts, plan.clone(), Some(2))
        .expect("first submit");
    assert_eq!(first.status().errors, 1);
    let _ = first.fetch_reports().expect("fetch");

    let mut second = client
        .submit_plan(sc.insts, plan, Some(2))
        .expect("second submit");
    let status = second.status();
    assert_eq!(status.errors, 1, "the capped cell reran and failed again");
    assert_eq!(status.simulated, 0, "nothing else re-simulates: {status:?}");
    assert_eq!(status.cache_hits, 4, "the survivors come back from cache");
    let cells = second.fetch_reports().expect("fetch");
    assert_eq!(cells.iter().filter_map(CellReply::report).count(), 4);
    assert_eq!(engine.in_flight_cells(), 0, "no claim outlives the panic");
    assert_eq!(engine.cache_entries(), 4, "a failure is never cached");
}

/// Two requests for one panicking cell: the second joins the first's
/// in-flight simulation. When that panics, the released claim must wake
/// the joiner, which reruns the cell and fails too, instead of waiting
/// for a report nobody will publish.
#[test]
fn joiners_of_a_panicking_cell_wake_and_fail_too() {
    let server = spawn_server(default_config());
    let engine = server.engine();
    let addr = server.addr().to_string();
    let insts = smoke().insts;

    // Both requests leave together, and the cap lets the cell run most
    // of its course before it panics, so the second request arrives
    // while the first is in flight.
    let start = Barrier::new(2);
    let replies: Vec<CellReply> = std::thread::scope(|s| {
        let requests: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    // A lost wake-up fails here instead of hanging.
                    let client = fast_client(addr.clone(), 1, Duration::from_secs(10));
                    start.wait();
                    let mut sweep = client
                        .submit_plan(insts, vec![capped_twf(150_000)], None)
                        .expect("submit");
                    sweep.fetch_reports().expect("fetch").remove(0)
                })
            })
            .collect();
        requests
            .into_iter()
            .map(|r| r.join().expect("request thread"))
            .collect()
    });
    for reply in &replies {
        let failed = reply.failure().expect("both requests fail the cell");
        assert_eq!(failed.code, "panic");
        assert!(
            failed.message.contains("max_cycles"),
            "{:?}",
            failed.message
        );
    }
    assert_eq!(engine.in_flight_cells(), 0, "no claim outlives the panic");
}

/// A connection dropped mid-stream (after the status frame and two cell
/// frames) is recovered by the client's retry — and because every
/// completed cell is cached by fingerprint, the retry re-costs nothing:
/// zero duplicate simulations, all cache hits, byte-identical reports.
#[test]
fn mid_stream_drop_is_recovered_by_retry_with_zero_duplicate_simulations() {
    let server = spawn_server(default_config());
    let engine = server.engine();
    let addr = relay(server.addr(), Fault::DropAfter(3), 1);
    let client = fast_client(addr.to_string(), 3, Duration::from_secs(60));
    let sc = smoke();

    let mut sweep = client.submit_scenario(&sc, Some(2)).expect("submit");
    let cells = sweep.fetch_reports().expect("retry must recover the sweep");

    assert_eq!(sweep.retries(), 1, "exactly one retry recovered the drop");
    assert_eq!(cells.len(), 4);
    assert!(cells.iter().all(|c| c.report().is_some()));
    assert_eq!(
        engine.total_simulations(),
        4,
        "the retry re-simulated nothing: the first attempt's cells were cached"
    );
    let status = sweep.status();
    assert_eq!(
        status.cache_hits, status.unique,
        "the winning attempt was served entirely from cache: {status:?}"
    );
    assert_eq!(status.simulated, 0);

    // And the recovered bytes are the simulated bytes: byte-identical to
    // the goldens, as if no fault had ever fired.
    assert_match_goldens(&sc, cells.iter().filter_map(CellReply::report));
}

/// A response frame truncated halfway (length prefix promises more bytes
/// than arrive) surfaces as a typed transport error and is recovered by
/// retry — never a hang, never a misparse.
#[test]
fn truncated_frame_is_a_typed_error_recovered_by_retry() {
    let server = spawn_server(default_config());
    let engine = server.engine();
    let addr = relay(server.addr(), Fault::Truncate(2), 1);
    let client = fast_client(addr.to_string(), 3, Duration::from_secs(60));
    let sc = smoke();

    let mut sweep = client.submit_scenario(&sc, Some(2)).expect("submit");
    let cells = sweep
        .fetch_reports()
        .expect("retry must recover truncation");
    assert_eq!(sweep.retries(), 1);
    assert_eq!(cells.len(), 4);
    assert!(cells.iter().all(|c| c.report().is_some()));
    assert_eq!(engine.total_simulations(), 4, "no duplicate simulations");
}

/// A black-holed request (read, never answered) hits the client's read
/// deadline and fails with a typed transient error in bounded time —
/// the "timeout, not a hang" guarantee.
#[test]
fn black_holed_request_times_out_instead_of_hanging() {
    let server = spawn_server(default_config());
    let addr = relay(server.addr(), Fault::BlackHole, 2);
    // Both attempts are swallowed; the client must give up on its own.
    let client = fast_client(addr.to_string(), 2, Duration::from_millis(250));
    let sc = smoke();

    let start = Instant::now();
    let result = client
        .submit_scenario(&sc, None)
        .map(|_| ())
        .expect_err("a black-holed request must not succeed");
    let elapsed = start.elapsed();
    assert!(
        result.is_transient(),
        "a read deadline is a typed transport error: {result}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "two 250ms deadlines plus backoff must resolve quickly, took {elapsed:?}"
    );
    assert_eq!(
        server.engine().total_simulations(),
        0,
        "black-holed requests never reach the engine"
    );
}

/// Per-frame latency inside the deadline budget slows the sweep but
/// does not break it: delays alone never produce errors or retries.
#[test]
fn delays_within_the_deadline_are_absorbed() {
    let server = spawn_server(default_config());
    let addr = relay(server.addr(), Fault::Delay(Duration::from_millis(20)), 1);
    let client = fast_client(addr.to_string(), 1, Duration::from_secs(60));
    let sc = smoke();

    let mut sweep = client.submit_scenario(&sc, None).expect("submit");
    let cells = sweep.fetch_reports().expect("fetch");
    assert_eq!(sweep.retries(), 0, "latency alone must not trigger retries");
    assert_eq!(cells.len(), 4);
    assert!(cells.iter().all(|c| c.report().is_some()));
    assert_eq!(sweep.status().errors, 0);
}

/// Three-node chaos: a frontier over two downstreams, one of which sits
/// behind a relay that black-holes every connection. The sweep still
/// completes — the dead link's cells are absorbed locally — with zero
/// lost and zero duplicated simulations anywhere in the topology, and
/// the dead link is reported unhealthy afterwards.
#[test]
fn blackholed_downstream_drains_and_the_sweep_completes() {
    let healthy = spawn_server(default_config());
    let dead = spawn_server(default_config());
    // Every connection to the dead link (forwards, retries, background
    // re-probe pings) is swallowed.
    let dead_addr = relay(dead.addr(), Fault::BlackHole, usize::MAX);
    let frontier = spawn_server(frontier_config(vec![
        healthy.addr().to_string(),
        dead_addr.to_string(),
    ]));

    let client = fast_client(frontier.addr().to_string(), 1, Duration::from_secs(60));
    let sc = smoke();
    let mut sweep = client.submit_scenario(&sc, Some(2)).expect("submit");
    let status = sweep.status();
    let cells = sweep.fetch_reports().expect("fetch");

    assert_eq!(cells.len(), 4, "no cell is lost to the dead link");
    assert!(cells.iter().all(|c| c.report().is_some()));
    assert_eq!(status.errors, 0, "{status:?}");
    assert_eq!(
        status.simulated + status.cache_hits + status.joined + status.errors,
        status.unique,
        "accounting balances through the failure: {status:?}"
    );
    assert_eq!(
        dead.engine().total_simulations(),
        0,
        "a black hole swallows requests before the engine"
    );
    assert_eq!(
        frontier.engine().total_simulations() + healthy.engine().total_simulations(),
        4,
        "zero duplicate simulations across the topology: {status:?}"
    );

    // The dead link drained: the frontier reports it unhealthy.
    let ping = client.ping().expect("ping frontier");
    let dead_status = ping
        .downstreams
        .iter()
        .find(|ds| ds.address == dead_addr.to_string())
        .expect("dead link is in the topology");
    assert!(!dead_status.healthy, "the dead link must be draining");
}

/// A downstream link that dies mid-stream (after the status frame and
/// the first cell of its two-cell batch) is recovered by the link's own
/// retry: the second attempt is served from the downstream's cache, so
/// nothing is lost and nothing simulates twice.
#[test]
fn downstream_killed_mid_stream_loses_and_duplicates_nothing() {
    let flaky = spawn_server(default_config());
    let flaky_addr = relay(flaky.addr(), Fault::DropAfter(2), 1);
    let frontier = spawn_server(frontier_config(vec![flaky_addr.to_string()]));

    let client = fast_client(frontier.addr().to_string(), 1, Duration::from_secs(60));
    let sc = smoke();
    let mut sweep = client.submit_scenario(&sc, Some(2)).expect("submit");
    let status = sweep.status();
    let cells = sweep.fetch_reports().expect("fetch");

    assert_eq!(cells.len(), 4);
    assert!(cells.iter().all(|c| c.report().is_some()));
    assert_eq!(status.errors, 0, "{status:?}");
    assert_eq!(
        status.simulated + status.cache_hits + status.joined + status.errors,
        status.unique,
        "accounting balances through the drop: {status:?}"
    );
    assert_eq!(
        frontier.engine().total_simulations() + flaky.engine().total_simulations(),
        4,
        "the dropped batch re-cost nothing: {status:?}"
    );

    // The recovered bytes are the simulated bytes: byte-identical to
    // the goldens, as if no connection had ever died.
    assert_match_goldens(&sc, cells.iter().filter_map(CellReply::report));
}

/// A forwarded cell that fails downstream comes back as that cell's
/// `cell_error`, and the frontier releases its claim on it: nothing stays
/// in flight, the failure is not cached, and a resubmission forwards the
/// cell again instead of waiting on a claim nobody will resolve.
#[test]
fn a_downstream_cell_error_releases_the_forwarded_claim() {
    let downstream = spawn_server(default_config());
    let frontier = spawn_server(frontier_config(vec![downstream.addr().to_string()]));
    let engine = frontier.engine();
    let sc = smoke();
    let twf = PlanCell {
        label: sc.configs[0].label.clone(),
        machine: sc.configs[0].machine,
        workload: "twf".to_string(),
    };
    // Both backends are idle, so placement keeps the first cell local and
    // forwards the second.
    let plan = vec![twf, capped_twf(1_000)];

    let client = fast_client(frontier.addr().to_string(), 1, Duration::from_secs(60));
    let mut sweep = client
        .submit_plan(sc.insts, plan.clone(), None)
        .expect("submit");
    let status = sweep.status();
    let cells = sweep.fetch_reports().expect("fetch");
    let failed = cells[1]
        .failure()
        .expect("the capped cell fails downstream");
    assert_eq!(failed.code, "panic");
    assert!(
        failed.message.contains("max_cycles"),
        "{:?}",
        failed.message
    );
    assert_match_goldens(&sc, cells[0].report());
    assert_eq!(status.errors, 1, "{status:?}");
    assert_eq!(
        status.simulated + status.cache_hits + status.joined + status.errors,
        status.unique,
        "accounting balances with a failed forward: {status:?}"
    );
    let link = &engine.federation().links()[0];
    assert_eq!(link.forwarded(), 1, "the capped cell went downstream");
    assert_eq!(
        engine.in_flight_cells(),
        0,
        "the forwarded claim is released"
    );
    assert_eq!(engine.cache_entries(), 1, "only twf is cached");

    // A leaked claim would leave the resubmission waiting on the capped
    // cell; the short deadline turns that into a failure, not a hang.
    let client = fast_client(frontier.addr().to_string(), 1, Duration::from_secs(5));
    let mut again = client.submit_plan(sc.insts, plan, None).expect("resubmit");
    let status = again.status();
    let cells = again.fetch_reports().expect("fetch again");
    assert_eq!(cells[1].failure().expect("fails again").code, "panic");
    assert!(cells[0].report().is_some());
    assert_eq!(
        status.cache_hits, 1,
        "twf comes from the frontier cache: {status:?}"
    );
    assert_eq!(status.errors, 1, "{status:?}");
    assert_eq!(engine.in_flight_cells(), 0);
}
