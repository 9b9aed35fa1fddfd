//! Federated sweep execution: a frontier `contopt-server` placing cells
//! across real downstream servers over the v1 protocol.
//!
//! These pin the federation guarantees:
//! * a two-tier sweep is byte-identical to a standalone one (the golden
//!   harness applies unchanged through a frontier),
//! * no cell simulates twice anywhere in the topology, and the
//!   accounting invariant holds at every tier,
//! * a frontier cache hit never forwards; a downstream cache hit counts
//!   as a frontier `cache_hits`,
//! * `ping` through the frontier reports the downstream topology.
//!
//! Link-failure behaviour (blackholed downstreams, mid-stream kills)
//! lives in `tests/faults.rs`.

// Test scaffolding may panic freely; the crate-level deny on
// unwrap/expect protects the service itself, not its test harness.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_client::protocol::{CellReply, CellResult, SweepStatus};
use contopt_client::Client;
use contopt_experiments::{check_goldens, golden_path, Golden, TolerancePolicy};
use contopt_server::federation::FederationConfig;
use contopt_server::{Server, ServerConfig, ServerHandle};
use contopt_sim::Scenario;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn smoke() -> Scenario {
    Scenario::load(repo_root().join("scenarios/smoke.json")).expect("checked-in smoke scenario")
}

fn spawn_standalone(jobs: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            jobs,
            cache_capacity: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind downstream")
    .spawn()
    .expect("spawn downstream")
}

fn spawn_frontier(jobs: usize, downstreams: Vec<String>) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            jobs,
            cache_capacity: 1024,
            federation: FederationConfig {
                downstreams,
                ..FederationConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind frontier")
    .spawn()
    .expect("spawn frontier")
}

fn reports(cells: Vec<CellReply>) -> Vec<CellResult> {
    cells
        .into_iter()
        .map(|c| match c {
            CellReply::Report(r) => r,
            CellReply::Failed(e) => panic!("unexpected cell error: {e}"),
        })
        .collect()
}

fn assert_accounted(status: &SweepStatus) {
    assert_eq!(
        status.simulated + status.cache_hits + status.joined + status.errors,
        status.unique,
        "tier-wide accounting must be exhaustive: {status:?}"
    );
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

#[test]
fn two_tier_sweeps_are_byte_identical_to_standalone() {
    let ds1 = spawn_standalone(2);
    let ds2 = spawn_standalone(2);
    let frontier = spawn_frontier(2, vec![ds1.addr().to_string(), ds2.addr().to_string()]);
    let client = Client::new(frontier.addr().to_string());
    let sc = smoke();

    let mut sweep = client.submit_scenario(&sc, Some(2)).expect("submit");
    let status = sweep.status();
    assert_eq!(status.results, 4);
    assert_eq!(status.unique, 4);
    assert_eq!(status.errors, 0);
    assert_accounted(&status);
    assert!(
        status.forwarded > 0,
        "an idle two-downstream frontier must place cells remotely: {status:?}"
    );
    let cells = reports(sweep.fetch_reports().expect("fetch"));
    assert_eq!(cells.len(), 4);

    // The dedup guarantee holds topology-wide: 4 unique cells, exactly
    // 4 simulations across all three engines.
    let sims = frontier.engine().total_simulations()
        + ds1.engine().total_simulations()
        + ds2.engine().total_simulations();
    assert_eq!(sims, 4, "no cell simulates twice anywhere: {status:?}");

    // The exact harness a local `--check` runs: any byte of difference
    // between a federated report and the checked-in golden is a drift.
    assert_match_goldens(&sc, &cells);

    // The frontier's `ping` reports the downstream topology, and the
    // lifetime forwarded gauges account for every forwarded cell.
    let ping = client.ping().expect("ping frontier");
    assert_eq!(ping.downstreams.len(), 2);
    for ds in &ping.downstreams {
        assert!(ds.healthy, "healthy downstream reported unhealthy: {ds:?}");
        assert_eq!(ds.outstanding, 0, "nothing in flight after the sweep");
    }
    let forwarded: u64 = ping.downstreams.iter().map(|ds| ds.forwarded).sum();
    assert_eq!(forwarded, status.forwarded);
}

#[test]
fn resubmission_through_a_frontier_never_forwards() {
    let ds = spawn_standalone(2);
    let frontier = spawn_frontier(2, vec![ds.addr().to_string()]);
    let client = Client::new(frontier.addr().to_string());
    let sc = smoke();

    let mut first = client.submit_scenario(&sc, None).expect("first submit");
    let s1 = first.status();
    assert_accounted(&s1);
    assert_eq!(s1.errors, 0);
    let first_reports = reports(first.fetch_reports().expect("fetch"));
    let frontier_sims = frontier.engine().total_simulations();
    let ds_sims = ds.engine().total_simulations();
    assert_eq!(frontier_sims + ds_sims, s1.unique, "cold two-tier sweep");

    // Forwarded results were published into the frontier's own cache
    // (cache coherence across tiers), so the resubmission is answered
    // entirely at the frontier: nothing forwards, nothing simulates.
    let mut second = client.submit_scenario(&sc, None).expect("second submit");
    let s2 = second.status();
    assert_eq!(s2.cache_hits, s2.unique, "warm frontier answers alone");
    assert_eq!(s2.simulated, 0);
    assert_eq!(s2.forwarded, 0, "a frontier cache hit never forwards");
    assert_accounted(&s2);
    assert_eq!(frontier.engine().total_simulations(), frontier_sims);
    assert_eq!(ds.engine().total_simulations(), ds_sims);

    let second_reports = reports(second.fetch_reports().expect("fetch"));
    for (a, b) in first_reports.iter().zip(&second_reports) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.report, b.report);
    }
}

#[test]
fn downstream_cache_hits_count_as_frontier_cache_hits() {
    let ds1 = spawn_standalone(2);
    let ds2 = spawn_standalone(2);
    let sc = smoke();

    // Warm *both* downstreams directly with the full sweep, so whatever
    // placement the frontier picks, every forwarded cell is a
    // downstream cache hit.
    for ds in [&ds1, &ds2] {
        let mut sweep = Client::new(ds.addr().to_string())
            .submit_scenario(&sc, None)
            .expect("warm downstream");
        let _ = reports(sweep.fetch_reports().expect("fetch warmup"));
    }
    let ds1_sims = ds1.engine().total_simulations();
    let ds2_sims = ds2.engine().total_simulations();

    let frontier = spawn_frontier(2, vec![ds1.addr().to_string(), ds2.addr().to_string()]);
    let mut sweep = Client::new(frontier.addr().to_string())
        .submit_scenario(&sc, None)
        .expect("submit via cold frontier");
    let status = sweep.status();
    let _ = reports(sweep.fetch_reports().expect("fetch"));

    assert_accounted(&status);
    assert_eq!(status.errors, 0);
    // Every forwarded cell hit a downstream cache — the downstream's
    // work folds into the frontier's `cache_hits`, so the invariant
    // composes across tiers; only locally placed cells simulated.
    assert_eq!(status.cache_hits, status.forwarded, "{status:?}");
    assert_eq!(
        status.simulated,
        status.unique - status.forwarded,
        "{status:?}"
    );
    assert_eq!(ds1.engine().total_simulations(), ds1_sims);
    assert_eq!(ds2.engine().total_simulations(), ds2_sims);
}

#[test]
fn programs_forward_with_their_cells() {
    // A text-authored kernel submitted through a frontier ships its
    // assembled program inline to the downstream tier; with local
    // workers starved of cells (jobs=1, single cell placed by load),
    // the report still byte-matches the checked-in golden.
    let ds = spawn_standalone(2);
    let frontier = spawn_frontier(1, vec![ds.addr().to_string()]);
    let client = Client::new(frontier.addr().to_string());
    let sc = Scenario::load(repo_root().join("scenarios/asm_smoke.json"))
        .expect("checked-in asm_smoke scenario");
    assert!(!sc.programs.is_empty());

    let mut sweep = client.submit_scenario(&sc, None).expect("submit");
    let status = sweep.status();
    assert_eq!(status.errors, 0);
    assert_accounted(&status);
    // Placement over loads [0, 0] sends one of the two cells down.
    assert_eq!(status.forwarded, 1);
    assert_eq!(ds.engine().total_simulations(), 1);
    let cells = reports(sweep.fetch_reports().expect("fetch"));

    assert_match_goldens(&sc, &cells);

    // Resubmission: the program-keyed fingerprint re-hits the frontier
    // cache whether the cell ran locally or downstream.
    let mut again = client.submit_scenario(&sc, None).expect("resubmit");
    let s2 = again.status();
    assert_eq!(s2.cache_hits, s2.unique);
    assert_eq!(s2.forwarded, 0);
    assert_accounted(&s2);
    let _ = reports(again.fetch_reports().expect("fetch again"));
}
