//! Loopback integration tests for the sweep service: a real
//! `contopt-server` on an ephemeral port, driven by the real client SDK.
//!
//! These pin the service's core guarantees:
//! * remote reports byte-match the checked-in goldens (the golden
//!   harness applies unchanged to remote results),
//! * a repeated submission is served entirely from the fingerprint
//!   cache — zero additional simulations,
//! * concurrent overlapping sweeps dedupe by fingerprint: one
//!   simulation per unique cell, server-wide,
//! * `ping` answers with a live `server_status` snapshot,
//! * a machine too large to allocate is a typed `bad-request`, and the
//!   server keeps serving after it.
//!
//! Fault-path guarantees (injected panics, drops, truncation, black
//! holes) live in `tests/faults.rs` behind `--features fault-injection`.

// Test scaffolding may panic freely; the crate-level deny on
// unwrap/expect protects the service itself, not its test harness
// (free helper functions here sit outside clippy's in-test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_client::protocol::{CellReply, CellResult, PlanCell};
use contopt_client::Client;
use contopt_experiments::{check_cell, TolerancePolicy};
use contopt_server::{Server, ServerConfig, SweepCell, SweepEngine};
use contopt_sim::{ProgramSource, Scenario};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn smoke() -> Scenario {
    Scenario::load(repo_root().join("scenarios/smoke.json")).expect("checked-in smoke scenario")
}

fn spawn_server(jobs: usize) -> contopt_server::ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            jobs,
            cache_capacity: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
    .spawn()
    .expect("spawn server")
}

/// Unwraps a cell stream in which every cell is expected to succeed.
fn reports(cells: Vec<CellReply>) -> Vec<CellResult> {
    cells
        .into_iter()
        .map(|c| match c {
            CellReply::Report(r) => r,
            CellReply::Failed(e) => panic!("unexpected cell error: {e}"),
        })
        .collect()
}

/// The tier-wide accounting invariant: every unique cell was simulated
/// (here or downstream), served from a cache, joined, or failed —
/// nothing double-counted, nothing dropped. Holds at every federation
/// tier; `forwarded` tracks placement, not an outcome class.
fn assert_accounted(status: &contopt_client::protocol::SweepStatus) {
    assert_eq!(
        status.simulated + status.cache_hits + status.joined + status.errors,
        status.unique,
        "sweep accounting must be exhaustive: {status:?}"
    );
}

#[test]
fn remote_reports_byte_match_checked_in_goldens() {
    let server = spawn_server(2);
    let client = Client::new(server.addr().to_string());
    let sc = smoke();

    let mut sweep = client.submit_scenario(&sc, Some(2)).expect("submit");
    let status = sweep.status();
    assert_eq!(status.results, 4, "smoke = 2 configs x 2 workloads");
    assert_eq!(status.unique, 4);
    assert_eq!(status.errors, 0);
    assert_eq!(status.forwarded, 0, "standalone server forwards nothing");
    assert_accounted(&status);
    let cells = reports(sweep.fetch_reports().expect("fetch"));
    assert_eq!(cells.len(), 4);

    // The exact harness a local `--check` runs, against the checked-in
    // goldens: any byte of difference in a remote report is a drift.
    let goldens = repo_root().join("goldens");
    let policy = TolerancePolicy::exact();
    for cell in &cells {
        let drift = check_cell(
            &goldens,
            &sc.name,
            &cell.label,
            &cell.workload,
            &cell.report,
            &policy,
        )
        .expect("golden readable");
        assert!(
            drift.is_none(),
            "remote report for {}/{} drifted from the checked-in golden: {:?}",
            cell.label,
            cell.workload,
            drift
        );
    }
}

#[test]
fn resubmission_is_served_entirely_from_cache() {
    let server = spawn_server(2);
    let engine = server.engine();
    let client = Client::new(server.addr().to_string());
    let sc = smoke();

    let mut first = client.submit_scenario(&sc, None).expect("first submit");
    let s1 = first.status();
    assert_eq!(s1.simulated, s1.unique, "cold cache: everything simulates");
    assert_eq!(s1.cache_hits, 0);
    assert_accounted(&s1);
    let baseline_sims = engine.total_simulations();
    assert_eq!(baseline_sims, s1.unique);
    let first_reports = reports(first.fetch_reports().expect("fetch"));

    let mut second = client.submit_scenario(&sc, None).expect("second submit");
    let s2 = second.status();
    assert_eq!(s2.simulated, 0, "warm cache: nothing simulates");
    assert_eq!(s2.cache_hits, s2.unique, "every unique cell is a cache hit");
    assert_accounted(&s2);
    assert_eq!(
        engine.total_simulations(),
        baseline_sims,
        "the repeated submission ran zero additional simulations"
    );
    let second_reports = reports(second.fetch_reports().expect("fetch"));

    // Cached bytes are the simulated bytes.
    assert_eq!(first_reports.len(), second_reports.len());
    for (a, b) in first_reports.iter().zip(&second_reports) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.report, b.report);
    }
}

#[test]
fn concurrent_overlapping_sweeps_dedupe_by_fingerprint() {
    let server = spawn_server(4);
    let engine = server.engine();
    let addr = server.addr().to_string();
    let sc = smoke();

    // Sweep A: the full smoke scenario (4 unique cells). Sweep B: a raw
    // plan of the same two machines on "twf" only — 2 cells, both
    // contained in A. Unique across both sweeps: still 4.
    let plan_b: Vec<PlanCell> = sc
        .configs
        .iter()
        .map(|cfg| PlanCell {
            label: cfg.label.clone(),
            machine: cfg.machine,
            workload: "twf".to_string(),
        })
        .collect();

    let (sa, sb) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut sweep = Client::new(addr.clone())
                .submit_scenario(&sc, Some(4))
                .expect("submit A");
            let status = sweep.status();
            (status, reports(sweep.fetch_reports().expect("fetch A")))
        });
        let b = s.spawn(|| {
            let mut sweep = Client::new(addr.clone())
                .submit_plan(sc.insts, plan_b.clone(), Some(4))
                .expect("submit B");
            let status = sweep.status();
            (status, reports(sweep.fetch_reports().expect("fetch B")))
        });
        (a.join().expect("A"), b.join().expect("B"))
    });
    let (status_a, reports_a) = sa;
    let (status_b, reports_b) = sb;

    assert_eq!(status_a.unique, 4);
    assert_eq!(status_b.unique, 2);
    // Per-sweep accounting is exhaustive: every unique cell was
    // simulated here, found in cache, joined from the other sweep, or
    // (never, in this test) failed.
    for s in [&status_a, &status_b] {
        assert_accounted(s);
        assert_eq!(s.errors, 0);
    }
    // The dedup guarantee: 4 unique fingerprints across both sweeps,
    // exactly 4 simulations server-wide — overlap cost nothing.
    assert_eq!(
        engine.total_simulations(),
        4,
        "overlapping cells must not simulate twice (A: {status_a:?}, B: {status_b:?})"
    );
    assert_eq!(status_a.simulated + status_b.simulated, 4);

    // Overlapping cells returned identical bytes to both clients.
    for rb in &reports_b {
        let ra = reports_a
            .iter()
            .find(|r| r.fingerprint == rb.fingerprint)
            .expect("B's cells are a subset of A's");
        assert_eq!(ra.report, rb.report);
    }
}

#[test]
fn malformed_and_unknown_submissions_fail_typed() {
    let server = spawn_server(1);
    let client = Client::new(server.addr().to_string());

    // Unknown workload in a raw plan: rejected before any simulation.
    let result = client.submit_plan(
        1000,
        vec![PlanCell {
            label: "x".into(),
            machine: contopt_sim::MachineConfig::default_paper(),
            workload: "no-such-workload".into(),
        }],
        None,
    );
    let Err(err) = result else {
        panic!("unknown workload must be rejected");
    };
    let msg = err.to_string();
    assert!(msg.contains("bad-request"), "got: {msg}");
    assert_eq!(server.engine().total_simulations(), 0);
}

#[test]
fn oversized_machines_are_rejected_and_the_server_keeps_serving() {
    let server = spawn_server(2);
    let client = Client::new(server.addr().to_string());

    // A 2^40-entry ROB would need a window of 35 TB: a typed rejection
    // before any allocation, not an aborted process.
    let mut machine = contopt_sim::MachineConfig::default_paper();
    machine.rob_entries = 1 << 40;
    let result = client.submit_plan(
        1000,
        vec![PlanCell {
            label: "huge".into(),
            machine,
            workload: "twf".into(),
        }],
        None,
    );
    let Err(err) = result else {
        panic!("an oversized machine must be rejected");
    };
    let msg = err.to_string();
    assert!(msg.contains("bad-request"), "got: {msg}");
    assert!(msg.contains("window"), "got: {msg}");
    assert_eq!(server.engine().total_simulations(), 0);

    // The same server still answers and sweeps normally.
    client.ping().expect("ping after the rejection");
    let mut sweep = client.submit_scenario(&smoke(), Some(2)).expect("submit");
    let status = sweep.status();
    assert_eq!(status.errors, 0);
    assert_accounted(&status);
    assert_eq!(reports(sweep.fetch_reports().expect("fetch")).len(), 4);
}

#[test]
fn ping_answers_with_a_live_status_snapshot() {
    let server = spawn_server(3);
    let client = Client::new(server.addr().to_string());

    let status = client.ping().expect("ping");
    assert_eq!(
        status.protocol_version,
        contopt_client::protocol::PROTOCOL_VERSION
    );
    assert_eq!(status.jobs, 3);
    assert_eq!(status.cache_capacity, 1024);
    assert_eq!(status.cache_entries, 0);
    assert_eq!(status.total_simulations, 0);
    assert!(
        status.downstreams.is_empty(),
        "a standalone server reports no downstream topology"
    );

    // After a sweep the snapshot moves: the health check reflects the
    // live engine, not a static banner.
    let sc = smoke();
    let mut sweep = client.submit_scenario(&sc, None).expect("submit");
    let _ = reports(sweep.fetch_reports().expect("fetch"));
    let after = client.ping().expect("ping again");
    assert_eq!(after.total_simulations, 4);
    assert_eq!(after.cache_entries, 4);
}

#[test]
fn engine_cache_is_bounded_lru() {
    // Engine-level (no sockets): capacity 2, three distinct cells.
    let engine = SweepEngine::new(ServerConfig {
        jobs: 1,
        cache_capacity: 2,
        ..ServerConfig::default()
    });
    let base = contopt_sim::MachineConfig::default_paper();
    let cell = |workload: &str| SweepCell {
        label: "c".to_string(),
        machine: base,
        workload: workload.to_string(),
        program: None,
    };

    for w in ["twf", "untst", "mcf"] {
        engine.sweep(1000, &[cell(w)], None).expect("sweep");
    }
    assert_eq!(engine.total_simulations(), 3);
    assert_eq!(engine.cache_entries(), 2, "capacity bounds the cache");

    // "twf" (the least recently used) was evicted: rerunning it
    // simulates again, while "mcf" (most recent) is still cached.
    let r = engine.sweep(1000, &[cell("mcf")], None).expect("sweep");
    assert_eq!(r.status.cache_hits, 1);
    assert_eq!(engine.total_simulations(), 3);
    let r = engine.sweep(1000, &[cell("twf")], None).expect("sweep");
    assert_eq!(r.status.simulated, 1);
    assert_eq!(engine.total_simulations(), 4);
}

#[test]
fn programs_bearing_scenarios_sweep_and_cache_over_the_wire() {
    // PR 8 rejected any scenario shipping a "programs" block; the cell
    // fingerprint now covers the assembled program bytes, so
    // text-authored kernels submit like any Table 1 workload.
    let server = spawn_server(2);
    let engine = server.engine();
    let client = Client::new(server.addr().to_string());
    let sc = Scenario::load(repo_root().join("scenarios/asm_smoke.json"))
        .expect("checked-in asm_smoke scenario");
    assert!(
        !sc.programs.is_empty(),
        "asm_smoke must exercise the programs path"
    );

    let mut sweep = client.submit_scenario(&sc, None).expect("submit");
    let status = sweep.status();
    assert_eq!(status.errors, 0);
    assert_eq!(status.simulated, status.unique, "cold cache");
    assert_accounted(&status);
    let cells = reports(sweep.fetch_reports().expect("fetch"));

    // The remote reports byte-match the locally recorded goldens.
    let goldens = repo_root().join("goldens");
    let policy = TolerancePolicy::exact();
    for cell in &cells {
        let drift = check_cell(
            &goldens,
            &sc.name,
            &cell.label,
            &cell.workload,
            &cell.report,
            &policy,
        )
        .expect("golden readable");
        assert!(
            drift.is_none(),
            "remote report for {}/{} drifted from the checked-in golden: {:?}",
            cell.label,
            cell.workload,
            drift
        );
    }

    // Resubmitting re-hits the fingerprint cache: the program bytes key
    // the cell, so an identical kernel costs zero extra simulations.
    let baseline = engine.total_simulations();
    let mut again = client.submit_scenario(&sc, None).expect("resubmit");
    let s2 = again.status();
    assert_eq!(s2.simulated, 0, "warm cache: nothing simulates");
    assert_eq!(s2.cache_hits, s2.unique);
    assert_accounted(&s2);
    assert_eq!(engine.total_simulations(), baseline);
    let again_cells = reports(again.fetch_reports().expect("fetch again"));
    for (a, b) in cells.iter().zip(&again_cells) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.report, b.report);
    }
}

#[test]
fn file_programs_ship_inline_and_match_the_goldens() {
    // asm_smoke with its program moved to a `.s` file beside it: the
    // client inlines the assembled program for the wire, so the cells
    // key, simulate and check exactly as the inline original's do.
    let dir = std::env::temp_dir().join(format!("contopt-fileprog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut sc = Scenario::load(repo_root().join("scenarios/asm_smoke.json")).unwrap();
    let ProgramSource::Inline(text) = &sc.programs[0].source else {
        panic!("asm_smoke ships its program inline");
    };
    std::fs::write(dir.join("asmk.s"), text).unwrap();
    sc.programs[0].source = ProgramSource::File("asmk.s".into());
    std::fs::write(dir.join("asm_smoke.json"), sc.canonical_json()).unwrap();
    let sc = Scenario::load(dir.join("asm_smoke.json")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let server = spawn_server(2);
    let client = Client::new(server.addr().to_string());
    let mut sweep = client.submit_scenario(&sc, None).expect("submit");
    assert_eq!(sweep.status().errors, 0);
    let cells = reports(sweep.fetch_reports().expect("fetch"));
    let fingerprints: Vec<&str> = cells.iter().map(|c| c.fingerprint.as_str()).collect();
    assert_eq!(fingerprints, ["86dd975387b453a4", "d75c06b39f4e9cfb"]);
    let goldens = repo_root().join("goldens");
    for cell in &cells {
        let drift = check_cell(
            &goldens,
            &sc.name,
            &cell.label,
            &cell.workload,
            &cell.report,
            &TolerancePolicy::exact(),
        )
        .expect("golden readable");
        assert!(
            drift.is_none(),
            "{}/{}: {drift:?}",
            cell.label,
            cell.workload
        );
    }
}
