//! Tests of the `contopt_sim` facade: builder validation, pass subsets of
//! an `OptimizerConfig`, and the paper's ablation scenarios expressed as
//! pass subsets.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_sim::bpred::PredictorConfigError;
use contopt_sim::isa::{r, Asm, Program};
use contopt_sim::mem::{CacheConfig, GeometryError};
use contopt_sim::passes::PassId;
use contopt_sim::{
    machine_from_json, Error, JsonValue, MachineConfig, OptimizerConfig, Scenario, ScenarioError,
    SimSession, MAX_MBC_ENTRIES, MAX_PREG_COUNT, MAX_WINDOW_SLOTS,
};
use std::process::Command;

fn tiny_program() -> Program {
    let mut a = Asm::new();
    let buf = a.data_quads(&[7, 7, 7, 7]);
    a.li(r(1), buf as i64);
    a.li(r(2), 200);
    a.li(r(3), 0);
    a.label("loop");
    a.ldq(r(4), r(1), 0);
    a.addq(r(3), r(4), r(3));
    a.subq(r(2), 1, r(2));
    a.bne(r(2), "loop");
    a.halt();
    a.finish().unwrap()
}

#[test]
fn session_reuse_yields_byte_identical_reports() {
    // Guards the shared-`Arc<Program>` plumbing: repeated runs of one
    // session must not observe any hidden mutable state.
    let s = SimSession::builder()
        .workload("twf")
        .insts(30_000)
        .build()
        .unwrap();
    let a = s.run().to_json().to_string();
    let b = s.run().to_json().to_string();
    assert_eq!(a, b, "second run diverged from the first");
    // Cloning the session shares the program image rather than copying it.
    let c = s.clone();
    assert!(std::ptr::eq(s.program(), c.program()));
}

// ---- validation -----------------------------------------------------------

#[test]
fn rejects_zero_width_rename_bundles() {
    let mut cfg = MachineConfig::default_paper();
    cfg.fetch_width = 0;
    let err = SimSession::builder()
        .machine(cfg)
        .program(tiny_program())
        .build()
        .unwrap_err();
    assert_eq!(err, Error::ZeroRenameWidth);
}

#[test]
fn rejects_feedback_delay_beyond_the_rob() {
    let cfg = MachineConfig::default_paper().with_optimizer(OptimizerConfig {
        feedback_delay: 161, // ROB is 160
        ..OptimizerConfig::default()
    });
    let err = SimSession::builder()
        .machine(cfg)
        .program(tiny_program())
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        Error::FeedbackDelayExceedsRob {
            delay: 161,
            rob: 160
        }
    );
    // A delay equal to the ROB depth is still (barely) meaningful.
    let ok = MachineConfig::default_paper().with_optimizer(OptimizerConfig {
        feedback_delay: 160,
        ..OptimizerConfig::default()
    });
    assert!(SimSession::builder()
        .machine(ok)
        .program(tiny_program())
        .build()
        .is_ok());
}

#[test]
fn rejects_other_degenerate_machines() {
    let mut zero_retire = MachineConfig::default_paper();
    zero_retire.retire_width = 0;
    let mut zero_rob = MachineConfig::default_paper();
    zero_rob.rob_entries = 0;
    let mut tiny_pregs = MachineConfig::default_paper();
    tiny_pregs.preg_count = 8;
    for (cfg, want) in [
        (zero_retire, Error::ZeroRetireWidth),
        (zero_rob, Error::ZeroRobEntries),
        (
            tiny_pregs,
            Error::PregFileTooSmall {
                need: contopt_sim::isa::NUM_ARCH_REGS + 1,
                have: 8,
            },
        ),
    ] {
        let err = SimSession::builder()
            .machine(cfg)
            .program(tiny_program())
            .build()
            .unwrap_err();
        assert_eq!(err, want);
    }
    let err = SimSession::builder()
        .program(tiny_program())
        .insts(0)
        .build()
        .unwrap_err();
    assert_eq!(err, Error::ZeroInstructionBudget);
    // RLE/SF with a zero-entry MBC.
    let cfg = MachineConfig::default_paper().with_optimizer(OptimizerConfig {
        mbc_entries: 0,
        ..OptimizerConfig::default()
    });
    let err = SimSession::builder()
        .machine(cfg)
        .program(tiny_program())
        .build()
        .unwrap_err();
    assert_eq!(err, Error::ZeroMbcEntries);
}

/// A one-config scenario file whose machine block is `machine_json`.
fn scenario_text(machine_json: &str) -> String {
    format!(
        r#"{{"version": 1, "name": "bad", "insts": 1000, "configs": [
            {{"label": "x", "workloads": ["twf"], "machine": {machine_json}}}
        ]}}"#
    )
}

/// Asserts that the builder and `Scenario::validate` reject `cfg` with
/// `want`, and so does `Scenario::parse` when a scenario file can express
/// the machine (as `machine_json`).
fn assert_rejected(cfg: MachineConfig, want: Error, machine_json: Option<&str>) {
    let err = SimSession::builder()
        .machine(cfg)
        .program(tiny_program())
        .build()
        .unwrap_err();
    assert_eq!(err, want);
    let sc = Scenario {
        name: "bad".into(),
        insts: 1_000,
        ablation: None,
        programs: vec![],
        configs: vec![contopt_sim::ScenarioConfig {
            label: "x".into(),
            machine: cfg,
            workloads: vec!["twf".into()],
        }],
    };
    let want = ScenarioError::Machine {
        label: "x".into(),
        err: want,
    };
    assert_eq!(sc.validate(), Err(want.clone()));
    if let Some(machine) = machine_json {
        assert_eq!(
            Scenario::parse(&scenario_text(machine)),
            Err(want),
            "{machine}"
        );
    }
}

/// Machines that can only deadlock, or whose latencies would outlast the
/// deadlock detector or overflow the cycle arithmetic, are typed errors
/// from the builder and from scenario loading, never a mid-sweep panic.
#[test]
fn rejects_machines_that_can_only_deadlock_or_overflow() {
    let window = contopt_sim::DEADLOCK_WINDOW;
    assert_eq!(window, 1_000_000);
    // Every delay and latency of the default machine, summed.
    let default_total = 14 + 2 + 2 + 1 + 7 + 4 + 1 + 2 + 10 + 100;
    let mut cases = Vec::new();
    let mut scalar = |field: &'static str, value: u64, want: Error| {
        let mut cfg = MachineConfig::default_paper();
        cfg.set_scalar_field(field, value).unwrap();
        cases.push((cfg, want, Some(format!(r#"{{"{field}": {value}}}"#))));
    };
    scalar("scheduler_entries", 0, Error::ZeroSchedulerEntries);
    for field in ["simple_int_fus", "complex_int_fus", "fp_fus", "agen_fus"] {
        scalar(field, 0, Error::ZeroFunctionalUnits(field));
    }
    for complex_latency in [2_000_000, u64::MAX] {
        scalar(
            "complex_latency",
            complex_latency,
            Error::LatencyExceedsDeadlockWindow {
                total: (default_total - 7u64).saturating_add(complex_latency),
                window,
            },
        );
    }
    // Scenario files pin the cache hierarchy and the predictor, so the
    // cases below reach only the builder and `Scenario::validate`.
    let mut no_ports = MachineConfig::default_paper();
    no_ports.hierarchy.l1d_ports = 0;
    cases.push((no_ports, Error::ZeroL1dPorts, None));
    // Cache geometries the set/tag arithmetic cannot index.
    let mut geometry = |cache: &'static str, edit: fn(&mut CacheConfig), err: GeometryError| {
        let mut cfg = MachineConfig::default_paper();
        let h = &mut cfg.hierarchy;
        edit(match cache {
            "l1i" => &mut h.l1i,
            "l1d" => &mut h.l1d,
            _ => &mut h.l2,
        });
        cases.push((cfg, Error::CacheGeometry { cache, err }, None));
    };
    geometry("l1d", |c| c.ways = 0, GeometryError::ZeroWays);
    geometry(
        "l1d",
        |c| c.line_bytes = 48,
        GeometryError::LineNotPowerOfTwo(48),
    );
    geometry(
        "l1i",
        |c| c.line_bytes = 0,
        GeometryError::LineNotPowerOfTwo(0),
    );
    // 64 KB plus one line is not a whole number of 4 x 64 B sets.
    geometry("l1i", |c| c.size_bytes += 64, GeometryError::PartialSet);
    geometry("l1i", |c| c.ways = u64::MAX, GeometryError::PartialSet);
    // 3,072 sets of 2 x 128 B.
    geometry(
        "l2",
        |c| c.size_bytes = 3072 * 2 * 128,
        GeometryError::SetsNotPowerOfTwo(3072),
    );
    geometry(
        "l2",
        |c| c.size_bytes = 0,
        GeometryError::SetsNotPowerOfTwo(0),
    );
    let mut btb = MachineConfig::default_paper();
    btb.predictor.btb_entries = 3000;
    cases.push((
        btb,
        Error::Predictor(PredictorConfigError::BtbNotPowerOfTwo(3000)),
        None,
    ));
    let mut history = MachineConfig::default_paper();
    history.predictor.history_bits = 30;
    cases.push((
        history,
        Error::Predictor(PredictorConfigError::HistoryTooLong(30)),
        None,
    ));
    let mut no_ras = MachineConfig::default_paper();
    no_ras.predictor.ras_entries = 0;
    cases.push((
        no_ras,
        Error::Predictor(PredictorConfigError::ZeroRasEntries),
        None,
    ));
    let mut slow_memory = MachineConfig::default_paper();
    slow_memory.hierarchy.memory_latency = window - (default_total - 100);
    cases.push((
        slow_memory,
        Error::LatencyExceedsDeadlockWindow {
            total: window,
            window,
        },
        None,
    ));

    for (cfg, want, machine_json) in cases {
        assert_rejected(cfg, want, machine_json.as_deref());
    }

    // One cycle under the window is still a machine that can run.
    let mut ok = MachineConfig::default_paper();
    ok.hierarchy.memory_latency = window - (default_total - 100) - 1;
    assert!(SimSession::builder()
        .machine(ok)
        .program(tiny_program())
        .build()
        .is_ok());

    // No suite kernel calls a subroutine; a program that does pushes its
    // return address, which a stack without entries cannot hold. One
    // entry is enough to run it.
    let calls = || {
        contopt_sim::isa::asm_text::parse(
            "        li   r1, 3
        li   r2, 1
loop:   bsr  ra, double
        subq r1, 1, r1
        bne  r1, loop
        halt
double: addq r2, r2, r2
        ret
",
        )
        .unwrap()
    };
    let build = |cfg| SimSession::builder().machine(cfg).program(calls()).build();
    assert_eq!(
        build(no_ras).unwrap_err(),
        Error::Predictor(PredictorConfigError::ZeroRasEntries)
    );
    no_ras.predictor.ras_entries = 1;
    assert!(build(no_ras).unwrap().run().pipeline.retired > 0);
}

/// A machine whose window, register file or Memory Bypass Cache would
/// need more memory than one simulation should allocate is a typed error
/// from the builder, from scenario parsing and from
/// `contopt-experiments --validate`, before anything is allocated.
#[test]
fn rejects_machines_too_large_to_allocate() {
    let huge = 1usize << 40;
    let window = Error::WindowTooLarge {
        max: MAX_WINDOW_SLOTS,
    };
    let cases = [
        (r#"{"rob_entries": 1099511627776}"#, window.clone()),
        (r#"{"fetch_width": 1099511627776}"#, window.clone()),
        (
            r#"{"preg_count": 1099511627776}"#,
            Error::PregFileTooLarge {
                max: MAX_PREG_COUNT,
                have: huge,
            },
        ),
        (
            r#"{"optimizer": {"mbc_entries": 1099511627776}}"#,
            Error::MbcTooLarge {
                max: MAX_MBC_ENTRIES,
                have: huge,
            },
        ),
    ];
    let dir = std::env::temp_dir().join(format!("contopt-oversized-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (machine, want)) in cases.iter().enumerate() {
        let cfg = machine_from_json(&JsonValue::parse(machine).unwrap(), "machine").unwrap();
        assert_rejected(cfg, want.clone(), Some(machine));
        std::fs::write(dir.join(format!("case{i}.json")), scenario_text(machine)).unwrap();
    }
    let out = Command::new(env!("CARGO_BIN_EXE_contopt-experiments"))
        .arg("--scenarios-dir")
        .arg(&dir)
        .arg("--goldens")
        .arg(dir.join("no-goldens"))
        .arg("--validate")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(stdout.matches("INVALID").count(), cases.len(), "{stdout}");

    // The largest machine under every cap builds; one more ROB entry
    // takes the window past its cap.
    let mut largest = MachineConfig::default_with_optimizer();
    largest.rob_entries = MAX_WINDOW_SLOTS - largest.fetch_queue_capacity().unwrap() - 1;
    largest.preg_count = MAX_PREG_COUNT;
    largest.optimizer.mbc_entries = MAX_MBC_ENTRIES;
    assert_eq!(largest.window_slots(), Some(MAX_WINDOW_SLOTS));
    assert!(SimSession::builder()
        .machine(largest)
        .program(tiny_program())
        .build()
        .is_ok());
    largest.rob_entries += 1;
    assert_rejected(largest, window, None);
}

/// A Memory Bypass Cache size that is not a power of two is inert on a
/// machine whose optimizer is off, and a typed error wherever RLE/SF would
/// use it: from the builder, from scenario validation, and from
/// `contopt-experiments --validate`.
#[test]
fn mbc_size_is_checked_where_rle_sf_uses_it() {
    let mut baseline = MachineConfig::default_paper();
    baseline.optimizer.mbc_entries = 100;
    let report = SimSession::builder()
        .machine(baseline)
        .program(tiny_program())
        .build()
        .unwrap()
        .run();
    assert!(report.pipeline.retired > 0);
    let mut optimized = MachineConfig::default_with_optimizer();
    optimized.optimizer.mbc_entries = 100;
    let err = SimSession::builder()
        .machine(optimized)
        .program(tiny_program())
        .build()
        .unwrap_err();
    assert_eq!(err, Error::MbcEntriesNotPowerOfTwo(100));
    assert!(err.to_string().contains("100 entries"), "{err}");

    let scenario = |optimizer: &str| {
        format!(
            r#"{{"version": 1, "name": "mbc100", "insts": 20000, "configs": [
                {{"label": "x", "workloads": ["twf"], "machine": {{"optimizer": {optimizer}}}}}
            ]}}"#
        )
    };
    // An optimizer block starts from the paper's default optimizer.
    let inert = scenario(r#"{"enabled": false, "mbc_entries": 100}"#);
    let active = scenario(r#"{"mbc_entries": 100}"#);
    assert!(Scenario::parse(&inert).is_ok());
    assert_eq!(
        Scenario::parse(&active).unwrap_err(),
        ScenarioError::Machine {
            label: "x".into(),
            err: Error::MbcEntriesNotPowerOfTwo(100),
        }
    );

    let dir = std::env::temp_dir().join(format!("contopt-mbc-size-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("inert.json"), inert).unwrap();
    std::fs::write(dir.join("active.json"), active).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_contopt-experiments"))
        .arg("--scenarios-dir")
        .arg(&dir)
        .arg("--goldens")
        .arg(dir.join("no-goldens"))
        .arg("--validate")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stdout.contains("INVALID") && stdout.contains("active.json"),
        "{stdout}"
    );
    assert!(stdout.contains("inert.json"), "{stdout}");
    assert_eq!(stdout.matches("INVALID").count(), 1, "{stdout}");
}

#[test]
fn errors_display_usefully() {
    let e = Error::FeedbackDelayExceedsRob { delay: 5, rob: 4 };
    assert!(e.to_string().contains("5 cycles"));
    assert!(e.to_string().contains("4 entries"));
    let _: &dyn std::error::Error = &e; // implements std::error::Error
}

// ---- an OptimizerConfig and its passes ------------------------------------

#[test]
fn presets_round_trip_through_the_bridges() {
    for (name, cfg) in [
        ("default", OptimizerConfig::default()),
        ("baseline", OptimizerConfig::baseline()),
        ("feedback_only", OptimizerConfig::feedback_only()),
        ("discrete", OptimizerConfig::discrete(512)),
    ] {
        // Decompose into the active passes and keep exactly those.
        let back = cfg.only_passes(&cfg.active_passes());
        assert_eq!(back, cfg.normalized(), "{name}");
        // normalized() is behaviour-preserving for every preset: a second
        // round trip is a fixed point.
        assert_eq!(back.only_passes(&back.active_passes()), back, "{name}");
    }
}

#[test]
fn tuned_configs_round_trip() {
    let cfg = OptimizerConfig {
        add_chain_depth: 3,
        mem_chain_depth: 1,
        mbc_entries: 64,
        feedback_delay: 5,
        extra_stages: 4,
        flush_mbc_on_unknown_store: true,
        ..OptimizerConfig::default()
    };
    assert_eq!(cfg.active_passes(), PassId::ALL);
    assert_eq!(cfg.only_passes(&PassId::ALL), cfg.normalized());
    assert_eq!(cfg.without_passes(&[]), cfg.normalized());
}

#[test]
fn builder_takes_a_pass_subset_as_its_optimizer() {
    let s = SimSession::builder()
        .program(tiny_program())
        .optimizer(OptimizerConfig::default().only_passes(&[PassId::CpRa, PassId::EarlyExec]))
        .build()
        .unwrap();
    assert!(s.config().optimizer.optimize);
    assert!(!s.config().optimizer.enable_rle_sf);
}

// ---- ablation scenarios as pass subsets -----------------------------------

fn run_passes(passes: &[PassId]) -> contopt_sim::Report {
    SimSession::builder()
        .program(tiny_program())
        .optimizer(OptimizerConfig::default().only_passes(passes))
        .insts(100_000)
        .build()
        .unwrap()
        .run()
}

#[test]
fn all_four_paper_scenarios_are_pass_lists() {
    // Baseline: no optimizer (the builder default).
    let baseline = SimSession::builder()
        .program(tiny_program())
        .insts(100_000)
        .build()
        .unwrap();
    assert!(!baseline.config().optimizer.enabled);
    let base = baseline.run();

    // CP/RA alone, RLE/SF alone, feedback alone: pass subsets, no presets.
    let cp_ra = run_passes(&[PassId::CpRa, PassId::EarlyExec]);
    let rle_sf = run_passes(&[PassId::RleSf, PassId::EarlyExec]);
    let feedback = run_passes(&[PassId::ValueFeedback, PassId::EarlyExec]);
    let full = run_passes(&PassId::ALL);

    // All scenarios retire the same stream.
    for r in [&cp_ra, &rle_sf, &feedback, &full] {
        assert_eq!(r.pipeline.retired, base.pipeline.retired);
    }
    // Each ablation leaves its own fingerprint.
    assert_eq!(cp_ra.optimizer.loads_removed, 0, "no RLE/SF, no removals");
    assert!(rle_sf.optimizer.loads_removed > 0, "RLE/SF removes reloads");
    assert_eq!(
        feedback.optimizer.moves_eliminated, 0,
        "feedback alone performs no reassociation"
    );
    assert!(full.optimizer.executed_early >= cp_ra.optimizer.executed_early);
    // The full pipeline must not lose to the baseline on this loop.
    assert!(full.speedup_over(&base).unwrap() > 1.0);
}

#[test]
fn passes_equal_the_bridged_preset_exactly() {
    // The same machine expressed as a pass subset and as the preset must
    // produce cycle-identical simulations.
    let via_passes = run_passes(&PassId::ALL);
    let via_preset = SimSession::builder()
        .program(tiny_program())
        .optimizer(OptimizerConfig::default())
        .insts(100_000)
        .build()
        .unwrap()
        .run();
    assert_eq!(via_passes.pipeline.cycles, via_preset.pipeline.cycles);
    assert_eq!(via_passes.optimizer, via_preset.optimizer);

    let feedback_via_passes = run_passes(&[PassId::ValueFeedback, PassId::EarlyExec]);
    let feedback_via_preset = SimSession::builder()
        .program(tiny_program())
        .optimizer(OptimizerConfig::feedback_only())
        .insts(100_000)
        .build()
        .unwrap()
        .run();
    assert_eq!(
        feedback_via_passes.pipeline.cycles,
        feedback_via_preset.pipeline.cycles
    );
}

// ---- the unified report ---------------------------------------------------

#[test]
fn report_subsumes_all_stat_blocks() {
    let r = run_passes(&PassId::ALL);
    assert!(r.pipeline.cycles > 0);
    assert!(r.optimizer.insts > 0);
    assert!(r.mbc.lookups > 0, "MBC stats are part of the report");
    assert!(r.predictor.cond_predictions > 0);
    assert!(r.memory.l1d.accesses > 0);
    assert_eq!(r.insts_budget, 100_000);
    let json = r.to_json().to_string();
    assert!(json.contains("\"mbc\""));
    let summary = r.summary();
    assert!(summary.contains("MBC"));
}
