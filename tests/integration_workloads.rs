//! End-to-end tests over the Table 1 workload suite: every benchmark runs
//! to completion on every machine configuration the paper evaluates, with
//! identical retirement counts (the timing models never change
//! architectural behaviour) and with the optimizer's strict value checker
//! active throughout.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_sim::emu::{ArchSnapshot, DynInst, Emulator, Step, STREAM_DIGEST_INIT};
use contopt_sim::isa::{Inst, Program};
use contopt_sim::workloads::{suite, Suite, CHECKSUM_ADDR};
use contopt_sim::{MachineConfig, OptimizerConfig, Report, SimSession};
use std::sync::Arc;

const CAP: u64 = 120_000; // instruction cap keeps the full matrix fast

/// Runs `program` on a `cfg` machine for at most `insts` instructions.
fn run(cfg: MachineConfig, program: Arc<Program>, insts: u64) -> Report {
    SimSession::builder()
        .machine(cfg)
        .program(program)
        .insts(insts)
        .build()
        .expect("valid machine")
        .run()
}

#[test]
fn all_workloads_retire_identically_on_all_machines() {
    let configs = [
        ("baseline", MachineConfig::default_paper()),
        ("optimizer", MachineConfig::default_with_optimizer()),
        (
            "feedback-only",
            MachineConfig::default_paper().with_optimizer(OptimizerConfig::feedback_only()),
        ),
        (
            "fetch-bound",
            MachineConfig {
                scheduler_entries: 16,
                ..MachineConfig::default_paper()
            },
        ),
        (
            "exec-bound",
            MachineConfig {
                fetch_width: 8,
                ..MachineConfig::default_paper()
            },
        ),
    ];
    for w in suite() {
        let mut retired = Vec::new();
        for (name, cfg) in configs {
            let rep = run(cfg, w.program.clone(), CAP);
            retired.push((name, rep.pipeline.retired));
        }
        let first = retired[0].1;
        assert!(first > 0);
        for (name, n) in &retired {
            assert_eq!(*n, first, "{}: {name} retired a different count", w.name);
        }
    }
}

/// `Emulator::step_into`, which the machine uses to step straight into
/// its instruction window, yields the same records and the same end state
/// as `Emulator::step` on every kernel.
#[test]
fn step_into_matches_step_on_every_kernel() {
    const STEPS: u64 = 200_000;
    for w in suite() {
        let mut by_value = Emulator::new(w.program.clone());
        let mut in_place = Emulator::new(w.program.clone());
        // A stale record: every field must be overwritten.
        let mut d = DynInst {
            seq: u64::MAX,
            pc: u64::MAX,
            inst: Inst::Nop,
            result: Some(u64::MAX),
            eff_addr: Some(u64::MAX),
            store_value: Some(u64::MAX),
            taken: true,
            next_pc: u64::MAX,
        };
        let mut n = 0;
        while n < STEPS {
            match by_value.step().unwrap() {
                Step::Inst(want) => {
                    assert!(in_place.step_into(&mut d).unwrap(), "{}", w.name);
                    assert_eq!(d, want, "{}: record {n}", w.name);
                    n += 1;
                }
                Step::Halted => {
                    let last = d;
                    assert!(!in_place.step_into(&mut d).unwrap(), "{}", w.name);
                    assert_eq!(d, last, "{}: a halted step leaves the record", w.name);
                    break;
                }
            }
        }
        assert!(n > 0, "{}", w.name);
        assert_eq!(by_value.halted(), in_place.halted(), "{}", w.name);
        assert_eq!(by_value.pc(), in_place.pc(), "{}", w.name);
        assert_eq!(
            ArchSnapshot::capture(&by_value, n, 0),
            ArchSnapshot::capture(&in_place, n, 0),
            "{}",
            w.name
        );
    }
}

#[test]
fn optimizer_checksums_match_functional_execution() {
    // The timing model replays the oracle stream, so memory results are by
    // construction those of the emulator; check the checksum plumbing
    // anyway by running the emulator standalone for a few benchmarks.
    for name in ["mcf", "untst", "g721d", "vpr"] {
        let w = contopt_sim::workloads::build(name).unwrap();
        let mut emu = Emulator::new(w.program.clone());
        emu.run_to_halt(5_000_000).unwrap();
        let chk = emu.mem().read_u64(CHECKSUM_ADDR);
        assert_ne!(chk, 0, "{name} checksum");
        // Determinism across reconstruction:
        let mut emu2 = Emulator::new(w.program.clone());
        emu2.run_to_halt(5_000_000).unwrap();
        assert_eq!(chk, emu2.mem().read_u64(CHECKSUM_ADDR));
    }
}

#[test]
fn suite_speedup_ordering_matches_the_paper() {
    // The paper's headline shape: mediabench benefits most; `amp` is flat.
    let mut means = std::collections::HashMap::new();
    for s in [Suite::SpecInt, Suite::SpecFp, Suite::MediaBench] {
        let mut prod = 1.0f64;
        let mut n = 0u32;
        for w in suite().into_iter().filter(|w| w.suite == s) {
            let base = run(MachineConfig::default_paper(), w.program.clone(), CAP);
            let opt = run(MachineConfig::default_with_optimizer(), w.program, CAP);
            prod *= opt.speedup_over(&base).unwrap();
            n += 1;
        }
        means.insert(s, prod.powf(1.0 / n as f64));
    }
    assert!(
        means[&Suite::MediaBench] > means[&Suite::SpecInt],
        "mediabench must benefit most: {:?}",
        means
    );
    assert!(means[&Suite::MediaBench] > 1.05);
    for (_, m) in means {
        assert!(
            m > 0.95 && m < 1.4,
            "suite mean out of plausible range: {m}"
        );
    }
}

#[test]
fn amp_is_flat_mcf_and_untst_stand_out() {
    let speedup = |name: &str| {
        let w = contopt_sim::workloads::build(name).unwrap();
        let base = run(MachineConfig::default_paper(), w.program.clone(), CAP);
        let opt = run(MachineConfig::default_with_optimizer(), w.program, CAP);
        opt.speedup_over(&base).unwrap()
    };
    let amp = speedup("amp");
    assert!(
        (0.97..1.05).contains(&amp),
        "paper: amp = 1.00, got {amp:.3}"
    );
    let mcf = speedup("mcf");
    assert!(mcf > 1.10, "paper: mcf is SPECint's outlier, got {mcf:.3}");
    let untst = speedup("untst");
    assert!(
        untst > 1.10,
        "paper: untst is the best case, got {untst:.3}"
    );
}

#[test]
fn workload_mix_is_diverse() {
    // The optimizer statistics should differ meaningfully across suites —
    // a degenerate suite (everything identical) would invalidate Table 3.
    let mut early = Vec::new();
    for w in suite() {
        let rep = run(MachineConfig::default_with_optimizer(), w.program, 60_000);
        early.push(rep.optimizer.pct_executed_early());
    }
    let min = early.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = early.iter().cloned().fold(0.0, f64::max);
    assert!(
        max - min > 15.0,
        "suite lacks diversity: {min:.1}..{max:.1}"
    );
}

#[test]
fn stream_and_image_digests_are_pinned() {
    // Pinned values: the stream and image digests the differential
    // oracle compares must not change with how they are computed.
    let twf = contopt_sim::workloads::build("twf").unwrap();
    let mut emu = Emulator::new(twf.program.clone());
    assert_eq!(emu.mem().content_digest(), 0x2f31_0a81_894e_5174);
    let mut digest = STREAM_DIGEST_INIT;
    for _ in 0..1000 {
        let Step::Inst(d) = emu.step().unwrap() else {
            panic!("twf halted within 1000 instructions");
        };
        digest = d.fold_digest(digest);
    }
    assert_eq!(digest, 0xac91_80ab_b426_5d23);
}
