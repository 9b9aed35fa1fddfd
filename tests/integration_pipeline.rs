//! Cross-crate integration tests of the timing model, including a
//! property-based mini-fuzzer that runs randomly generated programs through
//! the baseline and optimized machines. The optimizer's strict value
//! checking turns every run into a deep correctness check: any value it
//! derives that disagrees with the functional oracle panics.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_sim::isa::{r, Asm, Program};
use contopt_sim::workloads::SplitMix64;
use contopt_sim::{simulate, Machine, MachineConfig, OptimizerConfig};
use std::sync::Arc;

fn counted_loop(n: i64, body: impl Fn(&mut Asm)) -> Program {
    let mut a = Asm::new();
    let scratch = a.data_zeros(256);
    a.li(r(20), scratch as i64);
    a.li(r(21), n);
    a.label("loop");
    body(&mut a);
    a.subq(r(21), 1, r(21));
    a.bne(r(21), "loop");
    a.halt();
    a.finish().expect("assembles")
}

#[test]
fn identical_retirement_across_machines() {
    let p = counted_loop(500, |a| {
        a.ldq(r(1), r(20), 0);
        a.addq(r(1), r(21), r(1));
        a.stq(r(1), r(20), 0);
    });
    let base = simulate(MachineConfig::default_paper(), p.clone(), 1_000_000);
    let opt = simulate(
        MachineConfig::default_with_optimizer(),
        p.clone(),
        1_000_000,
    );
    let fb = simulate(
        MachineConfig::default_paper().with_optimizer(OptimizerConfig::feedback_only()),
        p,
        1_000_000,
    );
    assert_eq!(base.pipeline.retired, opt.pipeline.retired);
    assert_eq!(base.pipeline.retired, fb.pipeline.retired);
}

#[test]
fn simulation_is_deterministic() {
    let w = contopt_sim::workloads::build("twf").unwrap();
    let a = simulate(
        MachineConfig::default_with_optimizer(),
        w.program.clone(),
        100_000,
    );
    let b = simulate(
        MachineConfig::default_with_optimizer(),
        w.program.clone(),
        100_000,
    );
    assert_eq!(a.pipeline.cycles, b.pipeline.cycles);
    assert_eq!(a.optimizer, b.optimizer);
}

/// `Machine::run` skips the retired-stream digest, which only the
/// snapshot of `run_with_state` reads: skipping it must not change a report.
#[test]
fn run_reports_match_run_with_state() {
    for w in contopt_sim::workloads::suite() {
        for cfg in [
            MachineConfig::default_paper(),
            MachineConfig::default_with_optimizer(),
        ] {
            let run = Machine::new(cfg, Arc::clone(&w.program)).run(10_000);
            let (with_state, _) = Machine::new(cfg, Arc::clone(&w.program)).run_with_state(10_000);
            assert_eq!(
                run, with_state,
                "{} (optimizer on: {})",
                w.name, cfg.optimizer.enabled
            );
        }
    }
}

#[test]
fn mispredict_penalty_matches_table2() {
    assert_eq!(MachineConfig::default_paper().min_branch_penalty(), 20);
    assert_eq!(
        MachineConfig::default_with_optimizer().min_branch_penalty(),
        22
    );
    assert!(
        MachineConfig::default_with_optimizer().early_branch_penalty()
            < MachineConfig::default_paper().min_branch_penalty()
    );
}

#[test]
fn wider_exec_bound_machine_is_not_slower() {
    let w = contopt_sim::workloads::build("mgd").unwrap();
    let base = simulate(MachineConfig::default_paper(), w.program.clone(), 200_000);
    let wide = simulate(MachineConfig::exec_bound(), w.program.clone(), 200_000);
    assert!(
        wide.pipeline.cycles <= base.pipeline.cycles + base.pipeline.cycles / 20,
        "8-wide fetch should not slow down: {} vs {}",
        wide.pipeline.cycles,
        base.pipeline.cycles
    );
}

#[test]
fn bigger_schedulers_do_not_hurt() {
    let w = contopt_sim::workloads::build("mcf").unwrap();
    let base = simulate(MachineConfig::default_paper(), w.program.clone(), 200_000);
    let fb = simulate(MachineConfig::fetch_bound(), w.program.clone(), 200_000);
    assert!(fb.pipeline.cycles <= base.pipeline.cycles + base.pipeline.cycles / 20);
}

#[test]
fn ipc_never_exceeds_retire_width() {
    for name in ["mgd", "untst", "gap"] {
        let w = contopt_sim::workloads::build(name).unwrap();
        let r = simulate(MachineConfig::default_with_optimizer(), w.program, 150_000);
        assert!(
            r.ipc() <= 6.0,
            "{name} IPC {} exceeds retire width",
            r.ipc()
        );
    }
}

#[test]
fn optimizer_reduces_ooo_dispatch() {
    let w = contopt_sim::workloads::build("untst").unwrap();
    let base = simulate(MachineConfig::default_paper(), w.program.clone(), 300_000);
    let opt = simulate(MachineConfig::default_with_optimizer(), w.program, 300_000);
    assert!(
        opt.pipeline.dispatched_to_ooo < base.pipeline.dispatched_to_ooo,
        "early execution must relieve the out-of-order core"
    );
    assert_eq!(
        opt.pipeline.dispatched_to_ooo + opt.pipeline.bypassed_ooo,
        opt.pipeline.retired
    );
}

// ---- property-based mini-fuzzer -------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Addq(u8, i64, u8),
    Subq(u8, u8, u8),
    Sll(u8, u8, u8),
    Xor(u8, u8, u8),
    Mulq(u8, i64, u8),
    S8Addq(u8, u8, u8),
    Li(u8, i64),
    Mov(u8, u8),
    Store(u8, i64),
    Load(u8, i64),
    SkipIfZero(u8),
}

fn assemble(ops: &[Op], iterations: i64) -> Program {
    let mut a = Asm::new();
    let buf = a.data_zeros(256);
    a.li(r(20), buf as i64);
    a.li(r(21), iterations);
    a.label("loop");
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Addq(x, k, c) => {
                a.addq(r(x), k, r(c));
            }
            Op::Subq(x, y, c) => {
                a.subq(r(x), r(y), r(c));
            }
            Op::Sll(x, k, c) => {
                a.sll(r(x), k as i64, r(c));
            }
            Op::Xor(x, y, c) => {
                a.xor(r(x), r(y), r(c));
            }
            Op::Mulq(x, k, c) => {
                a.mulq(r(x), k, r(c));
            }
            Op::S8Addq(x, y, c) => {
                a.s8addq(r(x), r(y), r(c));
            }
            Op::Li(c, k) => {
                a.li(r(c), k);
            }
            Op::Mov(x, c) => {
                a.mov(r(x), r(c));
            }
            Op::Store(x, disp) => {
                a.stq(r(x), r(20), disp);
            }
            Op::Load(c, disp) => {
                a.ldq(r(c), r(20), disp);
            }
            Op::SkipIfZero(x) => {
                let lbl = format!("skip_{i}");
                a.bne(r(x), &lbl);
                a.addq(r(17), 1, r(17));
                a.label(&lbl);
            }
        }
    }
    a.subq(r(21), 1, r(21));
    a.bne(r(21), "loop");
    a.halt();
    a.finish().expect("generated program assembles")
}

/// A value in `lo..hi` from the deterministic splitmix64 stream standing
/// in for proptest.
fn range_i64(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    lo + rng.below((hi - lo) as u64) as i64
}

fn arb_op(rng: &mut SplitMix64) -> Op {
    let reg = |rng: &mut SplitMix64| 1 + rng.below(15) as u8;
    match rng.below(11) {
        0 => Op::Addq(reg(rng), range_i64(rng, -64, 64), reg(rng)),
        1 => Op::Subq(reg(rng), reg(rng), reg(rng)),
        2 => Op::Sll(reg(rng), rng.below(8) as u8, reg(rng)),
        3 => Op::Xor(reg(rng), reg(rng), reg(rng)),
        4 => Op::Mulq(reg(rng), range_i64(rng, -16, 17), reg(rng)),
        5 => Op::S8Addq(reg(rng), reg(rng), reg(rng)),
        6 => Op::Li(reg(rng), range_i64(rng, -1000, 1000)),
        7 => Op::Mov(reg(rng), reg(rng)),
        8 => Op::Store(reg(rng), range_i64(rng, 0, 24) * 8),
        9 => Op::Load(reg(rng), range_i64(rng, 0, 24) * 8),
        _ => Op::SkipIfZero(reg(rng)),
    }
}

/// Random loops run identically (and without strict-check panics) on
/// the baseline, the default optimizer, feedback-only, and the deepest
/// dependence-depth configuration. Formerly a proptest; now a
/// deterministic 24-case sweep.
#[test]
fn fuzz_random_loops() {
    let mut rng = SplitMix64::from_state(0x5EED_CA5E);
    for case in 0..24 {
        let n_ops = 1 + rng.below(23) as usize;
        let ops: Vec<Op> = (0..n_ops).map(|_| arb_op(&mut rng)).collect();
        let iters = 1 + rng.below(39) as i64;
        let p = assemble(&ops, iters);
        let base = simulate(MachineConfig::default_paper(), p.clone(), 400_000);
        let opt = simulate(MachineConfig::default_with_optimizer(), p.clone(), 400_000);
        assert_eq!(
            base.pipeline.retired, opt.pipeline.retired,
            "case {case}: {ops:?} x{iters}"
        );
        let deep = MachineConfig::default_paper().with_optimizer(OptimizerConfig {
            add_chain_depth: 3,
            mem_chain_depth: 1,
            ..OptimizerConfig::default()
        });
        let d = simulate(deep, p.clone(), 400_000);
        assert_eq!(d.pipeline.retired, opt.pipeline.retired, "case {case}");
        let fb = simulate(
            MachineConfig::default_paper().with_optimizer(OptimizerConfig::feedback_only()),
            p,
            400_000,
        );
        assert_eq!(fb.pipeline.retired, opt.pipeline.retired, "case {case}");
        // Statistics invariants hold on arbitrary programs.
        let s = opt.optimizer;
        assert!(s.executed_early <= s.insts);
        assert!(s.loads_removed <= s.loads);
        assert!(s.mem_addr_generated <= s.mem_ops);
        assert!(s.mispredicts_recovered_early <= s.mispredicted_branches);
    }
}
