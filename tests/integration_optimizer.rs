//! Integration tests of the continuous optimizer's observable behaviour:
//! the paper's individual optimizations (CP, RA, RLE, SF, value feedback,
//! early branch resolution, strength reduction, branch inference) seen
//! end-to-end through the pipeline, plus symbolic-algebra properties.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_sim::emu::{DynInst, Emulator, Step};
use contopt_sim::isa::{r, ArchReg, Asm, Program, Reg, STACK_TOP};
use contopt_sim::workloads::SplitMix64;
use contopt_sim::{
    sym_add, sym_add_imm, sym_shl, sym_sub, MachineConfig, Optimizer, OptimizerConfig, PhysReg,
    RenameReq, Renamed, RenamedClass, Report, SimSession, SymValue,
};
use std::sync::Arc;

/// Runs `p` under `cfg` through the `SimSession` facade.
fn run_cfg(cfg: MachineConfig, p: impl Into<Arc<Program>>, insts: u64) -> Report {
    SimSession::builder()
        .machine(cfg)
        .program(p)
        .insts(insts)
        .build()
        .expect("test configurations are valid")
        .run()
}

fn run_opt(p: impl Into<Arc<Program>>) -> Report {
    run_cfg(MachineConfig::default_with_optimizer(), p, 1_000_000)
}

#[test]
fn constant_propagation_respects_the_serial_addition_limit() {
    // A straight-line chain of dependent adds off a known constant — the
    // paper's §3.1 example. At the default depth (one addition per rename
    // packet) only the head of each chain folds; at depth 3 the whole chain
    // executes in the optimizer.
    let chain = |depth: u32| {
        let mut a = Asm::new();
        a.li(r(1), 3);
        for _ in 0..50 {
            a.addq(r(1), 4, r(1));
        }
        a.halt();
        let cfg = MachineConfig::default_paper().with_optimizer(OptimizerConfig {
            add_chain_depth: depth,
            ..OptimizerConfig::default()
        });
        run_cfg(cfg, a.finish().unwrap(), 10_000).optimizer
    };
    let d0 = chain(0);
    let d3 = chain(3);
    assert!(
        d0.executed_early < 10,
        "depth 0 must not fold serial chains: {}",
        d0.executed_early
    );
    assert!(d0.chain_limited > 20, "the bundle limit must bite");
    assert!(
        d3.executed_early > 40,
        "depth 3 folds the whole chain: {}",
        d3.executed_early
    );
}

#[test]
fn reassociation_flattens_induction_chains() {
    // A pointer bumped by 8 every iteration: after feedback makes the base
    // known, each iteration's lda executes early.
    let mut a = Asm::new();
    let buf = a.data_zeros(8 * 4096);
    a.li(r(1), buf as i64);
    a.li(r(2), 2000);
    a.label("loop");
    a.lda(r(1), r(1), 8);
    a.subq(r(2), 1, r(2));
    a.bne(r(2), "loop");
    a.halt();
    let rep = run_opt(a.finish().unwrap());
    assert!(
        rep.optimizer.pct_executed_early() > 60.0,
        "induction-only loop should almost fully fold: {:.1}%",
        rep.optimizer.pct_executed_early()
    );
}

#[test]
fn store_forwarding_removes_reloads() {
    // A store immediately reloaded. In the same rename packet, RLE/SF may
    // not satisfy the dependence (§3.2) — so at the default memory-chain
    // depth nothing forwards, while "depth … & 1 mem" captures it.
    let program = || {
        let mut a = Asm::new();
        let buf = a.data_zeros(64);
        a.li(r(1), buf as i64);
        a.li(r(3), 1234);
        a.li(r(2), 300);
        a.label("loop");
        a.stq(r(3), r(1), 0);
        a.ldq(r(4), r(1), 0); // forwarded from the store
        a.addq(r(4), 1, r(3));
        a.subq(r(2), 1, r(2));
        a.bne(r(2), "loop");
        a.halt();
        a.finish().unwrap()
    };
    let default = run_opt(program());
    assert!(
        default.optimizer.pct_loads_removed() < 10.0,
        "same-packet forwarding must be blocked by default: {:.1}%",
        default.optimizer.pct_loads_removed()
    );
    let chained = run_cfg(
        MachineConfig::default_paper().with_optimizer(OptimizerConfig {
            mem_chain_depth: 1,
            ..OptimizerConfig::default()
        }),
        program(),
        1_000_000,
    );
    assert!(
        chained.optimizer.pct_loads_removed() > 80.0,
        "one chained memory op must capture the pair: {:.1}%",
        chained.optimizer.pct_loads_removed()
    );
}

#[test]
fn redundant_load_elimination_merges_reloads() {
    let mut a = Asm::new();
    let buf = a.data_quads(&[42]);
    a.li(r(1), buf as i64);
    a.li(r(2), 300);
    a.label("loop");
    a.ldq(r(4), r(1), 0); // first load inserts; later iterations hit
    a.ldq(r(5), r(1), 0); // redundant within the iteration too
    a.addq(r(4), r(5), r(6));
    a.subq(r(2), 1, r(2));
    a.bne(r(2), "loop");
    a.halt();
    let rep = run_opt(a.finish().unwrap());
    assert!(
        rep.optimizer.pct_loads_removed() > 80.0,
        "repeated loads of one address must be eliminated: {:.1}%",
        rep.optimizer.pct_loads_removed()
    );
}

#[test]
fn mbc_size_matters_for_large_working_sets() {
    // 256 distinct quads cycled: fits a 512-entry MBC, thrashes a 16-entry.
    let mut a = Asm::new();
    let buf = a.data_quads(&(0..256u64).collect::<Vec<_>>());
    a.li(r(1), buf as i64);
    a.li(r(2), 256 * 20);
    a.li(r(5), 0);
    a.label("loop");
    a.and(r(2), 255, r(3));
    a.sll(r(3), 3, r(3));
    a.addq(r(3), r(1), r(3));
    a.ldq(r(4), r(3), 0);
    a.addq(r(5), r(4), r(5));
    a.subq(r(2), 1, r(2));
    a.bne(r(2), "loop");
    a.halt();
    let p = a.finish().unwrap();
    let small = run_cfg(
        MachineConfig::default_paper().with_optimizer(OptimizerConfig {
            mbc_entries: 16,
            ..OptimizerConfig::default()
        }),
        p.clone(),
        1_000_000,
    );
    let large = run_cfg(
        MachineConfig::default_paper().with_optimizer(OptimizerConfig {
            mbc_entries: 512,
            ..OptimizerConfig::default()
        }),
        p,
        1_000_000,
    );
    assert!(
        large.optimizer.loads_removed > 4 * small.optimizer.loads_removed.max(1),
        "512-entry MBC must capture far more reuse: {} vs {}",
        large.optimizer.loads_removed,
        small.optimizer.loads_removed
    );
}

#[test]
fn speculative_unknown_address_stores_are_caught() {
    // A store through an unknown (loaded) pointer aliases an MBC entry; the
    // next load of that address must not receive the stale value.
    let mut a = Asm::new();
    let slot = a.data_quads(&[111]);
    let ptr = a.data_quads(&[slot]); // pointer cell aliased by the store
    a.li(r(1), slot as i64);
    a.li(r(2), ptr as i64);
    a.li(r(9), 200);
    a.label("loop");
    a.ldq(r(3), r(1), 0); // inserts slot into the MBC
    a.ldq(r(4), r(2), 0); // the pointer (unknown value at rename)
    a.addq(r(3), 1, r(5));
    a.stq(r(5), r(4), 0); // unknown-address store hits `slot`
    a.ldq(r(6), r(1), 0); // must see the NEW value
    a.subq(r(9), 1, r(9));
    a.bne(r(9), "loop");
    a.halt();
    let rep = run_opt(a.finish().unwrap());
    // Completion itself proves correctness (strict checking). The stale
    // forwards must have been rejected at least once.
    assert!(
        rep.optimizer.mbc_rejects > 0,
        "stale speculative entries must be detected"
    );
}

#[test]
fn flush_policy_also_works() {
    let mut a = Asm::new();
    let slot = a.data_quads(&[5]);
    let ptr = a.data_quads(&[slot]);
    a.li(r(1), slot as i64);
    a.li(r(2), ptr as i64);
    a.li(r(9), 100);
    a.label("loop");
    a.ldq(r(3), r(1), 0);
    a.ldq(r(4), r(2), 0);
    a.stq(r(3), r(4), 0);
    a.ldq(r(6), r(1), 0);
    a.subq(r(9), 1, r(9));
    a.bne(r(9), "loop");
    a.halt();
    let rep = run_cfg(
        MachineConfig::default_paper().with_optimizer(OptimizerConfig {
            flush_mbc_on_unknown_store: true,
            ..OptimizerConfig::default()
        }),
        a.finish().unwrap(),
        1_000_000,
    );
    assert_eq!(
        rep.optimizer.mbc_rejects, 0,
        "flushing leaves nothing stale"
    );
}

#[test]
fn early_branch_resolution_recovers_mispredicts() {
    // A branch whose direction flips according to a counter bit: gshare
    // eventually learns it, but early iterations mispredict — and the
    // counter is fully known to the optimizer, so they recover early.
    let mut a = Asm::new();
    a.li(r(1), 3000);
    a.li(r(3), 0);
    a.label("loop");
    a.and(r(1), 5, r(2));
    a.beq(r(2), "skip");
    a.addq(r(3), 1, r(3));
    a.label("skip");
    a.subq(r(1), 1, r(1));
    a.bne(r(1), "loop");
    a.halt();
    let rep = run_opt(a.finish().unwrap());
    assert!(rep.optimizer.mispredicted_branches > 0);
    assert!(
        rep.optimizer.pct_mispredicts_recovered() > 90.0,
        "counter-driven branches must resolve at rename: {:.1}%",
        rep.optimizer.pct_mispredicts_recovered()
    );
    assert!(rep.pipeline.early_redirects > 0);
}

#[test]
fn strength_reduction_of_power_of_two_multiplies() {
    let mut a = Asm::new();
    let buf = a.data_zeros(8);
    a.li(r(5), buf as i64);
    a.ldq(r(1), r(5), 0);
    a.li(r(9), 100);
    a.label("loop");
    a.mulq(r(1), 8, r(2)); // -> shift: single-cycle, reassociable
    a.mulq(r(1), 7, r(3)); // not reducible: complex unit
    a.addq(r(2), r(3), r(1));
    a.and(r(1), 0xffff, r(1));
    a.subq(r(9), 1, r(9));
    a.bne(r(9), "loop");
    a.halt();
    let rep = run_opt(a.finish().unwrap());
    assert!(
        rep.optimizer.strength_reductions >= 100,
        "mulq by 8 must strength-reduce: {}",
        rep.optimizer.strength_reductions
    );
}

#[test]
fn branch_inference_reveals_zero() {
    // After a not-taken `bne r`, the optimizer knows r == 0 and the
    // subsequent add of a constant executes early. The loads stream through
    // fresh addresses (and RLE/SF is off) so the value is genuinely unknown
    // at rename — only the branch direction reveals it.
    let mut a = Asm::new();
    let buf = a.data_zeros(8 * 600);
    a.li(r(5), buf as i64);
    a.li(r(9), 500);
    a.label("loop");
    a.ldq(r(1), r(5), 0); // always zero, but unknown at rename
    a.bne(r(1), "never");
    a.addq(r(1), 7, r(2)); // r1 inferred = 0 -> executes early
    a.label("never");
    a.lda(r(5), r(5), 8);
    a.subq(r(9), 1, r(9));
    a.bne(r(9), "loop");
    a.halt();
    let rep = run_cfg(
        MachineConfig::default_paper().with_optimizer(OptimizerConfig {
            enable_rle_sf: false,
            ..OptimizerConfig::default()
        }),
        a.finish().unwrap(),
        1_000_000,
    );
    assert!(
        rep.optimizer.branch_inferences >= 400,
        "bne not-taken implies zero: {}",
        rep.optimizer.branch_inferences
    );
    assert!(
        rep.optimizer.executed_early > 500,
        "the dependent adds must execute early: {}",
        rep.optimizer.executed_early
    );
}

#[test]
fn discrete_optimization_is_weaker_than_continuous() {
    // §3.4: offline/trace-based frameworks invalidate the tables at every
    // trace boundary; shorter traces mean less accumulated knowledge.
    let w = contopt_sim::workloads::build("untst").unwrap();
    let base = run_cfg(MachineConfig::default_paper(), w.program.clone(), 300_000);
    let continuous = run_cfg(
        MachineConfig::default_with_optimizer(),
        w.program.clone(),
        300_000,
    );
    let discrete = run_cfg(
        MachineConfig::default_paper().with_optimizer(OptimizerConfig::discrete(64)),
        w.program.clone(),
        300_000,
    );
    assert!(
        discrete.optimizer.trace_resets > 1000,
        "boundaries must fire"
    );
    assert_eq!(discrete.pipeline.retired, continuous.pipeline.retired);
    let (sc, sd) = (
        continuous.speedup_over(&base).unwrap(),
        discrete.speedup_over(&base).unwrap(),
    );
    assert!(
        sc > sd,
        "continuous ({sc:.3}) must beat 64-inst discrete traces ({sd:.3})"
    );
    // Longer traces approach continuous behaviour.
    let long = run_cfg(
        MachineConfig::default_paper().with_optimizer(OptimizerConfig::discrete(4096)),
        w.program,
        300_000,
    );
    assert!(long.speedup_over(&base).unwrap() >= sd);
}

#[test]
fn feedback_alone_is_weaker_than_optimization() {
    let w = contopt_sim::workloads::build("mcf").unwrap();
    let base = run_cfg(MachineConfig::default_paper(), w.program.clone(), 300_000);
    let fb = run_cfg(
        MachineConfig::default_paper().with_optimizer(OptimizerConfig::feedback_only()),
        w.program.clone(),
        300_000,
    );
    let opt = run_cfg(MachineConfig::default_with_optimizer(), w.program, 300_000);
    assert!(
        opt.speedup_over(&base).unwrap() > fb.speedup_over(&base).unwrap(),
        "Figure 9: optimization must add over feedback alone ({:.3} vs {:.3})",
        opt.speedup_over(&base).unwrap(),
        fb.speedup_over(&base).unwrap()
    );
}

// ---- the plain renamer against the engine ---------------------------------

/// Completes a renamed instruction at once, as the repository benchmark's
/// rename replay does: a consumer releases its sources, and a new
/// destination reports its value and drops the producer claim.
fn complete_at_once(opt: &mut Optimizer, ren: &Renamed, d: &DynInst, now: u64) {
    if ren.class != RenamedClass::Done {
        for &p in &ren.srcs {
            opt.release(p);
        }
    }
    if let (Some(dst), true) = (ren.dst, ren.dst_new) {
        opt.complete(dst, ren.early_value.or(d.result).unwrap(), now);
        opt.release(dst);
    }
}

/// A disabled optimizer renames through its own plain path; the engine
/// with every mechanism switched off is the reference it stands for. Both
/// rename the first 200k instructions of every kernel, in bundles of
/// four, and must agree on every record, every counter and the number of
/// live registers after every bundle.
#[test]
fn the_plain_renamer_matches_the_engine_with_every_mechanism_off() {
    let off = OptimizerConfig {
        enabled: true,
        optimize: false,
        value_feedback: false,
        extra_stages: 0,
        enable_rle_sf: false,
        enable_reassociation: false,
        enable_branch_inference: false,
        enable_early_exec: false,
        ..OptimizerConfig::default()
    };
    let machine = MachineConfig::default_paper();
    let initial = |a: ArchReg| {
        if a == ArchReg::from(Reg::SP) {
            STACK_TOP
        } else {
            0
        }
    };
    let suite = contopt_sim::workloads::suite();
    assert_eq!(suite.len(), 24);
    for w in suite {
        let mut plain = Optimizer::new(OptimizerConfig::baseline(), machine.preg_count, initial);
        let mut engine = Optimizer::new(off, machine.preg_count, initial);
        let mut emu = Emulator::new(w.program);
        let mut reqs = Vec::with_capacity(machine.fetch_width);
        let (mut now, mut stepped, mut halted) = (0, 0, false);
        while !halted && stepped < 200_000 {
            reqs.clear();
            while reqs.len() < machine.fetch_width && stepped < 200_000 {
                let Step::Inst(d) = emu.step().unwrap() else {
                    halted = true;
                    break;
                };
                stepped += 1;
                // Some branches must count as mispredicted; every other
                // instruction's flag must be ignored alike.
                reqs.push(RenameReq {
                    d,
                    mispredicted: d.seq % 5 == 0,
                });
            }
            let want = engine.rename_bundle(now, &reqs);
            let got = plain.rename_bundle(now, &reqs);
            assert_eq!(got, want, "{} at cycle {now}", w.name);
            assert_eq!(got.len(), reqs.len(), "{}: rename stalled", w.name);
            for (ren, req) in got.iter().zip(&reqs) {
                complete_at_once(&mut plain, ren, &req.d, now);
                complete_at_once(&mut engine, ren, &req.d, now);
            }
            assert_eq!(plain.pass_stats(), engine.pass_stats(), "{}", w.name);
            assert_eq!(
                plain.pregs().live_count(),
                engine.pregs().live_count(),
                "{} at cycle {now}",
                w.name
            );
            now += 1;
        }
        assert!(plain.stats().mispredicted_branches > 0, "{}", w.name);
    }
}

// ---- symbolic-algebra properties ------------------------------------------
//
// Formerly proptest strategies; the container has no registry access, so
// the same properties are swept with a deterministic splitmix64 generator
// (512 cases each, mirroring the original ProptestConfig).

/// A symbol together with the (oracle) value of its base register.
fn arb_sym(rng: &mut SplitMix64) -> (SymValue, u64) {
    if rng.below(2) == 0 {
        (SymValue::Known(rng.next_u64()), 0)
    } else {
        (
            SymValue::Expr {
                base: PhysReg::from_index(1 + rng.below(63) as usize),
                scale: rng.below(4) as u8,
                offset: rng.next_u64() as i64,
            },
            rng.next_u64(),
        )
    }
}

/// The central algebra invariant: every fold preserves the evaluated
/// value. This is what makes the hardware transformations safe.
#[test]
fn folds_preserve_value() {
    let mut rng = SplitMix64::from_state(0xC0FFEE);
    for _ in 0..512 {
        let (s, bv) = arb_sym(&mut rng);
        let k = rng.next_u64() as i64;
        let sh = rng.below(4) as u32;
        let eval = |x: SymValue| x.eval_with(|_| bv);
        let v = eval(s);
        assert_eq!(eval(sym_add_imm(s, k).value), v.wrapping_add(k as u64));
        if let Some(f) = sym_add(s, SymValue::Known(k as u64)) {
            assert_eq!(eval(f.value), v.wrapping_add(k as u64));
        }
        if let Some(f) = sym_sub(s, SymValue::Known(k as u64)) {
            assert_eq!(eval(f.value), v.wrapping_sub(k as u64));
        }
        if let Some(f) = sym_shl(s, sh) {
            assert_eq!(eval(f.value), v.wrapping_shl(sh));
        }
    }
}

/// Value feedback folds scale and offset exactly like evaluation.
#[test]
fn feedback_matches_eval() {
    let mut rng = SplitMix64::from_state(0xFEEDBACC);
    for _ in 0..512 {
        let p = 1 + rng.below(63) as usize;
        let s = rng.below(4) as u8;
        let o = rng.next_u64() as i64;
        let bv = rng.next_u64();
        let sym = SymValue::Expr {
            base: PhysReg::from_index(p),
            scale: s,
            offset: o,
        };
        let fed = sym.feed_back(PhysReg::from_index(p), bv).unwrap();
        assert_eq!(fed.known().unwrap(), sym.eval_with(|_| bv));
    }
}
