//! Tests of the per-pass stats attribution pipeline: the aggregate
//! `OptStats` is *derived* as the sum of the per-pass blocks (never
//! maintained separately), the sum invariant holds end-to-end across the
//! full workload suite, and disabling a pass zeroes exactly its block.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_sim::workloads::suite;
use contopt_sim::{OptStats, OptimizerConfig, PassId, PassStats, Report, SimSession};

/// A reduced budget so the whole 22-benchmark suite stays fast; every
/// structural property under test is budget-independent.
const INSTS: u64 = 40_000;

/// Runs `workload` under the paper's default optimizer reduced to
/// `passes` (no pass at all is the baseline).
fn run(workload: &str, passes: &[PassId]) -> Report {
    SimSession::builder()
        .workload(workload)
        .insts(INSTS)
        .optimizer(OptimizerConfig::default().only_passes(passes))
        .build()
        .expect("valid configuration")
        .run()
}

/// Every pass but `omit`.
fn full_minus(omit: PassId) -> Vec<PassId> {
    PassId::ALL.into_iter().filter(|&p| p != omit).collect()
}

#[test]
fn per_pass_blocks_sum_to_the_aggregate_across_the_full_suite() {
    for w in suite() {
        let r = run(w.name, &PassId::ALL);
        assert_eq!(
            r.passes.total(),
            r.optimizer,
            "{}: per-pass blocks must sum to the aggregate OptStats",
            w.name
        );
        // The report is non-trivial: the invariant is not 0 == 0.
        assert!(r.optimizer.insts > 0, "{}: nothing simulated", w.name);
    }
}

#[test]
fn aggregate_equals_block_sum_for_ablations_too() {
    // The invariant is structural, so it must hold for every pass subset,
    // not just the full stack.
    let subsets: [&[PassId]; 4] = [
        &[],
        &[PassId::CpRa, PassId::EarlyExec],
        &[PassId::ValueFeedback, PassId::EarlyExec],
        &[PassId::RleSf, PassId::EarlyExec],
    ];
    for passes in subsets {
        let r = run("mcf", passes);
        assert_eq!(r.passes.total(), r.optimizer, "subset {passes:?}");
    }
}

#[test]
fn full_stack_populates_every_pass_block() {
    // `untst` exercises all four mechanisms (the quickstart example's
    // showcase workload).
    let r = run("untst", &PassId::ALL);
    let p = &r.passes;
    assert!(p.engine.insts > 0);
    assert!(p.engine.loads > 0);
    assert!(p.cp_ra.moves_eliminated > 0, "CP/RA eliminates moves");
    assert!(p.rle_sf.loads_removed > 0, "RLE/SF removes loads");
    assert!(
        p.value_feedback.feedback_integrations > 0,
        "feedback converts entries"
    );
    assert!(
        p.early_exec.executed_early > 0,
        "early exec completes insts"
    );
    assert!(p.early_exec.branches_resolved_early > 0);
}

#[test]
fn disabling_a_pass_zeroes_exactly_its_block() {
    let zero = OptStats::default();

    // No RLE/SF: its block is exactly zero while the others stay active.
    let r = run("untst", &full_minus(PassId::RleSf));
    assert_eq!(r.passes.rle_sf, zero, "rle-sf disabled ⇒ block zero");
    assert!(r.passes.cp_ra.moves_eliminated > 0);
    assert!(r.passes.early_exec.executed_early > 0);
    assert!(r.passes.value_feedback.feedback_integrations > 0);

    // No value feedback: its block is exactly zero.
    let r = run("untst", &full_minus(PassId::ValueFeedback));
    assert_eq!(r.passes.value_feedback, zero);
    assert!(r.passes.early_exec.executed_early > 0);

    // No early execution: its block is exactly zero — nothing completes
    // at rename — and the completion-gated counters of the other passes
    // vanish with it (forwarding and move elimination need EarlyExec).
    let r = run("untst", &full_minus(PassId::EarlyExec));
    assert_eq!(r.passes.early_exec, zero);
    assert_eq!(r.passes.rle_sf.loads_removed, 0);
    assert_eq!(r.passes.cp_ra.moves_eliminated, 0);
    assert!(
        r.passes.engine.mem_addr_generated > 0,
        "address generation needs no completion"
    );

    // Baseline: every block is zero except the insts the engine counted —
    // and with no optimizer at all, even those denominators are the only
    // nonzero fields.
    let r = run("untst", &[]);
    assert_eq!(r.passes.cp_ra, zero);
    assert_eq!(r.passes.rle_sf, zero);
    assert_eq!(r.passes.value_feedback, zero);
    assert_eq!(r.passes.early_exec, zero);
    let e = r.passes.engine;
    assert!(e.insts > 0 && e.mem_ops > 0);
    assert_eq!(e.mem_addr_generated, 0, "baseline generates no addresses");
    assert_eq!(e.chain_limited, 0);
}

#[test]
fn report_passes_survive_the_json_round_trip() {
    use contopt_sim::JsonValue;
    let r = run("untst", &PassId::ALL);
    let doc = JsonValue::parse(&r.canonical_json()).expect("canonical JSON parses");
    let passes = doc.get("passes").expect("passes object present");
    let lookup = |block: &str, field: &str| -> u64 {
        passes
            .get(block)
            .and_then(|b| b.get(field))
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing passes.{block}.{field}"))
    };
    assert_eq!(
        lookup("rle-sf", "loads_removed"),
        r.passes.rle_sf.loads_removed
    );
    assert_eq!(
        lookup("early-exec", "executed_early"),
        r.passes.early_exec.executed_early
    );
    assert_eq!(lookup("engine", "insts"), r.passes.engine.insts);
    // The aggregate in the same document equals the block sum, field by
    // field, for the headline counters.
    let agg = doc.get("optimizer").expect("optimizer object");
    for field in ["insts", "executed_early", "loads_removed", "chain_limited"] {
        let total: u64 = ["engine", "cp-ra", "rle-sf", "value-feedback", "early-exec"]
            .iter()
            .map(|b| lookup(b, field))
            .sum();
        assert_eq!(
            agg.get(field).and_then(JsonValue::as_u64),
            Some(total),
            "optimizer.{field} must be the sum of the blocks"
        );
    }
    // And PassStats::total() agrees with what was serialized.
    let total: PassStats = r.passes;
    assert_eq!(total.total(), r.optimizer);
}
