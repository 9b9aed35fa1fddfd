//! Tests of the counterfactual ablation subsystem: the matrix dedupes
//! through the `Lab` fingerprints, the attribution is byte-deterministic
//! at any worker count, an inactive pass's marginal is exactly zero, and
//! the checked-in `goldens/ablate_smoke/ablation.json` reproduces.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_experiments::{
    ablation_golden, ablation_plan, ablation_report, check_goldens, Lab, TolerancePolicy,
};
use contopt_sim::{AblationSpec, MachineConfig, PassId, Scenario, ScenarioConfig, ToJson};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root (tests are registered under `crates/experiments`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The checked-in smoke ablation scenario.
fn ablate_smoke_scenario() -> Scenario {
    Scenario::load(repo_root().join("scenarios/ablate_smoke.json")).unwrap()
}

/// A reduced-budget copy of the smoke ablation scenario on one workload.
fn quick_scenario() -> Scenario {
    let mut sc = ablate_smoke_scenario();
    sc.insts = 20_000;
    sc.configs[0].workloads = vec!["twf".into()];
    sc
}

#[test]
fn ablation_is_byte_deterministic_across_worker_counts() {
    let sc = quick_scenario();
    let plan = ablation_plan(&sc).unwrap();
    let texts: Vec<String> = [1usize, 4]
        .into_iter()
        .map(|jobs| {
            let mut lab = Lab::new(sc.insts);
            lab.execute(&plan, jobs);
            ablation_report(&mut lab, &sc).unwrap().canonical_json()
        })
        .collect();
    assert_eq!(
        texts[0], texts[1],
        "leave-one-out matrix must be byte-identical at --jobs 1 vs --jobs 4"
    );
}

#[test]
fn disabled_pass_marginal_is_exactly_zero_and_costs_no_cell() {
    // A config with RLE/SF disabled: its leave-one-out machine is
    // fingerprint-identical to the full machine, so the row exists, is
    // flagged inactive, and has a marginal of exactly 0.
    let mut machine = MachineConfig::default_with_optimizer();
    machine.optimizer.enable_rle_sf = false;
    let sc = Scenario {
        name: "no-rle".into(),
        insts: 20_000,
        ablation: None,
        programs: vec![],
        configs: vec![ScenarioConfig {
            label: "no-rle-sf".into(),
            machine,
            workloads: vec!["twf".into()],
        }],
    };
    let plan = ablation_plan(&sc).unwrap();
    // full + baseline + 3 real leave-one-outs (the rle-sf one collapses
    // onto the full cell): 5 unique cells, not 1 + 1 + 4.
    assert_eq!(plan.len(), 5);
    let mut lab = Lab::new(sc.insts);
    lab.execute(&plan, 2);
    let r = ablation_report(&mut lab, &sc).unwrap();
    let w = &r.configs[0].workloads[0];
    assert_eq!(w.rows.len(), 4, "every stock pass gets a row");
    let rle = w
        .rows
        .iter()
        .find(|row| row.pass == PassId::RleSf.name())
        .unwrap();
    assert!(!rle.active);
    assert_eq!(rle.loo_cycles, w.full_cycles, "removal is the identity");
    assert_eq!(w.marginal_cycles(rle), 0, "marginal is exactly zero");
    assert_eq!(rle.events, 0, "a disabled pass earned no events");
    // Active passes report their full-run event counters.
    let ee = w
        .rows
        .iter()
        .find(|row| row.pass == PassId::EarlyExec.name())
        .unwrap();
    assert!(ee.active && ee.events > 0);
}

#[test]
fn plan_cell_count_equals_unique_config_fingerprints() {
    // The acceptance property: the expanded matrix reuses Lab dedup, so
    // the plan's cell count equals the number of unique configuration
    // fingerprints times workloads — never configs × passes blindly.
    let sc = ablate_smoke_scenario();
    let plan = ablation_plan(&sc).unwrap();
    let fingerprints = plan.fingerprints();
    let unique: HashSet<_> = fingerprints.iter().cloned().collect();
    assert_eq!(plan.len(), unique.len(), "no duplicate cells in the plan");
    // Full default optimizer: full + baseline + 4 LOO + 4 add-one-in =
    // 10 distinct machines on 2 workloads.
    assert_eq!(plan.len(), 20);
    let machines: HashSet<_> = fingerprints.iter().map(|k| *k.machine()).collect();
    assert_eq!(machines.len(), 10);
}

#[test]
fn checked_in_ablate_smoke_goldens_reproduce() {
    let sc = ablate_smoke_scenario();
    assert_eq!(sc.ablation, Some(AblationSpec { add_one_in: true }));
    let mut lab = Lab::new(sc.insts);
    lab.execute(&ablation_plan(&sc).unwrap(), 2);
    let golden = ablation_golden(&mut lab, &sc, &repo_root().join("goldens")).unwrap();
    let drifts = check_goldens(&[golden], &TolerancePolicy::exact()).unwrap();
    assert!(
        drifts.is_empty(),
        "ablate_smoke golden drifted (re-record intentionally with \
         --ablate scenarios/ablate_smoke.json --record): {drifts:?}"
    );
}

#[test]
fn report_json_carries_the_attribution_invariants() {
    let sc = quick_scenario();
    let mut lab = Lab::new(sc.insts);
    let r = ablation_report(&mut lab, &sc).unwrap();
    let doc = r.to_json();
    let w = doc
        .get("configs")
        .and_then(|c| c.as_array())
        .and_then(|c| c[0].get("workloads"))
        .and_then(|w| w.as_array())
        .map(|w| &w[0])
        .expect("workload object");
    // recovered = marginal_sum + interaction_residual, straight from the
    // serialized numbers.
    let field = |k: &str| w.get(k).and_then(|v| v.as_f64()).unwrap();
    assert_eq!(
        field("recovered_cycles"),
        field("marginal_sum") + field("interaction_residual")
    );
    assert_eq!(
        field("baseline_cycles") - field("full_cycles"),
        field("recovered_cycles")
    );
    // Four rows, PassId::ALL order, each with the cycle columns.
    let rows = w.get("passes").and_then(|p| p.as_array()).unwrap();
    assert_eq!(
        rows.iter()
            .map(|r| r.get("pass").and_then(|p| p.as_str()).unwrap())
            .collect::<Vec<_>>(),
        PassId::ALL.map(PassId::name).to_vec()
    );
    for row in rows {
        for key in [
            "events",
            "loo_cycles",
            "marginal_cycles",
            "speedup_share_pct",
        ] {
            assert!(row.get(key).is_some(), "row missing {key}");
        }
    }
}

/// `--ablate` through the binary: it records the golden, checks it clean,
/// and exits 1 on a perturbed golden and 2 on a deleted one; next to a
/// `--scenario` whose goldens match, a drifting ablation still exits 1.
#[test]
fn ablate_records_and_checks_through_the_binary() {
    let dir = std::env::temp_dir().join(format!("contopt-ablate-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("quick.json");
    std::fs::write(&file, quick_scenario().canonical_json()).unwrap();
    let golden = dir.join("ablate_smoke").join("ablation.json");
    let run = |args: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_contopt-experiments"))
            .current_dir(&dir)
            .args(args.split(' '))
            .args(["--goldens", "."])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout)
    };
    let (code, stdout) = run("--ablate quick.json --record");
    assert_eq!(code, Some(0), "{stdout}");
    assert_eq!(stdout, "recorded ./ablate_smoke/ablation.json\n");
    let (code, stdout) = run("--ablate quick.json --check");
    assert_eq!(code, Some(0), "{stdout}");
    assert_eq!(stdout, "ablation \"ablate_smoke\": golden matches\n");

    assert_eq!(run("--scenario quick.json --record").0, Some(0));
    let text = std::fs::read_to_string(&golden).unwrap();
    std::fs::write(
        &golden,
        text.replace("\"insts\": 20000", "\"insts\": 21000"),
    )
    .unwrap();
    let drift = "ablation \"ablate_smoke\": result drift in ./ablate_smoke/ablation.json";
    let (code, stdout) = run("--ablate quick.json --check");
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.starts_with(drift), "{stdout}");
    let (code, stdout) = run("--scenario quick.json --ablate quick.json --check");
    assert_eq!(code, Some(1), "{stdout}");
    let matched = "scenario \"ablate_smoke\": goldens match\n";
    assert!(stdout.starts_with(&format!("{matched}{drift}")), "{stdout}");

    std::fs::remove_file(&golden).unwrap();
    let (code, stdout) = run("--ablate quick.json --check");
    assert_eq!(code, Some(2), "{stdout}");
    assert_eq!(
        stdout,
        "ablation \"ablate_smoke\": missing golden ./ablate_smoke/ablation.json\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
