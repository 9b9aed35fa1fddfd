//! Tests of the experiment harness: every table/figure regenerator runs at
//! a reduced instruction budget over its checked-in scenario file, produces
//! structurally complete output, and reproduces the qualitative claims of
//! the paper's evaluation section.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_experiments::{
    fig10, fig11, fig12, fig6, fig8, fig9, geomean, scenario_plan, table1, table2, table3,
    FigureError, Lab,
};
use contopt_sim::workloads::Suite;
use contopt_sim::{MachineConfig, Scenario, ToJson};
use std::path::Path;

const INSTS: u64 = 60_000;

/// The checked-in `scenarios/<name>.json`.
fn scenario(name: &str) -> Scenario {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{name}.json"));
    Scenario::load(path).unwrap()
}

#[test]
fn table1_lists_all_twentyfour_benchmarks() {
    let lab = Lab::new(INSTS);
    let t = table1(&lab);
    assert_eq!(t.rows.len(), 24);
    assert!(t.rows.iter().all(|r| r.insts > 10_000));
    let text = t.to_string();
    for name in ["bzp", "mcf", "untst", "g721d", "ptrch", "hjoin"] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn table2_matches_the_paper() {
    let t = table2();
    let text = t.to_string();
    assert!(text.contains("4 insts/cycle"));
    assert!(text.contains("6 insts/cycle"));
    assert!(text.contains("18-bit gshare, 1024-entry BTB"));
    assert!(text.contains("20 cycles (min)"));
    assert!(text.contains("four 8-entry schedulers"));
    assert!(text.contains("max. 160 in-flight insts"));
    assert!(text.contains("4 Simple IALUs, 1 Complex IALU, 2 FPALUs, 2 Agen"));
    assert!(text.contains("64KB, 4-way, 64B lines"));
    assert!(text.contains("32KB, 2-way, 32B lines"));
    assert!(text.contains("1024KB, 2-way, 128B lines"));
    assert!(text.contains("100 cycle latency"));
    assert!(text.contains("Memory Bypass Cache of 128 entries"));
}

#[test]
fn fig6_speedups_are_in_the_papers_band() {
    let mut lab = Lab::new(INSTS);
    let f = fig6(&mut lab, &scenario("fig6")).unwrap();
    assert_eq!(f.rows.len(), 24);
    for (_, name, s) in &f.rows {
        assert!(
            (0.9..1.5).contains(s),
            "{name} speedup {s:.3} outside plausible band"
        );
    }
    assert!(f.means.mediabench > f.means.specint);
    assert!(f.means.overall() > 1.0);
    // Rendering includes every benchmark and the averages.
    let text = f.to_string();
    assert_eq!(text.matches("avg").count(), 3);
}

#[test]
fn table3_percentages_are_sane_and_paper_shaped() {
    let mut lab = Lab::new(INSTS);
    let t = table3(&mut lab, &scenario("table3")).unwrap();
    assert_eq!(t.rows.len(), 4); // 3 suites + avg
    for r in &t.rows {
        for v in [
            r.exec_early,
            r.recovered_mispredicts,
            r.addr_generated,
            r.loads_removed,
        ] {
            assert!((0.0..=100.0).contains(&v), "{}: {v}", r.suite);
        }
    }
    let mb = &t.rows[2];
    assert_eq!(mb.suite, "mediabench");
    let int = &t.rows[0];
    assert!(
        mb.loads_removed > int.loads_removed,
        "paper: mediabench removes the most loads"
    );
    let avg = &t.rows[3];
    assert!(avg.exec_early > 15.0, "a large fraction executes early");
    assert!(avg.addr_generated > 50.0, "most addresses generate early");
}

#[test]
fn fig8_exec_bound_benefits_most_from_optimization() {
    let mut lab = Lab::new(INSTS);
    let f = fig8(&mut lab, &scenario("fig8")).unwrap();
    assert_eq!(f.labels.len(), 5);
    for s in [Suite::SpecInt, Suite::SpecFp, Suite::MediaBench] {
        let bars = f.suite(s);
        let (fetch, fetch_opt, _opt, exec, exec_opt) =
            (bars[0], bars[1], bars[2], bars[3], bars[4]);
        // Adding the optimizer helps both restructured machines...
        assert!(fetch_opt >= fetch * 0.99, "{s}: {fetch_opt} vs {fetch}");
        assert!(exec_opt >= exec * 0.99, "{s}: {exec_opt} vs {exec}");
        // ...and the relative gain is larger on the execution-bound machine
        // (the paper's §5.3 headline).
        let gain_fetch = fetch_opt / fetch;
        let gain_exec = exec_opt / exec;
        assert!(
            gain_exec >= gain_fetch * 0.98,
            "{s}: exec-bound gain {gain_exec:.3} should dominate fetch-bound {gain_fetch:.3}"
        );
    }
}

#[test]
fn fig9_feedback_alone_offers_little() {
    let mut lab = Lab::new(INSTS);
    let f = fig9(&mut lab, &scenario("fig9")).unwrap();
    for s in [Suite::SpecInt, Suite::SpecFp, Suite::MediaBench] {
        let bars = f.suite(s);
        let (feedback, full) = (bars[0], bars[1]);
        assert!(
            full > feedback,
            "{s}: optimization must add over feedback alone"
        );
    }
}

#[test]
fn fig10_deeper_chains_never_hurt_and_help_mediabench() {
    let mut lab = Lab::new(INSTS);
    let f = fig10(&mut lab, &scenario("fig10")).unwrap();
    for s in [Suite::SpecInt, Suite::SpecFp, Suite::MediaBench] {
        let bars = f.suite(s);
        assert!(
            bars[2] >= bars[0] * 0.995,
            "{s}: depth 3 must not lose to depth 0 ({} vs {})",
            bars[2],
            bars[0]
        );
    }
    let mb = f.suite(Suite::MediaBench);
    assert!(
        mb[2] > mb[0],
        "paper: mediabench depends on dependent-instruction processing"
    );
}

#[test]
fn fig11_latency_degrades_gracefully() {
    let mut lab = Lab::new(INSTS);
    let f = fig11(&mut lab, &scenario("fig11")).unwrap();
    for s in [Suite::SpecInt, Suite::SpecFp, Suite::MediaBench] {
        let bars = f.suite(s);
        let (d0, d2, d4) = (bars[0], bars[1], bars[2]);
        assert!(d0 >= d2 * 0.995 && d2 >= d4 * 0.995, "{s}: {d0} {d2} {d4}");
        assert!(d4 > 0.97, "{s}: still worthwhile at 4 extra stages");
    }
}

#[test]
fn fig12_feedback_delay_is_flat() {
    let mut lab = Lab::new(INSTS);
    let f = fig12(&mut lab, &scenario("fig12")).unwrap();
    for s in [Suite::SpecInt, Suite::SpecFp, Suite::MediaBench] {
        let bars = f.suite(s);
        let spread = bars.iter().cloned().fold(0.0f64, f64::max)
            - bars.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread < 0.05,
            "{s}: Figure 12 is flat in the paper; spread {spread:.3}"
        );
    }
}

#[test]
fn results_serialize_to_json() {
    let mut lab = Lab::new(30_000);
    let f = fig9(&mut lab, &scenario("fig9")).unwrap();
    let j = f.to_json().to_string();
    assert!(j.contains("feedback"));
    let t = table2();
    assert!(t.to_json().to_string().contains("gshare"));
    // Pretty output stays valid-looking and indented.
    assert!(t.to_json().pretty().contains("\n  \"rows\": ["));
}

#[test]
fn parallel_execution_is_deterministic() {
    // The same plan executed on one worker and on four must fill the cache
    // with byte-identical reports for every cell, and the figures
    // regenerated from either cache must serialize identically.
    let fig6_sc = scenario("fig6");
    let plan = scenario_plan(&fig6_sc).unwrap();
    let mut lab1 = Lab::new(30_000);
    lab1.execute(&plan, 1);
    let mut lab4 = Lab::new(30_000);
    lab4.execute(&plan, 4);

    let configs = [
        MachineConfig::default_paper(),
        MachineConfig::default_with_optimizer(),
    ];
    for cfg in configs {
        for w in contopt_sim::workloads::suite() {
            let a = lab1.cached(&cfg, w.name).expect("jobs=1 simulated cell");
            let b = lab4.cached(&cfg, w.name).expect("jobs=4 simulated cell");
            assert_eq!(
                a.to_json().to_string(),
                b.to_json().to_string(),
                "{} diverged across worker counts",
                w.name
            );
        }
    }
    assert_eq!(
        fig6(&mut lab1, &fig6_sc).unwrap().to_json().to_string(),
        fig6(&mut lab4, &fig6_sc).unwrap().to_json().to_string(),
        "figure output must not depend on the worker count"
    );
}

/// A renderer refuses a file it cannot draw, before anything simulates.
#[test]
fn renderers_reject_files_they_cannot_draw() {
    let mut lab = Lab::new(INSTS);
    let full = scenario("fig6");
    let without = |label: &str| {
        let mut sc = full.clone();
        sc.configs.retain(|c| c.label != label);
        sc
    };
    let missing = |label| Some(FigureError::MissingLabel(label));
    let no_baseline = without("baseline");
    assert_eq!(fig6(&mut lab, &no_baseline).err(), missing("baseline"));
    assert_eq!(fig9(&mut lab, &no_baseline).err(), missing("baseline"));
    let no_optimized = without("optimized");
    assert_eq!(fig6(&mut lab, &no_optimized).err(), missing("optimized"));
    assert_eq!(table3(&mut lab, &no_optimized).err(), missing("optimized"));

    let mut one_workload = full.clone();
    one_workload.configs[1].workloads = vec!["twf".into()];
    let not_whole = Some(FigureError::NotWholeSuite("optimized".into()));
    assert_eq!(fig6(&mut lab, &one_workload).err(), not_whole);
    assert_eq!(fig8(&mut lab, &one_workload).err(), not_whole);
    assert_eq!(table3(&mut lab, &one_workload).err(), not_whole);

    let twf = contopt_sim::workloads::build("twf").unwrap();
    for cfg in &full.configs {
        assert!(lab.cached(&cfg.machine, twf.name).is_none(), "nothing ran");
    }
}

#[test]
fn geomean_helper() {
    assert!((geomean(&[1.0, 1.0, 8.0]) - 2.0).abs() < 1e-12);
}
