//! Tests of the scenario-file subsystem: the checked-in `scenarios/*.json`
//! files are canonical and the figure files drawable at the paper budget,
//! parsing is total (typed errors, no panics), serialization round-trips
//! byte-for-byte, and the golden harness detects result drift.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_experiments::{
    check_figure, check_goldens, record_goldens, scenario_goldens, DriftKind, Lab, TolerancePolicy,
    DEFAULT_INSTS,
};
use contopt_sim::workloads::SplitMix64;
use contopt_sim::{
    Error, MachineConfig, OptimizerConfig, ProgramSource, Scenario, ScenarioConfig, ScenarioError,
    ToJson, ALL_WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root (tests are registered under `crates/experiments`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `scenarios/*.json` is the canonical serialization of what it
/// parses to, and is named after its file.
#[test]
fn checked_in_scenario_files_are_canonical() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_root().join("scenarios"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 11, "{paths:?}");
    for path in paths {
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let sc = Scenario::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            on_disk,
            sc.canonical_json(),
            "{} is not in canonical form",
            path.display()
        );
        assert_eq!(Scenario::parse(&on_disk).unwrap(), sc, "{}", path.display());
        assert_eq!(
            Some(sc.name.as_str()),
            path.file_stem().and_then(|s| s.to_str()),
            "{} names another scenario",
            path.display()
        );
    }
}

/// The figure and table files pin the paper budget, so `--figN` at the
/// default `--insts` renders exactly the cells `--scenario … --check`
/// pins, and every one is a file its renderer can draw.
#[test]
fn figure_scenarios_pin_the_default_budget() {
    for name in ["fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "table3"] {
        let sc =
            Scenario::load(repo_root().join("scenarios").join(format!("{name}.json"))).unwrap();
        assert_eq!(sc.insts, DEFAULT_INSTS, "{name}");
        check_figure(name, &sc).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// A one-config scenario running `cfg` on every workload.
fn optimizer_scenario(name: String, insts: u64, cfg: OptimizerConfig) -> Scenario {
    Scenario {
        name,
        insts,
        ablation: None,
        programs: vec![],
        configs: vec![ScenarioConfig {
            label: "x".into(),
            machine: MachineConfig::default_paper().with_optimizer(cfg),
            workloads: vec![ALL_WORKLOADS.into()],
        }],
    }
}

#[test]
fn random_optimizer_configs_round_trip_through_scenario_json() {
    let mut rng = SplitMix64::new(0x5eed_c0de);
    let bit = |r: &mut SplitMix64| r.below(2) == 1;
    let mut rle_sf_cases = 0;
    for i in 0..200 {
        let cfg = OptimizerConfig {
            enabled: bit(&mut rng),
            optimize: bit(&mut rng),
            value_feedback: bit(&mut rng),
            feedback_delay: rng.below(16),
            extra_stages: rng.below(8),
            add_chain_depth: rng.below(5) as u32,
            mem_chain_depth: rng.below(3) as u32,
            // Any size a machine can run: a power of two up to 512.
            mbc_entries: 1 << rng.below(10),
            flush_mbc_on_unknown_store: bit(&mut rng),
            enable_rle_sf: bit(&mut rng),
            enable_reassociation: bit(&mut rng),
            enable_branch_inference: bit(&mut rng),
            enable_early_exec: bit(&mut rng),
            discrete_interval: rng.below(1024),
        };
        if cfg.normalized().enable_rle_sf {
            rle_sf_cases += 1;
        }
        let sc = optimizer_scenario(format!("prop{i}"), 1 + rng.below(1_000_000), cfg);
        // serialize → parse → serialize is the identity on bytes, and the
        // parsed struct is the normalized fixed point.
        let text = sc.canonical_json();
        let parsed = Scenario::parse(&text).unwrap_or_else(|e| panic!("case {i}: {e}\n{text}"));
        assert_eq!(parsed, sc.normalized(), "case {i}");
        assert_eq!(parsed.canonical_json(), text, "case {i}");
        // And the normalized config is what the plan engine fingerprints:
        // both forms must land in the same cell.
        assert_eq!(
            parsed.configs[0].machine.optimizer,
            cfg.normalized(),
            "case {i}"
        );
    }
    // The MBC fields serialize only while RLE/SF is active.
    assert!(
        rle_sf_cases >= 10,
        "{rle_sf_cases} cases with RLE/SF active"
    );

    // A size no MBC can have serializes, but parsing rejects it where
    // RLE/SF uses the MBC, and normalizes it away where nothing does.
    let active = OptimizerConfig {
        mbc_entries: 100,
        ..OptimizerConfig::default()
    };
    let text = optimizer_scenario("mbc100".into(), 1_000, active).canonical_json();
    assert_eq!(
        Scenario::parse(&text),
        Err(ScenarioError::Machine {
            label: "x".into(),
            err: Error::MbcEntriesNotPowerOfTwo(100),
        })
    );
    let inert = OptimizerConfig {
        enable_rle_sf: false,
        ..active
    };
    let sc = optimizer_scenario("mbc100".into(), 1_000, inert);
    assert_eq!(Scenario::parse(&sc.canonical_json()), Ok(sc.normalized()));
}

#[test]
fn compact_and_pretty_scenario_json_parse_identically() {
    let sc = Scenario::load(repo_root().join("scenarios/smoke.json")).unwrap();
    let compact = sc.to_json().to_string();
    let pretty = sc.canonical_json();
    assert_eq!(
        Scenario::parse(&compact).unwrap(),
        Scenario::parse(&pretty).unwrap()
    );
}

#[test]
fn checked_in_smoke_goldens_reproduce() {
    let sc = Scenario::load(repo_root().join("scenarios/smoke.json")).unwrap();
    let mut lab = Lab::new(sc.insts);
    let goldens = scenario_goldens(&mut lab, &sc, &repo_root().join("goldens")).unwrap();
    let drifts = check_goldens(&goldens, &TolerancePolicy::exact()).unwrap();
    assert!(
        drifts.is_empty(),
        "smoke goldens drifted (re-record intentionally with --record): {drifts:?}"
    );
}

/// Machines a scenario file cannot describe, because files pin the cache
/// hierarchy to the paper's: an L1D that answers in zero cycles with no
/// register-read stage (with the optimizer's early address generation a
/// load completes in the cycle it issues), and a memory far slower than
/// any completion window.
fn cache_latency_scenario() -> Scenario {
    let mut instant_l1d = MachineConfig {
        regread_delay: 0,
        ..MachineConfig::default_with_optimizer()
    };
    instant_l1d.hierarchy.l1d_latency = 0;
    let mut slow_memory = MachineConfig::default_paper();
    slow_memory.hierarchy.memory_latency = 20_000;
    Scenario {
        name: "cache_latency".into(),
        insts: 100_000,
        ablation: None,
        programs: vec![],
        configs: [("instant_l1d", instant_l1d), ("slow_memory", slow_memory)]
            .into_iter()
            .map(|(label, machine)| ScenarioConfig {
                label: label.into(),
                machine,
                workloads: ["mcf", "gcc", "art", "untst"].map(String::from).to_vec(),
            })
            .collect(),
    }
}

#[test]
fn checked_in_cache_latency_goldens_reproduce() {
    let sc = cache_latency_scenario();
    let mut lab = Lab::new(sc.insts);
    let goldens = scenario_goldens(&mut lab, &sc, &repo_root().join("goldens")).unwrap();
    let drifts = check_goldens(&goldens, &TolerancePolicy::exact()).unwrap();
    assert!(
        drifts.is_empty(),
        "cache-latency goldens drifted: {drifts:?}"
    );
}

/// `--scenario FILE ...` checks every file up to the next flag: a missing
/// second file is an error (exit 3), not a silent pass on the first. A
/// stray path after another flag is an error too, before anything runs.
#[test]
fn scenario_flag_takes_every_path_up_to_the_next_flag() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_contopt-experiments"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, stderr) = run(&[
        "--scenario",
        "scenarios/smoke.json",
        "/nonexistent/file.json",
        "--check",
    ]);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("/nonexistent/file.json"), "{stderr}");

    let (code, stderr) = run(&[
        "--scenario",
        "scenarios/smoke.json",
        "--check",
        "scenarios/fig9.json",
    ]);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(
        stderr.contains("unexpected argument \"scenarios/fig9.json\""),
        "{stderr}"
    );
    assert!(!stderr.contains("simulating"), "nothing may run: {stderr}");

    let (code, stderr) = run(&["--ablate", "--check"]);
    assert_eq!(code, Some(3), "{stderr}");

    // A misspelled flag is rejected by name before anything runs, not
    // ignored.
    for (args, message) in [
        (
            &["--scenario", "scenarios/smoke.json", "--chek"][..],
            "unknown flag \"--chek\" (see --help)",
        ),
        (
            &["--fig9", "--jbos", "2"],
            "unknown flag \"--jbos\" (see --help)",
        ),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(3), "{args:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("contopt-experiments: {message}\n"),
            "{args:?}"
        );
    }

    // A bad flag value or a bad flag combination is a one-line error,
    // not a panic, and never exit 1, which means golden drift. The golden
    // flags on a figure run are refused, not ignored: nothing is printed,
    // checked or written.
    let goldens = std::env::temp_dir().join(format!("contopt-no-goldens-{}", std::process::id()));
    let goldens = goldens.to_str().unwrap();
    for (args, message) in [
        (
            &["--fig9", "--insts", "abc"][..],
            "--insts takes a positive number, got \"abc\"",
        ),
        (
            &["--scenario", "scenarios/smoke.json", "--record", "--check"],
            "--record and --check are mutually exclusive",
        ),
        (&["--table"], "unknown flag \"--table\" (see --help)"),
        (
            &["--fig9", "--jobs", "-1"],
            "--jobs takes a non-negative number, got \"-1\"",
        ),
        (
            &["--scenario", "scenarios/smoke.json", "--goldens"],
            "--goldens takes a directory",
        ),
        (
            &["--table2", "--check"],
            "--check applies only to a --scenario or --ablate run",
        ),
        (
            &["--table2", "--record", "--goldens", goldens],
            "--record applies only to a --scenario or --ablate run",
        ),
        (
            &["--table2", "--allow-field", "pipeline"],
            "--allow-field applies only to a --check run",
        ),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(3), "{args:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("contopt-experiments: {message}\n"),
            "{args:?}"
        );
    }
    assert!(
        !Path::new(goldens).exists(),
        "a refused --record wrote {goldens}"
    );

    // Any other flag that no run of the invocation reads is refused too,
    // and so is a second run, which would otherwise be dropped. G's
    // smoke/baseline/twf.json drifts, so a dropped check would exit 0
    // where the check itself exits 1. Within a --scenario or --ablate
    // run, a golden flag its mode does not read and --json beside a
    // golden mode are refused as well; N is a directory that a refused
    // --record must not create.
    let g = std::env::temp_dir().join(format!("contopt-drifted-{}", std::process::id()));
    std::fs::create_dir_all(g.join("smoke/baseline")).unwrap();
    let twf = std::fs::read_to_string(repo_root().join("goldens/smoke/baseline/twf.json")).unwrap();
    let twf = twf.replacen("\"cycles\": ", "\"cycles\": 1", 1);
    std::fs::write(g.join("smoke/baseline/twf.json"), twf).unwrap();
    let g = g.to_str().unwrap();
    let (code, stderr) = run(&[
        "--scenario",
        "scenarios/smoke.json",
        "--check",
        "--goldens",
        g,
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    let probes = "\
--table2 --goldens G => --goldens applies only to a --record, --check or --validate run
--table2 --allow-warnings => --allow-warnings applies only to a --verify run
--table2 --seed 7 => --seed applies only to a --fuzz or --fuzz-parsers run
--table2 --jobs 3 => --jobs applies only to a --table3, --fig6, --fig8, --fig9, --fig10, \
--fig11, --fig12, --all, --scenario or --ablate run
--table1 --scenarios-dir /nonexistent => --scenarios-dir applies only to a --table3, --fig6, \
--fig8, --fig9, --fig10, --fig11, --fig12, --all, --validate or --fuzz run
--fuzz-parsers 3 --json => --json applies only to a --table1, --table2, --table3, --fig6, \
--fig8, --fig9, --fig10, --fig11, --fig12, --all, --scenario, --ablate or --verify run
--table2 --table2 => --table2 may be given only once
--validate --validate => --validate may be given only once
--scenario scenarios/smoke.json --seed 3 --check => --seed applies only to a --fuzz or \
--fuzz-parsers run
--ablate scenarios/ablate_smoke.json --allow-warnings --check => --allow-warnings applies only \
to a --verify run
--verify crates/workloads/src/kernels/hjoin.s --allow-warnings --scenario scenarios/smoke.json \
--check --goldens G => --verify and --scenario are separate runs; give each its own invocation
--validate --scenario scenarios/smoke.json --check --goldens G => --validate and --scenario \
are separate runs; give each its own invocation
--validate scenarios/smoke.json --fig9 => --validate and --fig9 are separate runs; give each \
its own invocation
--validate --scenarios-dir scenarios --scenarios-dir /nonexistent => --scenarios-dir may be \
given only once
--scenario scenarios/smoke.json --allow-field pipeline => --allow-field applies only to a \
--check run
--scenario scenarios/smoke.json --goldens /nonexistent => --goldens applies only to a \
--record, --check or --validate run
--scenario scenarios/smoke.json --check --json => --json does not apply to a --check run
--scenario scenarios/smoke.json --record --json --goldens N => --json does not apply to a \
--record run
--scenario scenarios/smoke.json --record --allow-field pipeline --goldens N => --allow-field \
applies only to a --check run
--ablate scenarios/ablate_smoke.json --table --check => unknown flag \"--table\" (see --help)
--scenario scenarios/smoke.json --check --allow-field --jobs 2 => --allow-field takes one or \
more JSON field paths
--scenario scenarios/smoke.json --check --allow-field => --allow-field takes one or more JSON \
field paths
--scenario scenarios/smoke.json --scenario --check => --scenario takes one or more scenario files
--verify crates/workloads/src/kernels/hjoin.s --verify --allow-warnings => --verify takes one or \
more .s or scenario files";
    for probe in probes.lines() {
        let (args, message) = probe.split_once(" => ").unwrap();
        let args: Vec<&str> = args
            .split(' ')
            .map(|a| match a {
                "G" => g,
                "N" => goldens,
                _ => a,
            })
            .collect();
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(3), "{args:?}: {stderr}");
        assert_eq!(
            stderr,
            format!("contopt-experiments: {message}\n"),
            "{args:?}"
        );
    }
    assert!(
        !Path::new(goldens).exists(),
        "a refused --record wrote {goldens}"
    );
    let _ = std::fs::remove_dir_all(g);

    // A malformed CONTOPT_JOBS is refused like a bad --jobs value.
    let out = Command::new(env!("CARGO_BIN_EXE_contopt-experiments"))
        .current_dir(repo_root())
        .env("CONTOPT_JOBS", "abc")
        .args(["--fig9", "--insts", "1000"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "contopt-experiments: CONTOPT_JOBS takes a non-negative number, got \"abc\"\n"
    );
}

/// `--fig9` reads `<scenarios-dir>/fig9.json` and refuses, before any
/// cell simulates, a file its renderer cannot draw or no file at all.
#[test]
fn figure_flags_reject_undrawable_files_before_simulating() {
    let dir = std::env::temp_dir().join(format!("contopt-figdir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fig9 = dir.join("fig9.json");
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_contopt-experiments"))
            .args(["--fig9", "--insts", "1000", "--scenarios-dir"])
            .arg(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(3), "{stderr}");
        assert!(!stderr.contains("simulating"), "nothing may run: {stderr}");
        assert!(out.stdout.is_empty(), "nothing may print");
        stderr
    };

    let stderr = run();
    assert!(stderr.contains("fig9.json"), "{stderr}");

    let mut sc = Scenario::load(repo_root().join("scenarios/fig9.json")).unwrap();
    sc.configs.retain(|c| c.label != "baseline");
    std::fs::write(&fig9, sc.canonical_json()).unwrap();
    let stderr = run();
    assert!(stderr.contains("labelled \"baseline\""), "{stderr}");

    // A file shipping its own program: the suite figures cannot draw it.
    let shipped = std::fs::read_to_string(repo_root().join("scenarios/asm_smoke.json")).unwrap();
    std::fs::write(&fig9, shipped).unwrap();
    let stderr = run();
    assert!(stderr.contains("whole suite"), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_harness_detects_flag_flips_and_missing_files() {
    let dir = std::env::temp_dir().join(format!("contopt-goldens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Record a tiny one-cell scenario, then check it: clean.
    let mut sc = Scenario {
        name: "drift".into(),
        insts: 50_000,
        ablation: None,
        programs: vec![],
        configs: vec![ScenarioConfig {
            label: "optimized".into(),
            machine: MachineConfig::default_with_optimizer(),
            workloads: vec!["twf".into()],
        }],
    };
    let mut lab = Lab::new(sc.insts);
    let mut goldens = |sc: &Scenario| scenario_goldens(&mut lab, sc, &dir).unwrap();
    let written = goldens(&sc);
    record_goldens(&written).unwrap();
    assert_eq!(written.len(), 1);
    let exact = TolerancePolicy::exact();
    assert!(check_goldens(&goldens(&sc), &exact).unwrap().is_empty());

    // Flipping an optimizer flag in the scenario changes the simulated
    // result, so the same goldens now report drift — and the drift names
    // the first differing line so it is diagnosable from CI logs.
    sc.configs[0].machine.optimizer.enable_rle_sf = false;
    let flipped = goldens(&sc);
    let drifts = check_goldens(&flipped, &exact).unwrap();
    assert_eq!(drifts.len(), 1);
    let DriftKind::Changed { diff, disallowed } = &drifts[0].kind else {
        panic!("expected Changed, got {:?}", drifts[0].kind);
    };
    assert!(diff.line > 1);
    assert_ne!(diff.expected, diff.actual);
    assert!(disallowed.is_empty(), "exact checks list no field paths");
    let shown = drifts[0].to_string();
    assert!(shown.contains("- expected:"), "{shown}");
    assert!(shown.contains("+ actual:"), "{shown}");

    // A tolerance policy opting in every top-level section that can
    // legitimately move under the flag flip accepts the same run...
    let lenient = TolerancePolicy::allowing([
        "pipeline",
        "optimizer",
        "passes",
        "mbc",
        "predictor",
        "memory",
    ]);
    assert!(check_goldens(&flipped, &lenient).unwrap().is_empty());
    // ...while a policy covering only an unrelated field still drifts and
    // names the uncovered paths.
    let narrow = TolerancePolicy::allowing(["insts_budget"]);
    let drifts = check_goldens(&flipped, &narrow).unwrap();
    assert_eq!(drifts.len(), 1);
    let DriftKind::Changed { disallowed, .. } = &drifts[0].kind else {
        panic!("expected Changed");
    };
    assert!(
        !disallowed.is_empty(),
        "uncovered drift must name its field paths"
    );
    assert!(
        drifts[0].to_string().contains(&disallowed[0]),
        "drift display must include the uncovered paths"
    );

    // A label with no recorded golden is drift too, not a pass.
    sc.configs[0].label = "unrecorded".into();
    let drifts = check_goldens(&goldens(&sc), &exact).unwrap();
    assert_eq!(drifts[0].kind, DriftKind::Missing);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `contopt-experiments` in `dir`; returns exit code, stdout, stderr.
fn experiments(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_contopt-experiments"))
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh, empty scratch directory for one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("contopt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two labels that sanitize to one golden directory are refused when the
/// file loads: `--record` neither simulates nor writes a golden.
#[test]
fn record_refuses_labels_that_share_a_golden_directory() {
    let dir = scratch_dir("collide");
    let mut sc = Scenario::load(repo_root().join("scenarios/smoke.json")).unwrap();
    sc.configs[0].label = "fetch bound".into();
    sc.configs[1].label = "fetch_bound".into();
    std::fs::write(dir.join("collide.json"), sc.canonical_json()).unwrap();
    let (code, stdout, stderr) = experiments(
        &dir,
        &["--scenario", "collide.json", "--record", "--goldens", "g"],
    );
    assert_eq!(code, Some(3), "{stderr}");
    assert!(
        stderr.contains("labels \"fetch bound\" and \"fetch_bound\" collide"),
        "{stderr}"
    );
    assert!(!stderr.contains("simulating"), "nothing may run: {stderr}");
    assert!(stdout.is_empty() && !dir.join("g").exists(), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scenario name or label of `..` or `.` is refused when the file
/// loads: `--record` writes nothing, inside `--goldens` or beside it.
#[test]
fn record_refuses_names_that_leave_the_goldens_directory() {
    let dir = scratch_dir("dotdot");
    let mut sc = Scenario::load(repo_root().join("scenarios/smoke.json")).unwrap();
    sc.name = "..".into();
    std::fs::write(dir.join("up.json"), sc.canonical_json()).unwrap();
    let mut sc = Scenario::load(repo_root().join("scenarios/smoke.json")).unwrap();
    sc.configs[1].label = ".".into();
    std::fs::write(dir.join("here.json"), sc.canonical_json()).unwrap();
    for (file, message) in [
        ("up.json", "name \"..\" cannot name a golden directory"),
        (
            "here.json",
            "configs[1].label \".\" cannot name a golden directory",
        ),
    ] {
        let (code, stdout, stderr) = experiments(
            &dir,
            &["--scenario", file, "--record", "--goldens", "g/sub"],
        );
        assert_eq!(code, Some(3), "{file}: {stderr}");
        assert!(stderr.contains(message), "{file}: {stderr}");
        assert!(!stderr.contains("simulating"), "nothing may run: {stderr}");
        assert!(stdout.is_empty() && !dir.join("g").exists(), "{stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--validate` checks a scenario file at any depth under
/// `--scenarios-dir` as a scenario, not just as JSON: both when it walks
/// the directory and when it is handed the file.
#[test]
fn validate_checks_nested_scenarios_as_scenarios() {
    let dir = scratch_dir("nested");
    std::fs::create_dir_all(dir.join("conformance")).unwrap();
    let mut sc = Scenario::load(repo_root().join("scenarios/smoke.json")).unwrap();
    std::fs::write(dir.join("smoke.json"), sc.canonical_json()).unwrap();
    sc.insts = 0;
    std::fs::write(dir.join("conformance/bad.json"), sc.canonical_json()).unwrap();
    let bad = format!("INVALID  {}", dir.join("conformance/bad.json").display());
    let dir_arg = dir.to_str().unwrap();
    let (code, stdout, _) = experiments(&dir, &["--validate", "--scenarios-dir", dir_arg]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("ok       "), "{stdout}");
    assert!(
        stdout.contains(&format!("{bad}: \"insts\" must be positive")),
        "{stdout}"
    );
    let file = dir.join("conformance/bad.json");
    let (code, stdout, _) = experiments(
        &dir,
        &[
            "--validate",
            file.to_str().unwrap(),
            "--scenarios-dir",
            dir_arg,
        ],
    );
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.starts_with(&bad), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// asm_smoke with its program moved to a `.s` file beside it checks
/// against the same goldens as the inline original: the file is read
/// relative to the scenario and assembles to the same program.
#[test]
fn file_programs_check_against_the_inline_goldens() {
    let dir = scratch_dir("fileprog");
    let mut sc = Scenario::load(repo_root().join("scenarios/asm_smoke.json")).unwrap();
    let ProgramSource::Inline(text) = &sc.programs[0].source else {
        panic!("asm_smoke ships its program inline");
    };
    std::fs::write(dir.join("asmk.s"), text).unwrap();
    sc.programs[0].source = ProgramSource::File("asmk.s".into());
    std::fs::write(dir.join("asm_smoke.json"), sc.canonical_json()).unwrap();
    let goldens = repo_root().join("goldens");
    let (code, stdout, stderr) = experiments(
        &dir,
        &[
            "--scenario",
            "asm_smoke.json",
            "--check",
            "--goldens",
            goldens.to_str().unwrap(),
        ],
    );
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert_eq!(stdout, "scenario \"asm_smoke\": goldens match\n");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recorded cell golden that no cell of the scenario produces any more
/// is drift: `--check` names the file and exits 1, and `--record` leaves
/// it on disk.
#[test]
fn check_reports_goldens_that_no_cell_pins() {
    let dir = scratch_dir("unpinned");
    let smoke = Scenario::load(repo_root().join("scenarios/smoke.json")).unwrap();
    let write =
        |sc: &Scenario| std::fs::write(dir.join("smoke.json"), sc.canonical_json()).unwrap();
    let check = ["--scenario", "smoke.json", "--check", "--goldens", "g"];
    write(&smoke);
    let (code, _, stderr) = experiments(
        &dir,
        &["--scenario", "smoke.json", "--record", "--goldens", "g"],
    );
    assert_eq!(code, Some(0), "{stderr}");

    let mut sc = smoke.clone();
    sc.configs[0].workloads.retain(|w| w != "untst");
    write(&sc);
    let (code, stdout, stderr) = experiments(&dir, &check);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    let untst = Path::new("g").join("smoke/baseline/untst.json");
    assert_eq!(
        stdout,
        format!(
            "scenario \"smoke\": unpinned golden {}: no cell produces it any more; \
             delete the file or restore its cell\n",
            untst.display()
        )
    );
    // Recording deletes nothing, so the check still reports the file.
    let record = ["--scenario", "smoke.json", "--record", "--goldens", "g"];
    assert_eq!(experiments(&dir, &record).0, Some(0));
    assert!(dir.join(&untst).exists());
    assert_eq!(experiments(&dir, &check).0, Some(1));

    let mut sc = smoke.clone();
    sc.configs.retain(|c| c.label != "optimized");
    write(&sc);
    let (code, stdout, stderr) = experiments(&dir, &check);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    for workload in ["twf", "untst"] {
        let file = Path::new("g").join(format!("smoke/optimized/{workload}.json"));
        assert!(
            stdout.contains(&format!("unpinned golden {}", file.display())),
            "{stdout}"
        );
    }
    assert!(!stdout.contains("baseline"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
