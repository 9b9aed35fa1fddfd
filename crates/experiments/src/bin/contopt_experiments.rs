//! Command-line driver regenerating the paper's tables and figures, and
//! executing checked-in scenario files against golden reports.
//!
//! ```text
//! contopt-experiments [--insts N] [--jobs N] [--json] --all
//! contopt-experiments --table1 --table2 --table3 --fig6 --fig8 --fig9 --fig10 --fig11 --fig12
//! contopt-experiments --scenario scenarios/fig9.json [--jobs N]
//! contopt-experiments --scenario scenarios/smoke.json --record   # pin goldens
//! contopt-experiments --scenario scenarios/smoke.json scenarios/fig9.json --check  # fail on drift
//! contopt-experiments --ablate scenarios/ablate_smoke.json --table  # per-pass cycles
//! contopt-experiments --ablate scenarios/ablate_smoke.json --check  # pin/verify ablation
//! contopt-experiments --validate [FILE...]        # parse-check JSON artifacts
//! ```
//!
//! Each requested figure and Table 3 is defined by one scenario file,
//! `<scenarios-dir>/<name>.json`. The files are loaded and checked before
//! anything simulates; their cells merge into one [`Plan`] at the
//! `--insts` budget; the deduplicated plan is fanned across `--jobs`
//! worker threads (default: `CONTOPT_JOBS` or the machine's available
//! parallelism); the renderers then read the filled cache, so the printed
//! output is byte-identical at any worker count. `--scenario` runs files
//! the same way, except each at its own pinned instruction budget.

use contopt_experiments::{
    check_ablation_golden, check_figure, check_goldens, default_jobs, fig10, fig11, fig12, fig6,
    fig8, fig9, record_ablation_golden, record_goldens, scenario_plan, table1, table2, table3,
    CheckOutcome, FigureError, Lab, Plan, TolerancePolicy, DEFAULT_INSTS,
};
use contopt_sim::{JsonValue, Scenario, ToJson};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "usage: contopt-experiments [OPTIONS]

artifacts (combinable; --all selects every table and figure):
  --all --table1 --table2 --table3 --fig6 --fig8 --fig9 --fig10 --fig11 --fig12
                           Table 3 and each figure render the scenario file
                           <scenarios-dir>/<name>.json (table3.json,
                           fig6.json, ...) at the --insts budget

scenario files:
  --scenario FILE ...      run a checked-in sweep through the parallel Lab
  --ablate FILE ...        expand the scenario's counterfactual ablation
                           matrix (full / leave-one-out / baseline / opt-in
                           add-one-in) and attribute cycles per pass
  --record | --check       pin or verify goldens for the named scenarios
                           (per-cell reports for --scenario, the
                           AblationReport for --ablate)
  --allow-field PATH ...   with --check: JSON fields allowed to differ
  --goldens DIR            golden root (default: goldens)
  --table                  render the per-pass attribution table (the
                           default --ablate output; --json overrides)

static verification:
  --verify FILE ...        statically verify programs — CFG well-formedness,
                           use-before-init, memory discipline, loop
                           boundedness — in .s files and in scenario
                           \"programs\" blocks; findings print per program
  --allow-warnings         with --verify: warning-severity findings do not
                           gate (error findings always do)

differential fuzzing:
  --fuzz N                 generate N seeded random programs and assert the
                           emulator, the baseline pipeline, and the
                           all-passes pipeline commit identical
                           architectural state (each program also
                           round-trips through the text assembler and must
                           verify statically clean); failing seeds are
                           minimized and written as conformance scenarios
                           under --scenarios-dir
  --fuzz-parsers N         run N mutated inputs (byte flips, truncation,
                           splices) through the scenario-JSON and assembler
                           parsers, asserting typed errors and no panics
  --seed S                 first fuzz seed (default 1)

maintenance:
  --validate [FILE...]     parse-check JSON artifacts (default: every
                           .json under --scenarios-dir, nested ones
                           included, and every checked-in golden under
                           the --goldens directory)
  --scenarios-dir DIR      scenario directory (default: scenarios)

tuning:
  --insts N                instruction budget for the tables and figures
                           (--scenario and --ablate files pin their own)
  --jobs N                 worker threads; 0 means auto-detect via the
                           machine's available parallelism (the default;
                           the CONTOPT_JOBS env var behaves the same way)
  --json                   emit JSON instead of text tables

exit codes (--scenario/--ablate runs; CI and the sweep server key on
these to report precise causes):
  0  success: goldens match (or the run/record completed)
  1  drift: at least one recorded golden differs from the fresh run
  2  missing: some goldens are not recorded (and none drifted)
  3  error: the run itself failed (an unknown flag or stray argument,
     a bad flag value, an unreadable scenario, I/O failure;
     contopt-client reports remote per-cell failures the same way)

exit codes (--verify runs, same 0..3 severity ladder):
  0  clean: no finding gated (warnings allowed explicitly or by policy)
  1  errors: an error-severity finding, or a file failed to parse
  2  warnings: warning-severity findings without --allow-warnings
  3  unreadable: a file could not be read";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    run(&args).unwrap_or_else(|e| {
        eprintln!("contopt-experiments: {e}");
        ExitCode::from(3)
    })
}

/// Runs the command line; an `Err` (an unknown flag, a bad flag value or
/// combination, or a figure file that cannot be drawn) exits 3 before
/// anything simulates.
fn run(args: &[String]) -> Result<ExitCode, String> {
    check_arguments(args)?;
    let insts = number(args, "--insts", true)?.unwrap_or(DEFAULT_INSTS);
    // `--jobs 0` (like `CONTOPT_JOBS=0`) means auto-detect, so scripts can
    // pass an explicit "use every core" without knowing the core count.
    let jobs = match number(args, "--jobs", false)? {
        None | Some(0) => default_jobs(),
        Some(n) => n,
    };
    let json = args.iter().any(|a| a == "--json");
    let scenarios_dir = PathBuf::from(value(args, "--scenarios-dir")?.unwrap_or("scenarios"));
    let goldens_dir = PathBuf::from(value(args, "--goldens")?.unwrap_or("goldens"));

    let seed = number(args, "--seed", true)?.unwrap_or(1);
    if let Some(count) = number(args, "--fuzz", true)? {
        return Ok(run_fuzz(count, seed, &scenarios_dir));
    }
    if let Some(count) = number(args, "--fuzz-parsers", true)? {
        eprintln!("contopt-experiments: fuzzing the parsers with {count} mutated input(s)");
        return Ok(match contopt_sim::fuzz::fuzz_parsers(count, seed) {
            Ok(()) => {
                println!("parser fuzz: {count} case(s): no panics, typed errors only");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("contopt-experiments: {e}");
                ExitCode::FAILURE
            }
        });
    }
    if args.iter().any(|a| a == "--validate") {
        return Ok(validate(args, &scenarios_dir, &goldens_dir));
    }

    let verify_paths = values_after(args, "--verify");
    if args.iter().any(|a| a == "--verify") {
        if verify_paths.is_empty() {
            return Err("--verify takes one or more .s or scenario files".into());
        }
        let allow_warnings = args.iter().any(|a| a == "--allow-warnings");
        let (verdicts, outcome) = contopt_experiments::verify_files(&verify_paths, allow_warnings);
        if json {
            println!(
                "{}",
                contopt_experiments::render_verify_json(&verdicts, outcome).pretty()
            );
        } else {
            for v in &verdicts {
                print!("{}", contopt_experiments::render_verify_text(v));
            }
        }
        return Ok(ExitCode::from(outcome.exit_code()));
    }

    // `--table` renders only an --ablate run; anywhere else it would be a
    // silent no-op.
    if args.iter().any(|a| a == "--table") && !args.iter().any(|a| a == "--ablate") {
        return Err("--table selects the per-pass table of an --ablate run".into());
    }
    let scenario_files = values_after(args, "--scenario");
    let ablate_files = values_after(args, "--ablate");
    if args.iter().any(|a| a == "--scenario" || a == "--ablate") {
        if scenario_files.is_empty() && ablate_files.is_empty() {
            return Err("--scenario and --ablate take one or more scenario files".into());
        }
        let record = args.iter().any(|a| a == "--record");
        let check = args.iter().any(|a| a == "--check");
        if record && check {
            return Err("--record and --check are mutually exclusive".into());
        }
        // Explicit opt-in fields for intentional model changes; the
        // default (no --allow-field) is exact byte equality.
        let policy =
            TolerancePolicy::allowing(values_after(args, "--allow-field").into_iter().cloned());
        // Evaluate both unconditionally: a scenario failure or drift must
        // not silently skip the requested ablation work (or vice versa).
        // The combined exit code keeps the most severe outcome (see the
        // "exit codes" section of --help).
        let scenarios = run_scenarios(
            &scenario_files,
            jobs,
            record,
            check,
            &goldens_dir,
            &policy,
            json,
        );
        let ablations = run_ablations(
            &ablate_files,
            jobs,
            record,
            check,
            &goldens_dir,
            &policy,
            json,
        );
        return Ok(ExitCode::from(scenarios.merge(ablations).exit_code()));
    }

    let all = args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    // Phase 1: load every requested figure's scenario file, check that
    // its renderer can draw it, and declare its cells.
    let mut figures = Vec::new();
    let mut plan = Plan::new();
    for (name, render) in FIGURES {
        if want(&format!("--{name}")) {
            let (sc, cells) = load_figure(&scenarios_dir, name)?;
            plan.merge(&cells);
            figures.push((render, sc));
        }
    }

    // Phase 2: simulate the unique cells across the worker pool.
    let mut lab = Lab::new(insts);
    if !plan.is_empty() {
        eprintln!(
            "contopt-experiments: simulating {} unique cells on {} worker(s)",
            plan.len(),
            jobs
        );
        lab.execute(&plan, jobs);
    }

    // Phase 3: render the artifacts from the filled cache.
    if want("--table1") {
        println!("{}\n", shown(&table1(&lab), json));
    }
    if want("--table2") {
        println!("{}\n", shown(&table2(), json));
    }
    for (render, sc) in &figures {
        let text = render(&mut lab, sc, json).map_err(|e| e.to_string())?;
        println!("{text}\n");
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders a figure or table from its scenario, as text or JSON.
type Render = fn(&mut Lab, &Scenario, bool) -> Result<String, FigureError>;

/// A [`Render`] drawing with the renderer `$draw`.
macro_rules! render {
    ($draw:ident) => {
        |lab, sc, json| $draw(lab, sc).map(|r| shown(&r, json))
    };
}

/// The artifacts drawn from `<scenarios-dir>/<name>.json`, in print order.
const FIGURES: [(&str, Render); 7] = [
    ("fig6", render!(fig6)),
    ("table3", render!(table3)),
    ("fig8", render!(fig8)),
    ("fig9", render!(fig9)),
    ("fig10", render!(fig10)),
    ("fig11", render!(fig11)),
    ("fig12", render!(fig12)),
];

/// Loads `<dir>/<name>.json`, checks that the `name` renderer can draw
/// it, and lowers it to its cells.
fn load_figure(dir: &Path, name: &str) -> Result<(Scenario, Plan), String> {
    let path = dir.join(format!("{name}.json"));
    let at = |e: &dyn Display| format!("{}: {e}", path.display());
    let sc = Scenario::load(&path).map_err(|e| at(&e))?;
    check_figure(name, &sc).map_err(|e| at(&e))?;
    let cells = scenario_plan(&sc).map_err(|e| at(&e))?;
    Ok((sc, cells))
}

/// An artifact as pretty JSON or as its text table.
fn shown<T: ToJson + Display>(artifact: &T, json: bool) -> String {
    if json {
        artifact.to_json().pretty()
    } else {
        artifact.to_string()
    }
}

/// The value after `flag`, if the flag is given.
fn value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.get(i + 1)
        .filter(|v| !v.starts_with("--"))
        .map(|v| Some(v.as_str()))
        .ok_or_else(|| format!("{flag} takes a value"))
}

/// The number after `flag`, if the flag is given; `positive` rejects 0.
fn number<T: FromStr + PartialOrd + Default>(
    args: &[String],
    flag: &str,
    positive: bool,
) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .filter(|n| !positive || *n > T::default())
        .map(Some)
        .ok_or_else(|| {
            let kind = if positive { "positive" } else { "non-negative" };
            format!("{flag} takes a {kind} number")
        })
}

/// Flags that take no value.
const SWITCHES: [&str; 15] = [
    "--all",
    "--table1",
    "--table2",
    "--table3",
    "--fig6",
    "--fig8",
    "--fig9",
    "--fig10",
    "--fig11",
    "--fig12",
    "--json",
    "--record",
    "--check",
    "--table",
    "--allow-warnings",
];

/// Flags that take exactly one value.
const VALUE_FLAGS: [&str; 7] = [
    "--insts",
    "--jobs",
    "--goldens",
    "--scenarios-dir",
    "--seed",
    "--fuzz",
    "--fuzz-parsers",
];

/// Flags that take every value up to the next flag.
const LIST_FLAGS: [&str; 5] = [
    "--scenario",
    "--ablate",
    "--allow-field",
    "--verify",
    "--validate",
];

/// The values after each occurrence of `flag`, up to the next flag (the
/// flag may repeat): `--scenario a.json b.json` lists two files.
fn values_after<'a>(args: &'a [String], flag: &str) -> Vec<&'a String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .flat_map(|(i, _)| args[i + 1..].iter().take_while(|a| !a.starts_with("--")))
        .collect()
}

/// Rejects an unknown flag, and any argument that no flag takes, such as
/// a file named after `--check`.
fn check_arguments(args: &[String]) -> Result<(), String> {
    let mut in_list = false;
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        let flag = arg.as_str();
        if !flag.starts_with("--") {
            if !in_list {
                return Err(format!(
                    "unexpected argument {arg:?}: files go after --scenario, --ablate, \
                     --verify or --validate, before the next flag"
                ));
            }
        } else if VALUE_FLAGS.contains(&flag) {
            in_list = false;
            rest.next_if(|v| !v.starts_with("--"));
        } else {
            in_list = LIST_FLAGS.contains(&flag);
            if !in_list && !SWITCHES.contains(&flag) {
                return Err(format!("unknown flag {arg:?} (see --help)"));
            }
        }
    }
    Ok(())
}

/// Collects every `*.json` under `dir`, recursively, in sorted order —
/// the scenarios tree (`conformance/` reproducers included) and the
/// `goldens/` tree (`<scenario>/<label>/<workload>.json` plus
/// `<scenario>/ablation.json`).
fn json_files_under(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            json_files_under(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "json") {
            out.push(path);
        }
    }
    Ok(())
}

/// Parse-checks JSON artifacts: the files listed after `--validate`, or
/// (with none listed) every `*.json` under `<scenarios-dir>/` and every
/// checked-in golden under `<goldens-dir>/`. Files under the scenarios
/// directory, at any depth, get full semantic validation as scenarios;
/// other JSON files must merely parse — which still catches a
/// hand-edited or truncated golden before the regression job burns a
/// full re-simulation discovering it.
fn validate(args: &[String], scenarios_dir: &Path, goldens_dir: &Path) -> ExitCode {
    let Some(pos) = args.iter().position(|a| a == "--validate") else {
        return ExitCode::from(2); // dispatch only routes here on --validate
    };
    let mut files: Vec<PathBuf> = args[pos + 1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .collect();
    if files.is_empty() {
        if let Err(e) = json_files_under(scenarios_dir, &mut files) {
            eprintln!(
                "contopt-experiments: cannot list {}: {e}",
                scenarios_dir.display()
            );
            return ExitCode::FAILURE;
        }
        // A repository without recorded goldens is fine; an unreadable
        // goldens tree is not.
        if goldens_dir.exists() {
            if let Err(e) = json_files_under(goldens_dir, &mut files) {
                eprintln!(
                    "contopt-experiments: cannot list {}: {e}",
                    goldens_dir.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if files.is_empty() {
        eprintln!("contopt-experiments: --validate found no JSON files");
        return ExitCode::FAILURE;
    }
    // Compare canonicalized directories so `./scenarios/x.json`, absolute
    // paths, and trailing-slash `--scenarios-dir` spellings all still get
    // full semantic validation, not just a JSON parse.
    let canonical_scenarios = std::fs::canonicalize(scenarios_dir).ok();
    let mut failed = false;
    for path in &files {
        let in_scenarios = match (
            path.parent().and_then(|p| std::fs::canonicalize(p).ok()),
            &canonical_scenarios,
        ) {
            (Some(parent), Some(dir)) => parent.starts_with(dir),
            _ => path.starts_with(scenarios_dir),
        };
        let result = if in_scenarios {
            Scenario::load(path).map(|_| ()).map_err(|e| e.to_string())
        } else {
            std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    JsonValue::parse(&text)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })
        };
        match result {
            Ok(()) => println!("ok       {}", path.display()),
            Err(e) => {
                failed = true;
                println!("INVALID  {}: {e}", path.display());
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Loads, executes, and (optionally) records or checks scenarios.
/// Returns the most severe [`CheckOutcome`] across the files.
#[allow(clippy::too_many_arguments)] // one call site; mirrors the CLI surface
fn run_scenarios(
    files: &[&String],
    jobs: usize,
    record: bool,
    check: bool,
    goldens_dir: &Path,
    policy: &TolerancePolicy,
    json: bool,
) -> CheckOutcome {
    let mut worst = CheckOutcome::Ok;
    for file in files {
        let sc = match Scenario::load(file) {
            Ok(sc) => sc,
            Err(e) => {
                eprintln!("contopt-experiments: {file}: {e}");
                return CheckOutcome::Error;
            }
        };
        let plan = match scenario_plan(&sc) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("contopt-experiments: {file}: {e}");
                return CheckOutcome::Error;
            }
        };
        // Each scenario pins its own instruction budget, so each gets its
        // own lab; the plan still dedupes and parallelizes within it.
        let mut lab = Lab::new(sc.insts);
        eprintln!(
            "contopt-experiments: scenario {:?}: simulating {} unique cells on {} worker(s)",
            sc.name,
            plan.len(),
            jobs
        );
        lab.execute(&plan, jobs);

        let outcome = if record {
            record_goldens(&mut lab, &sc, goldens_dir).map(|written| {
                for path in &written {
                    println!("recorded {}", path.display());
                }
            })
        } else if check {
            check_goldens(&mut lab, &sc, goldens_dir, policy).map(|drifts| {
                if drifts.is_empty() {
                    println!("scenario {:?}: goldens match", sc.name);
                } else {
                    for d in &drifts {
                        println!("scenario {:?}: {d}", sc.name);
                    }
                }
                worst = worst.merge(CheckOutcome::from_drifts(&drifts));
            })
        } else {
            print_scenario(&mut lab, &sc, json).map_err(contopt_experiments::CellError::Scenario)
        };
        if let Err(e) = outcome {
            eprintln!("contopt-experiments: {file}: {e}");
            return CheckOutcome::Error;
        }
    }
    match worst {
        CheckOutcome::Drift => eprintln!(
            "contopt-experiments: golden drift detected; re-record intentionally with --record"
        ),
        CheckOutcome::MissingGolden => {
            eprintln!("contopt-experiments: goldens missing; record them with --record")
        }
        _ => {}
    }
    worst
}

/// Loads each scenario, expands and executes its counterfactual ablation
/// matrix, and prints, records, or checks the per-pass cycle attribution.
/// Returns the most severe [`CheckOutcome`] across the files.
#[allow(clippy::too_many_arguments)] // one call site; mirrors the CLI surface
fn run_ablations(
    files: &[&String],
    jobs: usize,
    record: bool,
    check: bool,
    goldens_dir: &Path,
    policy: &TolerancePolicy,
    json: bool,
) -> CheckOutcome {
    let mut worst = CheckOutcome::Ok;
    for file in files {
        let sc = match Scenario::load(file) {
            Ok(sc) => sc,
            Err(e) => {
                eprintln!("contopt-experiments: {file}: {e}");
                return CheckOutcome::Error;
            }
        };
        let plan = match contopt_experiments::ablation_plan(&sc) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("contopt-experiments: {file}: {e}");
                return CheckOutcome::Error;
            }
        };
        let mut lab = Lab::new(sc.insts);
        eprintln!(
            "contopt-experiments: ablation {:?}: simulating {} unique counterfactual cells \
             on {} worker(s)",
            sc.name,
            plan.len(),
            jobs
        );
        lab.execute(&plan, jobs);

        let outcome = if record {
            record_ablation_golden(&mut lab, &sc, goldens_dir).map(|path| {
                println!("recorded {}", path.display());
            })
        } else if check {
            check_ablation_golden(&mut lab, &sc, goldens_dir, policy).map(|drifts| {
                if drifts.is_empty() {
                    println!("ablation {:?}: golden matches", sc.name);
                } else {
                    for d in &drifts {
                        println!("ablation {:?}: {d}", sc.name);
                    }
                }
                worst = worst.merge(CheckOutcome::from_drifts(&drifts));
            })
        } else {
            contopt_experiments::ablation_report(&mut lab, &sc).map(|report| {
                if json {
                    println!("{}", report.to_json().pretty());
                } else {
                    // The per-pass attribution table (also what an
                    // explicit --table selects).
                    println!("{report}");
                }
            })
        };
        if let Err(e) = outcome {
            eprintln!("contopt-experiments: {file}: {e}");
            return CheckOutcome::Error;
        }
    }
    match worst {
        CheckOutcome::Drift => eprintln!(
            "contopt-experiments: ablation drift detected; re-record intentionally with --record"
        ),
        CheckOutcome::MissingGolden => {
            eprintln!("contopt-experiments: ablation golden missing; record it with --record")
        }
        _ => {}
    }
    worst
}

/// Runs the differential fuzzing oracle over `count` seeds. Every
/// failure is minimized and written as a conformance scenario so the
/// regression stays pinned once fixed.
fn run_fuzz(count: u64, seed: u64, scenarios_dir: &Path) -> ExitCode {
    eprintln!(
        "contopt-experiments: fuzzing {count} program(s) from seed {seed} \
         (emulator vs baseline vs all-passes)"
    );
    let summary = contopt_sim::fuzz::run(count, seed, |s, failed| {
        if failed {
            eprintln!("contopt-experiments: seed {s}: DIVERGED");
        } else if (s - seed + 1) % 50 == 0 {
            eprintln!("contopt-experiments: {} seeds ok", s - seed + 1);
        }
    });
    if summary.failures.is_empty() {
        println!(
            "fuzz: {} program(s) agree across emulator, baseline, and optimized pipelines",
            summary.ran
        );
        return ExitCode::SUCCESS;
    }
    let dir = scenarios_dir.join("conformance");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("contopt-experiments: cannot create {}: {e}", dir.display());
        return ExitCode::from(3);
    }
    for fail in &summary.failures {
        eprintln!(
            "fuzz: seed {} diverged: {} ({} insts minimized)",
            fail.seed,
            fail.detail,
            fail.program.insts.len()
        );
        match contopt_sim::fuzz::conformance_scenario(fail) {
            Ok(sc) => {
                let path = dir.join(format!("fuzz_{}.json", fail.seed));
                match std::fs::write(&path, sc.to_json().pretty() + "\n") {
                    Ok(()) => eprintln!("fuzz: wrote conformance scenario {}", path.display()),
                    Err(e) => eprintln!("fuzz: cannot write {}: {e}", path.display()),
                }
            }
            Err(e) => eprintln!("fuzz: cannot build conformance scenario: {e}"),
        }
    }
    ExitCode::FAILURE
}

/// Prints per-cell results of a scenario run (no goldens involved).
fn print_scenario(
    lab: &mut Lab,
    sc: &Scenario,
    json: bool,
) -> Result<(), contopt_sim::ScenarioError> {
    if json {
        let cells: Vec<JsonValue> = {
            let mut out = Vec::new();
            for cfg in &sc.configs {
                for w in sc.workloads_for(cfg)? {
                    let r = lab.run(cfg.machine, &w);
                    out.push(JsonValue::obj([
                        ("config", cfg.label.as_str().into()),
                        ("workload", w.name.into()),
                        ("report", r.to_json()),
                    ]));
                }
            }
            out
        };
        let doc = JsonValue::obj([
            ("scenario", sc.name.as_str().into()),
            ("insts", sc.insts.into()),
            ("cells", JsonValue::arr(cells)),
        ]);
        println!("{}", doc.pretty());
        return Ok(());
    }
    println!("Scenario {:?} ({} insts/cell)", sc.name, sc.insts);
    println!(
        "{:<18} {:<8} {:>12} {:>12} {:>8} {:>9} {:>10} {:>9}",
        "config", "workload", "cycles", "retired", "IPC", "ee.early%", "rle-sf.lds", "vf.integr"
    );
    for cfg in &sc.configs {
        for w in sc.workloads_for(cfg)? {
            let r = lab.run(cfg.machine, &w);
            let p = &r.passes;
            println!(
                "{:<18} {:<8} {:>12} {:>12} {:>8.3} {:>8.1}% {:>10} {:>9}",
                cfg.label,
                w.name,
                r.pipeline.cycles,
                r.pipeline.retired,
                r.ipc(),
                contopt_sim::pct(p.early_exec.executed_early, p.engine.insts),
                p.rle_sf.loads_removed,
                p.value_feedback.feedback_integrations
            );
        }
    }
    Ok(())
}
