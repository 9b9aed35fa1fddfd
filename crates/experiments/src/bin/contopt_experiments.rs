//! Command-line driver regenerating the paper's tables and figures, and
//! executing checked-in scenario files against golden reports.
//!
//! ```text
//! contopt-experiments [--insts N] [--jobs N] [--json] --all
//! contopt-experiments --table1 --table2 --table3 --fig6 --fig8 --fig9 --fig10 --fig11 --fig12
//! contopt-experiments --scenario scenarios/fig9.json [--jobs N]
//! contopt-experiments --scenario scenarios/smoke.json --record   # pin goldens
//! contopt-experiments --scenario scenarios/smoke.json scenarios/fig9.json --check  # fail on drift
//! contopt-experiments --ablate scenarios/ablate_smoke.json  # per-pass cycles
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
    ablation_golden, ablation_plan, ablation_report, check_figure, check_goldens, fig10, fig11,
    fig12, fig6, fig8, fig9, record_goldens, scenario_goldens, scenario_plan, table1, table2,
    table3, unpinned_goldens, CheckOutcome, FigureError, Lab, Plan, TolerancePolicy, DEFAULT_INSTS,
};
use contopt_sim::cli::Takes::{List, Nothing, One, Rest};
use contopt_sim::cli::{Args, Flag};
use contopt_sim::{default_jobs, JsonValue, Scenario, ToJson};
use std::error::Error;
use std::fmt::Display;
use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: contopt-experiments [OPTIONS]

One run per invocation; each flag applies only to the runs listed with it.
An unknown flag, an argument that no flag takes, a missing or malformed
value, a second occurrence of a flag that takes no list, a second run, or a
flag that nothing in the invocation reads exits 3 before anything runs. An
argument that begins with -- is never a value.

artifacts (combinable; --all selects every table and figure):
  --all --table1 --table2 --table3 --fig6 --fig8 --fig9 --fig10 --fig11 --fig12
                           Table 3 and each figure render the scenario file
                           <scenarios-dir>/<name>.json (table3.json,
                           fig6.json, ...) at the --insts budget

scenario files (--scenario and --ablate combine into one run):
  --scenario FILE ...      run a checked-in sweep through the parallel Lab
  --ablate FILE ...        expand the scenario's counterfactual ablation
                           matrix (full / leave-one-out / baseline / opt-in
                           add-one-in) and attribute cycles per pass; prints
                           the per-pass attribution table (--json: its JSON)
  --record | --check       pin or verify goldens for the named scenarios
                           (per-cell reports for --scenario, the
                           AblationReport for --ablate)
  --allow-field PATH ...   with --check: JSON fields allowed to differ
  --goldens DIR            with --record or --check: golden root (default:
                           goldens); also --validate

static verification:
  --verify FILE ...        statically verify programs — CFG well-formedness,
                           use-before-init, memory discipline, loop
                           boundedness — in .s files and in scenario
                           \"programs\" blocks; findings print per program
  --allow-warnings         --verify: warning-severity findings do not
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
  --seed S                 --fuzz and --fuzz-parsers: first seed (default 1)

maintenance:
  --validate [FILE...]     parse-check JSON artifacts (default: every
                           .json under --scenarios-dir, nested ones
                           included, and every checked-in golden under
                           the --goldens directory)
  --scenarios-dir DIR      scenario directory (default: scenarios);
                           Table 3, the figures, --validate and --fuzz

tuning:
  --insts N                Tables 1 and 3 and the figures: instruction
                           budget (--scenario and --ablate pin their own)
  --jobs N                 Table 3, the figures, --scenario and --ablate:
                           worker threads (default: the CONTOPT_JOBS env
                           var, else the machine's available parallelism;
                           0 in either means the next default, and a
                           malformed CONTOPT_JOBS exits 3)
  --json                   emit JSON instead of text tables (every run but
                           --validate, --fuzz and --fuzz-parsers, and not
                           with --record or --check)

exit codes (--scenario/--ablate runs; CI and the sweep server key on
these to report precise causes):
  0  success: goldens match (or the run/record completed)
  1  drift: at least one recorded golden differs from the fresh run, or
     pins a cell the scenario no longer has (delete it or restore the cell)
  2  missing: some goldens are not recorded (and none drifted)
  3  error: the run itself failed (an unknown, unread or second-run
     flag, a stray argument, a bad flag value, an unreadable scenario,
     I/O failure; contopt-client reports remote per-cell failures the
     same way)

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

/// Runs the command line; an `Err` (a refusal of [`Args::parse`], a bad
/// flag value or combination, or a figure file that cannot be drawn)
/// exits 3 before anything simulates.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &FLAGS)?;
    let json = args.has("--json");
    let scenarios_dir = PathBuf::from(args.value("--scenarios-dir").unwrap_or("scenarios"));
    let goldens_dir = PathBuf::from(args.value("--goldens").unwrap_or("goldens"));
    let seed = args.parsed("--seed")?.map_or(1, NonZeroU64::get);

    if let Some(count) = args.parsed("--fuzz")?.map(NonZeroU64::get) {
        return Ok(run_fuzz(count, seed, &scenarios_dir));
    }
    if let Some(count) = args.parsed("--fuzz-parsers")?.map(NonZeroU64::get) {
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
    if args.has("--validate") {
        return Ok(validate(
            args.values("--validate"),
            &scenarios_dir,
            &goldens_dir,
        ));
    }

    if args.has("--verify") {
        let allow_warnings = args.has("--allow-warnings");
        let (verdicts, outcome) =
            contopt_experiments::verify_files(args.values("--verify"), allow_warnings);
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

    if args.has("--scenario") || args.has("--ablate") {
        let (record, check) = (args.has("--record"), args.has("--check"));
        if record && check {
            return Err("--record and --check are mutually exclusive".into());
        }
        if json && (record || check) {
            let mode = if record { "--record" } else { "--check" };
            return Err(format!("--json does not apply to a {mode} run"));
        }
        let output = if record {
            Output::Record
        } else if check {
            // Explicit opt-in fields for intentional model changes; the
            // default (no --allow-field) is exact byte equality.
            Output::Check(TolerancePolicy::allowing(args.values("--allow-field")))
        } else {
            Output::Print { json }
        };
        // Evaluate both unconditionally: a scenario failure or drift must
        // not silently skip the requested ablation work (or vice versa).
        // The combined exit code keeps the most severe outcome (see the
        // "exit codes" section of --help).
        let jobs = jobs(&args)?;
        let scenarios = run_files(
            args.values("--scenario"),
            false,
            &output,
            &goldens_dir,
            jobs,
        );
        let ablations = run_files(args.values("--ablate"), true, &output, &goldens_dir, jobs);
        return Ok(ExitCode::from(scenarios.merge(ablations).exit_code()));
    }

    let insts = args
        .parsed("--insts")?
        .map_or(DEFAULT_INSTS, NonZeroU64::get);
    let want = |flag: &str| args.has("--all") || args.has(flag);

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
        let jobs = jobs(&args)?;
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

/// The worker count: `--jobs`, else `CONTOPT_JOBS`, else
/// [`default_jobs`]. 0 in either defers to the next, so scripts can ask
/// for every core without knowing how many there are.
fn jobs(args: &Args) -> Result<usize, String> {
    if let Some(n) = args.parsed("--jobs")?.filter(|&n| n > 0) {
        return Ok(n);
    }
    let Some(env) = std::env::var_os("CONTOPT_JOBS") else {
        return Ok(default_jobs());
    };
    match env.to_str().map(str::parse) {
        Some(Ok(0)) => Ok(default_jobs()),
        Some(Ok(n)) => Ok(n),
        _ => Err(format!(
            "CONTOPT_JOBS takes a non-negative number, got {env:?}"
        )),
    }
}

/// The flags of the run that renders the tables and figures.
const ARTIFACTS: &str =
    "--table1 --table2 --table3 --fig6 --fig8 --fig9 --fig10 --fig11 --fig12 --all";

/// Every flag, the values it takes, and the flags that read it.
const FLAGS: [Flag; 26] = [
    ("--all", Nothing, ARTIFACTS),
    ("--table1", Nothing, ARTIFACTS),
    ("--table2", Nothing, ARTIFACTS),
    ("--table3", Nothing, ARTIFACTS),
    ("--fig6", Nothing, ARTIFACTS),
    ("--fig8", Nothing, ARTIFACTS),
    ("--fig9", Nothing, ARTIFACTS),
    ("--fig10", Nothing, ARTIFACTS),
    ("--fig11", Nothing, ARTIFACTS),
    ("--fig12", Nothing, ARTIFACTS),
    ("--scenario", List(SCENARIO_FILES), "--scenario --ablate"),
    ("--ablate", List(SCENARIO_FILES), "--scenario --ablate"),
    (
        "--verify",
        List("one or more .s or scenario files"),
        "--verify",
    ),
    ("--validate", Rest("JSON files"), "--validate"),
    ("--fuzz", One("a positive number"), "--fuzz"),
    ("--fuzz-parsers", One("a positive number"), "--fuzz-parsers"),
    (
        "--insts",
        One("a positive number"),
        "--table1 --table3 --fig6 --fig8 --fig9 --fig10 --fig11 --fig12 --all",
    ),
    (
        "--jobs",
        One("a non-negative number"),
        "--table3 --fig6 --fig8 --fig9 --fig10 --fig11 --fig12 --all --scenario --ablate",
    ),
    (
        "--json",
        Nothing,
        "--table1 --table2 --table3 --fig6 --fig8 --fig9 --fig10 --fig11 --fig12 --all \
         --scenario --ablate --verify",
    ),
    (
        "--scenarios-dir",
        One("a directory"),
        "--table3 --fig6 --fig8 --fig9 --fig10 --fig11 --fig12 --all --validate --fuzz",
    ),
    (
        "--goldens",
        One("a directory"),
        "--record --check --validate",
    ),
    ("--seed", One("a positive number"), "--fuzz --fuzz-parsers"),
    ("--record", Nothing, "--scenario --ablate"),
    ("--check", Nothing, "--scenario --ablate"),
    (
        "--allow-field",
        List("one or more JSON field paths"),
        "--check",
    ),
    ("--allow-warnings", Nothing, "--verify"),
];

/// What `--scenario` and `--ablate` take.
const SCENARIO_FILES: &str = "one or more scenario files";

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
fn validate(files: &[String], scenarios_dir: &Path, goldens_dir: &Path) -> ExitCode {
    let mut files: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
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

/// What a `--scenario` or `--ablate` run does with its results.
enum Output {
    /// Print them, as JSON or as a text table.
    Print { json: bool },
    /// Write them as the goldens (`--record`).
    Record,
    /// Compare them with the goldens under a policy (`--check`).
    Check(TolerancePolicy),
}

/// Runs each file, `--scenario` files or, with `ablate`, `--ablate`
/// files, stopping at the first that fails. Returns the most severe
/// [`CheckOutcome`] across the files.
fn run_files(
    files: &[String],
    ablate: bool,
    output: &Output,
    goldens_dir: &Path,
    jobs: usize,
) -> CheckOutcome {
    let mut worst = CheckOutcome::Ok;
    for file in files {
        match run_file(file, ablate, output, goldens_dir, jobs) {
            Ok(outcome) => worst = worst.merge(outcome),
            Err(e) => {
                eprintln!("contopt-experiments: {file}: {e}");
                return CheckOutcome::Error;
            }
        }
    }
    let (drift, missing) = if ablate {
        ("ablation drift", "ablation golden missing; record it")
    } else {
        ("golden drift", "goldens missing; record them")
    };
    match worst {
        CheckOutcome::Drift => eprintln!(
            "contopt-experiments: {drift} detected; delete each unpinned golden, and \
             re-record the rest intentionally with --record"
        ),
        CheckOutcome::MissingGolden => eprintln!("contopt-experiments: {missing} with --record"),
        _ => {}
    }
    worst
}

/// Loads a scenario file and executes its plan: its cells, or with
/// `ablate` its counterfactual ablation matrix. Then prints, records or
/// checks the results: each cell's report, or the per-pass cycle
/// attribution.
fn run_file(
    file: &str,
    ablate: bool,
    output: &Output,
    goldens_dir: &Path,
    jobs: usize,
) -> Result<CheckOutcome, Box<dyn Error>> {
    let sc = Scenario::load(file)?;
    let (kind, plan, cells) = if ablate {
        ("ablation", ablation_plan(&sc)?, "counterfactual cells")
    } else {
        ("scenario", scenario_plan(&sc)?, "cells")
    };
    // Each scenario pins its own instruction budget, so each gets its own
    // lab; the plan still dedupes and parallelizes within it.
    let mut lab = Lab::new(sc.insts);
    eprintln!(
        "contopt-experiments: {kind} {:?}: simulating {} unique {cells} on {jobs} worker(s)",
        sc.name,
        plan.len(),
    );
    lab.execute(&plan, jobs);

    let goldens = match output {
        Output::Print { json } if ablate => {
            println!("{}", shown(&ablation_report(&mut lab, &sc)?, *json));
            return Ok(CheckOutcome::Ok);
        }
        Output::Print { json } => {
            print_scenario(&mut lab, &sc, *json)?;
            return Ok(CheckOutcome::Ok);
        }
        _ if ablate => vec![ablation_golden(&mut lab, &sc, goldens_dir)?],
        _ => scenario_goldens(&mut lab, &sc, goldens_dir)?,
    };
    let Output::Check(policy) = output else {
        record_goldens(&goldens)?;
        for g in &goldens {
            println!("recorded {}", g.path.display());
        }
        return Ok(CheckOutcome::Ok);
    };
    let mut drifts = check_goldens(&goldens, policy)?;
    if !ablate {
        drifts.extend(unpinned_goldens(
            goldens_dir,
            &sc.name,
            goldens.iter().map(|g| &g.path),
        )?);
    }
    if drifts.is_empty() {
        let matched = if ablate {
            "golden matches"
        } else {
            "goldens match"
        };
        println!("{kind} {:?}: {matched}", sc.name);
    }
    for d in &drifts {
        println!("{kind} {:?}: {d}", sc.name);
    }
    Ok(CheckOutcome::from_drifts(&drifts))
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
