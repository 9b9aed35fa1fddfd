//! `contopt-client` — submit scenario sweeps to a `contopt-server`.
//!
//! The remote counterpart of `contopt-experiments --scenario FILE`: the
//! scenario is parsed and validated locally, shipped to the server, and
//! the returned canonical reports are printed — or, with `--check`, each
//! paired with its `golden_path` as a `Golden` and byte-compared against
//! the local `goldens/` tree through the exact harness (`check_goldens` +
//! `TolerancePolicy`) the local runner uses, with the same exit codes. A
//! cell the server failed on (`cell_error`) is reported and merged into
//! exit code 3 while its siblings are still checked.

use contopt_client::protocol::{CellReply, CellResult, SweepStatus};
use contopt_client::{Client, ClientConfig, RetryPolicy};
use contopt_experiments::{
    check_goldens, golden_path, unpinned_goldens, CheckOutcome, Golden, TolerancePolicy,
};
use contopt_sim::cli::Takes::{List, Nothing, One};
use contopt_sim::cli::{Args, Flag};
use contopt_sim::{JsonValue, Scenario};
use std::error::Error;
use std::num::NonZeroU32;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
contopt-client — submit sweeps to a contopt sweep server

USAGE:
  contopt-client --scenario FILE... [OPTIONS]
  contopt-client --ping [--addr HOST:PORT] [--timeout SECS]

One run per invocation, --scenario or --ping; each flag applies only to the
runs listed with it. An unknown flag, an argument that no flag takes, a
missing or malformed value, a second occurrence of a flag that takes no
list, a second run, or a flag that nothing in the invocation reads exits 3
before anything connects. An argument that begins with -- is never a value.

OPTIONS:
  --addr HOST:PORT         server to submit to (default: CONTOPT_SERVER
                           env var, else 127.0.0.1:4077)
  --scenario FILE ...      scenario files to submit (repeatable)
  --ping                   health-check the server (prints its status
                           snapshot; exit 0 if it answers, 3 if not);
                           takes only --addr and --timeout
  --check                  compare each returned report byte-for-byte
                           against its golden under --goldens
  --json                   without --check: print the raw canonical
                           report JSON instead of the summary table
  --jobs N                 --scenario: worker-count hint forwarded to the
                           server (the server clamps it to its own pool)
  --timeout SECS           per-connection I/O deadline (default 300;
                           0 disables; connect timeout stays 10s)
  --retries N              --scenario: max submission attempts on
                           transient errors (default 3; 1 disables
                           retry); backoff is exponential with
                           deterministic jitter
  --goldens DIR            --check: goldens directory (default: goldens)
  --allow-field PATH ...   --check: JSON field paths allowed to differ
                           (repeatable; default: exact byte equality)
  --help                   print this help

EXIT CODES (matching contopt-experiments --check):
  0  success; with --check, every report matches its golden
  1  drift: a golden exists but the server's report differs, or a
     recorded golden pins a cell the scenario no longer has
  2  missing: at least one cell has no recorded golden
  3  error: connection, protocol, I/O, per-cell server failure, or bad
     invocation
";

/// Every flag, the values it takes, and the flags that read it.
const FLAGS: [Flag; 10] = [
    ("--addr", One("HOST:PORT"), ""),
    ("--timeout", One("seconds"), ""),
    ("--ping", Nothing, "--ping"),
    (
        "--scenario",
        List("one or more scenario files"),
        "--scenario",
    ),
    ("--check", Nothing, "--scenario"),
    ("--json", Nothing, "--scenario"),
    ("--jobs", One("a number"), "--scenario"),
    ("--retries", One("a positive number"), "--scenario"),
    ("--goldens", One("a directory"), "--check"),
    (
        "--allow-field",
        List("one or more JSON field paths"),
        "--check",
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    run(&args).unwrap_or_else(|e| {
        eprintln!("contopt-client: {e}");
        ExitCode::from(CheckOutcome::Error.exit_code())
    })
}

/// Runs the command line; an `Err` (a refusal, a bad flag value, a failed
/// ping) exits 3, and a refusal comes before anything connects.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &FLAGS)?;
    let (check, json) = (args.has("--check"), args.has("--json"));
    if check && json {
        return Err("--json does not apply to a --check run".into());
    }
    let jobs = args.parsed("--jobs")?;
    let mut config = ClientConfig::default();
    if let Some(secs) = args.parsed("--timeout")? {
        config.io_timeout = (secs > 0).then(|| Duration::from_secs(secs));
    }
    if let Some(n) = args.parsed("--retries")?.map(NonZeroU32::get) {
        config.retry = RetryPolicy {
            max_attempts: n,
            ..RetryPolicy::default()
        };
    }
    let addr = match args.value("--addr") {
        Some(a) => a.to_string(),
        None => std::env::var("CONTOPT_SERVER").unwrap_or_else(|_| "127.0.0.1:4077".to_string()),
    };
    let client = Client::with_config(addr, config);

    if args.has("--ping") {
        let status = client
            .ping()
            .map_err(|e| format!("ping {}: {e}", client.addr()))?;
        println!(
            "contopt-server @ {}: protocol v{}, {} worker(s), cache {}/{} cells, {} in flight, {} lifetime simulations",
            client.addr(),
            status.protocol_version,
            status.jobs,
            status.cache_entries,
            status.cache_capacity,
            status.in_flight,
            status.total_simulations,
        );
        for ds in &status.downstreams {
            println!(
                "  downstream {}: {}, {} outstanding, {} lifetime forwarded",
                ds.address,
                if ds.healthy { "healthy" } else { "unhealthy" },
                ds.outstanding,
                ds.forwarded,
            );
        }
        return Ok(ExitCode::SUCCESS);
    }

    let scenarios = args.values("--scenario");
    if scenarios.is_empty() {
        return Err(format!("--scenario FILE is required\n\n{USAGE}"));
    }
    let goldens_dir = Path::new(args.value("--goldens").unwrap_or("goldens"));
    let policy = TolerancePolicy::allowing(args.values("--allow-field"));
    let mut worst = CheckOutcome::Ok;
    for file in scenarios {
        let outcome = run_one(&client, file, jobs, check, json, goldens_dir, &policy);
        worst = worst.merge(outcome.unwrap_or_else(|e| {
            eprintln!("contopt-client: {file}: {e}");
            CheckOutcome::Error
        }));
    }
    match worst {
        CheckOutcome::Drift => {
            eprintln!("contopt-client: golden drift detected against the recorded goldens")
        }
        CheckOutcome::MissingGolden => {
            eprintln!("contopt-client: goldens missing; record them locally with contopt-experiments --record")
        }
        _ => {}
    }
    Ok(ExitCode::from(worst.exit_code()))
}

/// Submits one scenario file and prints (or checks) its reports. An `Err`
/// (the file, the connection or a golden failed) reports no cell.
fn run_one(
    client: &Client,
    file: &str,
    jobs: Option<u64>,
    check: bool,
    json: bool,
    goldens_dir: &Path,
    policy: &TolerancePolicy,
) -> Result<CheckOutcome, Box<dyn Error>> {
    let sc = Scenario::load(file)?;
    let mut sweep = client.submit_scenario(&sc, jobs)?;
    let cells = sweep.fetch_reports()?;
    let status = sweep.status();
    let retries = sweep.retries();
    eprintln!(
        "contopt-client: scenario {:?} @ {}: {} cells ({} unique: {} simulated, {} cached, {} joined, {} failed{}); server lifetime {} simulations, {} cache entries{}",
        sc.name,
        client.addr(),
        status.results,
        status.unique,
        status.simulated,
        status.cache_hits,
        status.joined,
        status.errors,
        if status.forwarded > 0 {
            format!(", {} forwarded downstream", status.forwarded)
        } else {
            String::new()
        },
        status.total_simulations,
        status.cache_entries,
        if retries > 0 {
            format!("; recovered after {retries} retry(ies)")
        } else {
            String::new()
        },
    );

    // Per-cell server failures are reported up front and merged into the
    // outcome as errors; the successful siblings are still printed or
    // checked below — graceful degradation, not all-or-nothing.
    let mut outcome = CheckOutcome::Ok;
    let mut reports: Vec<&CellResult> = Vec::new();
    for cell in &cells {
        match cell {
            CellReply::Report(r) => reports.push(r),
            CellReply::Failed(e) => {
                eprintln!("contopt-client: {file}: {e}");
                outcome = outcome.merge(CheckOutcome::Error);
            }
        }
    }

    if check {
        let goldens: Vec<Golden> = reports
            .iter()
            .map(|cell| Golden {
                path: golden_path(goldens_dir, &sc.name, &cell.label, &cell.workload),
                text: cell.report.clone(),
            })
            .collect();
        let mut drifts = check_goldens(&goldens, policy)?;
        // A cell the server failed still pins its golden.
        let produced = cells
            .iter()
            .map(|c| golden_path(goldens_dir, &sc.name, c.label(), c.workload()));
        drifts.extend(unpinned_goldens(goldens_dir, &sc.name, produced)?);
        for drift in &drifts {
            println!("scenario {:?}: {drift}", sc.name);
        }
        if drifts.is_empty() && outcome == CheckOutcome::Ok {
            println!("scenario {:?}: goldens match", sc.name);
        }
        return Ok(outcome.merge(CheckOutcome::from_drifts(&drifts)));
    }
    if json {
        for cell in &reports {
            print!("{}", cell.report);
        }
    } else {
        print_table(&sc.name, &status, &reports);
    }
    Ok(outcome)
}

/// Renders the sweep as a compact summary table.
fn print_table(name: &str, status: &SweepStatus, cells: &[&CellResult]) {
    println!(
        "scenario {name:?} — {} cells, {} unique",
        status.results, status.unique
    );
    println!(
        "{:<16} {:<8} {:>12} {:>12} {:>6}  fingerprint",
        "label", "workload", "cycles", "retired", "ipc"
    );
    for cell in cells {
        let (cycles, retired, ipc) = match JsonValue::parse(&cell.report) {
            Ok(doc) => {
                let p = |key: &str| doc.get("pipeline").and_then(|p| p.get(key).cloned());
                (
                    p("cycles")
                        .and_then(|v| v.as_u64())
                        .map_or_else(|| "?".into(), |v| v.to_string()),
                    p("retired")
                        .and_then(|v| v.as_u64())
                        .map_or_else(|| "?".into(), |v| v.to_string()),
                    p("ipc")
                        .and_then(|v| v.as_f64())
                        .map_or_else(|| "?".into(), |v| format!("{v:.3}")),
                )
            }
            Err(_) => ("?".into(), "?".into(), "?".into()),
        };
        println!(
            "{:<16} {:<8} {cycles:>12} {retired:>12} {ipc:>6}  {}",
            cell.label, cell.workload, cell.fingerprint
        );
    }
}
