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
use contopt_sim::{JsonValue, Scenario};
use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
contopt-client — submit sweeps to a contopt sweep server

USAGE:
  contopt-client --scenario FILE [OPTIONS]
  contopt-client --ping [--addr HOST:PORT] [--timeout SECS]

OPTIONS (each applies only to the runs listed with it, and only a repeatable
one may be given twice; otherwise it exits 3):
  --addr HOST:PORT         server to submit to (default: CONTOPT_SERVER
                           env var, else 127.0.0.1:4077)
  --scenario FILE          scenario file to submit (repeatable)
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
  --allow-field PATH       --check: a JSON field path allowed to differ
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

/// Flags that take one value each.
const VALUE_FLAGS: [&str; 7] = [
    "--addr",
    "--scenario",
    "--jobs",
    "--timeout",
    "--retries",
    "--goldens",
    "--allow-field",
];

/// Why the invocation is refused before connecting: an argument that is
/// neither a known flag nor a flag's value, a second occurrence of a flag
/// other than `--scenario` and `--allow-field` (the only ones that
/// repeat), or a flag that the run does not read. A ping reads only
/// `--addr` and `--timeout`, and only a check reads `--goldens` and
/// `--allow-field`, while it prints no `--json`.
fn refusal(args: &[String]) -> Option<String> {
    let mut seen = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if VALUE_FLAGS.contains(&arg.as_str()) {
            rest.next();
        } else if !arg.starts_with("--") {
            return Some(format!(
                "unexpected argument {arg:?}: each --scenario takes one file"
            ));
        } else if !["--ping", "--check", "--json"].contains(&arg.as_str()) {
            return Some(format!("unknown flag {arg:?} (see --help)"));
        }
        if seen.contains(&arg) && !["--scenario", "--allow-field"].contains(&arg.as_str()) {
            return Some(format!("{arg} may be given only once"));
        }
        seen.push(arg);
    }
    let given = |flag: &&str| args.iter().any(|a| a == flag);
    let (run, unread) = if given(&"--ping") {
        (
            "a --ping run",
            "--scenario --check --json --goldens --allow-field --jobs --retries",
        )
    } else if given(&"--check") {
        ("a --check run", "--json")
    } else {
        ("a run without --check", "--goldens --allow-field")
    };
    let flag = unread.split(' ').find(given)?;
    Some(format!("{flag} does not apply to {run}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let flag = |name: &str| args.iter().any(|a| a == name);
    let value_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).cloned())
    };
    let bad = |msg: &str| {
        eprintln!("contopt-client: {msg}");
        ExitCode::from(CheckOutcome::Error.exit_code())
    };
    if let Some(refusal) = refusal(&args) {
        return bad(&refusal);
    }

    let addr = match value_of("--addr") {
        Some(Some(a)) => a,
        Some(None) => return bad("--addr takes HOST:PORT"),
        None => std::env::var("CONTOPT_SERVER").unwrap_or_else(|_| "127.0.0.1:4077".to_string()),
    };
    let jobs = match value_of("--jobs") {
        Some(Some(n)) => match n.parse::<u64>() {
            Ok(n) => Some(n),
            Err(_) => return bad(&format!("--jobs takes a number, got {n:?}")),
        },
        Some(None) => return bad("--jobs takes a number"),
        None => None,
    };
    let mut config = ClientConfig::default();
    match value_of("--timeout") {
        Some(Some(n)) => match n.parse::<u64>() {
            Ok(0) => config.io_timeout = None,
            Ok(n) => config.io_timeout = Some(Duration::from_secs(n)),
            Err(_) => return bad(&format!("--timeout takes seconds, got {n:?}")),
        },
        Some(None) => return bad("--timeout takes seconds"),
        None => {}
    }
    match value_of("--retries") {
        Some(Some(n)) => match n.parse::<u32>() {
            Ok(0) => return bad("--retries must be at least 1"),
            Ok(n) => {
                config.retry = RetryPolicy {
                    max_attempts: n,
                    ..RetryPolicy::default()
                }
            }
            Err(_) => return bad(&format!("--retries takes a number, got {n:?}")),
        },
        Some(None) => return bad("--retries takes a number"),
        None => {}
    }
    let goldens_dir = match value_of("--goldens") {
        Some(Some(d)) => d,
        Some(None) => return bad("--goldens takes a directory"),
        None => "goldens".to_string(),
    };
    let mut allow_fields = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == "--allow-field" {
            match args.get(i + 1) {
                Some(path) => allow_fields.push(path.clone()),
                None => return bad("--allow-field takes a JSON field path"),
            }
        }
    }
    let policy = TolerancePolicy::allowing(allow_fields);

    let client = Client::with_config(addr, config);

    if flag("--ping") {
        return match client.ping() {
            Ok(status) => {
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
                ExitCode::SUCCESS
            }
            Err(e) => bad(&format!("ping {}: {e}", client.addr())),
        };
    }

    let scenarios: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--scenario")
        .filter_map(|(i, _)| args.get(i + 1))
        .collect();
    if scenarios.is_empty() {
        eprintln!("contopt-client: --scenario FILE is required\n\n{USAGE}");
        return ExitCode::from(CheckOutcome::Error.exit_code());
    }

    let (check, json) = (flag("--check"), flag("--json"));
    let goldens_dir = Path::new(&goldens_dir);
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
    ExitCode::from(worst.exit_code())
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
