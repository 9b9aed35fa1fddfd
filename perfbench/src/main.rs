//! The contopt repository benchmark.
//!
//! Times the fig9 sweep and a stall-heavy baseline set, and — in a
//! separate traced invocation that also serves the cells from a loopback
//! sweep server — every simulator and service layer, by calling each
//! layer's public functions from outside the program. See
//! `perfbench/README.md` for the workloads, the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <fig9_local|stall_base> [--seed N]
//!           [--seconds S] [--trace 0|1] [--insts N]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any failed cell makes the process exit with status 1.

mod cells;
mod measure;
mod stamp;
mod traced;

use cells::Workload;
use contopt_sim::JsonValue;
use std::process::ExitCode;
use std::time::Duration;

/// The workload seed used when `--seed` is not given. A gain found on it
/// should be re-checked on another seed.
const DEFAULT_SEED: u64 = 2005;

const USAGE: &str = "usage: perfbench --workload <fig9_local|stall_base> \
[--seed N] [--seconds S] [--trace 0|1] [--insts N]";

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Permutes cell order and warm resubmission order.
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: Duration,
    /// Run the traced per-layer invocation instead.
    pub trace: bool,
    /// Overrides fig9's instruction budget (self-test only; reports are
    /// then checked against a first in-process run, not the goldens).
    pub insts: Option<u64>,
    /// Only set the workload up, then exit: the process `setup_s` times.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut insts = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--insts" => insts = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        insts,
        setup_only,
    })
}

/// One reported metric.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one invocation measured and checked.
pub struct Outcome {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Cells attempted and failed over every pass.
    pub tally: cells::Tally,
}

/// The median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn result_json(outcome: &Outcome) -> JsonValue {
    let metrics = outcome.metrics.iter().map(|m| {
        let value = JsonValue::obj([("value", m.value.into()), ("unit", m.unit.into())]);
        (m.name.clone(), value)
    });
    JsonValue::obj([
        ("correct", (outcome.tally.failed == 0).into()),
        ("attempted", outcome.tally.attempted.into()),
        ("failed", outcome.tally.failed.into()),
        ("metrics", JsonValue::obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match measure::setup(&args) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let stamp = stamp::collect(&args);
    println!("{}", JsonValue::obj([("stamp", stamp.clone())]));
    let outcome = if args.trace {
        traced::run(&args, stamp)
    } else {
        measure::run(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a finite number", m.name);
        return ExitCode::from(2);
    }
    for m in &outcome.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "cells: {} attempted, {} failed",
        outcome.tally.attempted, outcome.tally.failed
    );
    println!("{}", result_json(&outcome));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
