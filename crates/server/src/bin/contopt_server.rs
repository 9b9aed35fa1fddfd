//! `contopt-server` — the sweep-service daemon.

use contopt_server::{Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
contopt-server — serve contopt scenario sweeps over TCP

USAGE:
  contopt-server [OPTIONS]

OPTIONS (each at most once):
  --addr HOST:PORT        address to listen on (default 127.0.0.1:4077;
                          port 0 picks an ephemeral port)
  --jobs N                worker threads per request (default: all cores;
                          0 means the default)
  --cache N               result-cache capacity in cells (default 1024;
                          0 disables caching, in-flight dedup remains)
  --request-timeout SECS  per-connection read/write deadline (default 30;
                          0 disables the deadline)
  --port-file PATH        after binding, write the bound port to PATH —
                          lets scripts start on port 0 and discover the
                          real port without racing the daemon; the write
                          is atomic (temp file + rename), so pollers
                          never observe a partial port
  --downstream ADDRS      comma-separated HOST:PORT list of downstream
                          contopt-servers to federate sweeps across
                          (default: the CONTOPT_DOWNSTREAM environment
                          variable; empty = standalone). Each request's
                          cells are placed across the local pool and the
                          healthy downstreams; an unreachable downstream
                          drains while its cells run locally
  --help                  print this help

The server answers contopt-client submissions (see docs/PROTOCOL.md)
with canonical report JSON, deduplicating concurrent identical cells
and caching completed ones by configuration fingerprint. `ping`
requests are answered with a `server_status` health snapshot (including
downstream topology when federated). A cell whose simulation fails
degrades to a typed `cell_error` frame; its siblings still stream back.
";

/// Writes `port` to `path` atomically: temp file in the same directory,
/// then rename. A script polling `path` sees either nothing or the full
/// line, never a torn write.
fn write_port_file(path: &str, port: u16) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, format!("{port}\n"))?;
    std::fs::rename(&tmp, path)
}

/// The flags `contopt-server` knows; each takes one value and may be
/// given once.
const FLAGS: [&str; 6] = [
    "--addr",
    "--jobs",
    "--cache",
    "--request-timeout",
    "--port-file",
    "--downstream",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // An argument that begins with `--` is never a flag's value.
    let value_of = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .map(|i| args.get(i + 1).filter(|v| !v.starts_with("--")).cloned())
    };
    let bad = |msg: String| {
        eprintln!("contopt-server: {msg}");
        ExitCode::FAILURE
    };
    let mut seen = Vec::new();
    let mut rest = args.iter().peekable();
    while let Some(arg) = rest.next() {
        if !FLAGS.contains(&arg.as_str()) {
            return bad(if arg.starts_with("--") {
                format!("unknown flag {arg:?} (see --help)")
            } else {
                format!("unexpected argument {arg:?}: each flag takes one value")
            });
        }
        if seen.contains(&arg) {
            return bad(format!("{arg} may be given only once"));
        }
        seen.push(arg);
        rest.next_if(|v| !v.starts_with("--"));
    }

    let addr = match value_of("--addr") {
        Some(Some(a)) => a,
        Some(None) => return bad("--addr takes HOST:PORT".to_string()),
        None => "127.0.0.1:4077".to_string(),
    };
    let mut config = ServerConfig::default();
    match value_of("--jobs") {
        Some(Some(n)) => match n.parse::<usize>() {
            Ok(0) => {}
            Ok(n) => config.jobs = n,
            Err(_) => return bad(format!("--jobs takes a number, got {n:?}")),
        },
        Some(None) => return bad("--jobs takes a number".to_string()),
        None => {}
    }
    match value_of("--cache") {
        Some(Some(n)) => match n.parse::<usize>() {
            Ok(n) => config.cache_capacity = n,
            Err(_) => return bad(format!("--cache takes a number, got {n:?}")),
        },
        Some(None) => return bad("--cache takes a number".to_string()),
        None => {}
    }
    match value_of("--request-timeout") {
        Some(Some(n)) => match n.parse::<u64>() {
            Ok(0) => config.request_timeout = None,
            Ok(n) => config.request_timeout = Some(Duration::from_secs(n)),
            Err(_) => return bad(format!("--request-timeout takes seconds, got {n:?}")),
        },
        Some(None) => return bad("--request-timeout takes seconds".to_string()),
        None => {}
    }
    let port_file = match value_of("--port-file") {
        Some(Some(p)) => Some(p),
        Some(None) => return bad("--port-file takes a path".to_string()),
        None => None,
    };
    let downstreams = match value_of("--downstream") {
        Some(Some(list)) => list,
        Some(None) => return bad("--downstream takes HOST:PORT[,HOST:PORT…]".to_string()),
        None => std::env::var("CONTOPT_DOWNSTREAM").unwrap_or_default(),
    };
    config.federation.downstreams = downstreams
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();

    let jobs = config.jobs;
    let cache_capacity = config.cache_capacity;
    let request_timeout = config.request_timeout;
    let server = match Server::bind(&addr, config) {
        Ok(s) => s,
        Err(e) => return bad(format!("cannot bind {addr}: {e}")),
    };
    let bound = match server.local_addr() {
        Ok(a) => a,
        Err(e) => return bad(format!("cannot read bound address: {e}")),
    };
    if let Some(path) = port_file {
        if let Err(e) = write_port_file(&path, bound.port()) {
            return bad(format!("cannot write {path}: {e}"));
        }
    }
    eprintln!(
        "contopt-server: listening on {bound} ({jobs} worker(s), cache {cache_capacity} cells, request timeout {})",
        match request_timeout {
            Some(t) => format!("{}s", t.as_secs()),
            None => "off".to_string(),
        }
    );
    // A frontier probes its downstream tier once at startup so operators
    // see reachability immediately; unhealthy links re-probe on demand.
    for ds in server.engine().probe_downstreams() {
        eprintln!(
            "contopt-server: downstream {} is {}",
            ds.address,
            if ds.healthy { "healthy" } else { "unreachable" }
        );
    }
    match server.serve_forever() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => bad(format!("serve failed: {e}")),
    }
}
