//! `contopt-server` — the sweep-service daemon.

use contopt_server::{Server, ServerConfig};
use contopt_sim::cli::{Args, Flag, Takes::One};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
contopt-server — serve contopt scenario sweeps over TCP

USAGE:
  contopt-server [OPTIONS]

Each flag is given at most once. An unknown flag, an argument that no flag
takes, or a missing or malformed value exits 1 before the server binds. An
argument that begins with -- is never a value.

OPTIONS:
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

/// Every flag and the value it takes; every invocation reads each one.
const FLAGS: [Flag; 6] = [
    ("--addr", One("HOST:PORT"), ""),
    ("--jobs", One("a number"), ""),
    ("--cache", One("a number"), ""),
    ("--request-timeout", One("seconds"), ""),
    ("--port-file", One("a path"), ""),
    ("--downstream", One("HOST:PORT[,HOST:PORT…]"), ""),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match serve(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("contopt-server: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads the command line, binds and serves until the server stops; an
/// `Err` (a refusal, a bad flag value, a failed bind or serve) exits 1.
fn serve(args: &[String]) -> Result<(), String> {
    let args = Args::parse(args, &FLAGS)?;
    let addr = args.value("--addr").unwrap_or("127.0.0.1:4077");
    let mut config = ServerConfig::default();
    if let Some(n) = args.parsed("--jobs")?.filter(|&n| n > 0) {
        config.jobs = n;
    }
    if let Some(n) = args.parsed("--cache")? {
        config.cache_capacity = n;
    }
    if let Some(secs) = args.parsed("--request-timeout")? {
        config.request_timeout = (secs > 0).then(|| Duration::from_secs(secs));
    }
    let downstreams = match args.value("--downstream") {
        Some(list) => list.to_string(),
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
    let server = Server::bind(addr, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;
    if let Some(path) = args.value("--port-file") {
        write_port_file(path, bound.port()).map_err(|e| format!("cannot write {path}: {e}"))?;
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
    server
        .serve_forever()
        .map_err(|e| format!("serve failed: {e}"))
}
