//! The sweep-service wire protocol: length-prefixed JSON over TCP.
//!
//! Both sides of the service — `contopt-server` and the client SDK —
//! speak this module and nothing else, so the protocol cannot drift
//! between them. A connection carries exactly one request and its
//! response stream:
//!
//! ```text
//! client                                      server
//!   │ ── SubmitScenario / SubmitPlan ────────▶ │
//!   │ ◀── SweepStatus ───────────────────────  │   (or Error)
//!   │ ◀── CellResult | CellError × results ──  │
//!
//!   │ ── Ping ───────────────────────────────▶ │
//!   │ ◀── ServerStatus ──────────────────────  │
//! ```
//!
//! A failing cell no longer fails the sweep: the server streams a
//! [`CellError`] frame for it while every sibling cell still arrives as
//! a [`CellResult`] (graceful degradation). [`Ping`](Message::Ping) /
//! [`ServerStatus`](Message::ServerStatus) is a liveness probe for
//! scripts and load balancers. Both are *additive* version-1
//! extensions: the framing, the version check, and every pre-existing
//! payload are unchanged (see `docs/PROTOCOL.md`).
//!
//! The same protocol federates: a frontier `contopt-server` started
//! with `--downstream` forwards deduplicated cells to downstream
//! servers as ordinary [`SubmitPlan`](Message::SubmitPlan) requests
//! (shipping any text-authored programs inline), and reports its
//! topology through the `downstreams` block of
//! [`ServerStatus`](Message::ServerStatus) and the `forwarded` counter
//! of [`SweepStatus`](Message::SweepStatus) — all additive v1
//! extensions too.
//!
//! # Framing
//!
//! Every message is one *frame*: a 4-byte big-endian payload length
//! followed by that many bytes of compact JSON. Frames larger than
//! [`MAX_FRAME_LEN`] are rejected on both sides before any allocation.
//! Each payload is an object carrying `"v"` ([`PROTOCOL_VERSION`]) and a
//! `"type"` tag; a version mismatch is a typed error, never a
//! misinterpretation, so old clients fail loudly against new servers.
//!
//! # Payload fidelity
//!
//! Machine configurations travel as the same canonical JSON the scenario
//! files use ([`machine_to_json`] / [`machine_from_json`]), and each
//! [`CellResult`] carries the cell's canonical `Report` serialization as
//! an opaque *string* — the exact bytes the server's golden harness would
//! write locally — so a remote `--check` can byte-compare without any
//! re-serialization step that could perturb formatting.

use contopt_sim::{
    machine_from_json, machine_to_json, Expected, Fields, JsonError, JsonValue, MachineConfig,
    ProgramSpec, Scenario, ScenarioError, ToJson,
};
use std::fmt;
use std::io::{self, Read, Write};

/// The protocol version this build speaks. Bump on any incompatible
/// framing or payload change; both sides reject other versions with a
/// typed error.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on one frame's JSON payload, enforced before allocating
/// the receive buffer. Generous: a full-figure sweep's largest frame is
/// a few kilobytes.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// One `(label, machine, workload)` cell of a raw-plan submission.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCell {
    /// Caller-chosen label echoed back in the matching [`CellResult`].
    pub label: String,
    /// The machine configuration to simulate.
    pub machine: MachineConfig,
    /// A Table 1 workload short name.
    pub workload: String,
}

/// What the server did to satisfy a sweep, and how much of it was free.
///
/// `simulated + cache_hits + joined + errors == unique`: every unique
/// cell was either freshly simulated by this request, served from the
/// result cache, *joined* — another client's in-flight simulation of the
/// same fingerprint was awaited instead of duplicated — or failed with a
/// typed per-cell error.
///
/// On a federated frontier the invariant holds *tier-wide*: cells
/// answered by downstream servers fold their downstream `simulated` /
/// `cache_hits` / `joined` into the same counters, and [`forwarded`]
/// (additive v1 extension, default 0 on parse) reports how many unique
/// cells a downstream answered.
///
/// [`forwarded`]: SweepStatus::forwarded
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStatus {
    /// Number of per-cell frames ([`CellResult`] or [`CellError`]) that
    /// follow, one per requested cell in declaration order (duplicates
    /// included).
    pub results: u64,
    /// Unique cells after fingerprint deduplication.
    pub unique: u64,
    /// Unique cells this request simulated fresh.
    pub simulated: u64,
    /// Unique cells served from the completed-result cache.
    pub cache_hits: u64,
    /// Unique cells that waited on another request's in-flight
    /// simulation of the same fingerprint.
    pub joined: u64,
    /// Unique cells that failed (simulation panic or internal fault);
    /// each is reported as a [`CellError`] frame, while every sibling
    /// cell still arrives normally.
    pub errors: u64,
    /// Unique cells whose reports came from a downstream server of a
    /// federated frontier (each also counted once in `simulated`,
    /// `cache_hits`, or `joined`, per what the downstream did). Always 0
    /// on a standalone server.
    pub forwarded: u64,
    /// Server-lifetime count of simulations performed, across all
    /// clients. A repeated submission that was served entirely from
    /// cache leaves this unchanged.
    pub total_simulations: u64,
    /// Entries currently held in the server's result cache.
    pub cache_entries: u64,
}

/// One simulated cell's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// The configuration label (scenario label, or [`PlanCell::label`]).
    pub label: String,
    /// The workload short name.
    pub workload: String,
    /// The cell's behavioural fingerprint
    /// ([`CellKey::fingerprint`](contopt_sim::CellKey::fingerprint)) —
    /// the server's result-cache key in hex form.
    pub fingerprint: String,
    /// The canonical `Report` JSON, byte-for-byte as
    /// `Report::canonical_json` produced it on the server.
    pub report: String,
}

/// One cell's typed failure. Sent in a [`CellResult`]'s position so the
/// remaining cells of the sweep still stream back — a panicking
/// simulation degrades one cell, not the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The configuration label of the failed cell.
    pub label: String,
    /// The workload short name of the failed cell.
    pub workload: String,
    /// The cell's behavioural fingerprint
    /// ([`CellKey::fingerprint`](contopt_sim::CellKey::fingerprint)).
    pub fingerprint: String,
    /// A stable machine-readable cause (`"panic"`, `"internal"`).
    pub code: String,
    /// Human-readable detail (e.g. the panic message).
    pub message: String,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {}/{} failed [{}]: {}",
            self.label, self.workload, self.code, self.message
        )
    }
}

/// One per-cell reply frame: the cell's report, or its typed failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellReply {
    /// The cell simulated (or was served from cache) successfully.
    Report(CellResult),
    /// The cell failed; its siblings were still delivered.
    Failed(CellError),
}

impl CellReply {
    /// The configuration label, whichever way the cell went.
    pub fn label(&self) -> &str {
        match self {
            CellReply::Report(r) => &r.label,
            CellReply::Failed(e) => &e.label,
        }
    }

    /// The workload short name, whichever way the cell went.
    pub fn workload(&self) -> &str {
        match self {
            CellReply::Report(r) => &r.workload,
            CellReply::Failed(e) => &e.workload,
        }
    }

    /// The successful report, if any.
    pub fn report(&self) -> Option<&CellResult> {
        match self {
            CellReply::Report(r) => Some(r),
            CellReply::Failed(_) => None,
        }
    }

    /// The typed failure, if any.
    pub fn failure(&self) -> Option<&CellError> {
        match self {
            CellReply::Report(_) => None,
            CellReply::Failed(e) => Some(e),
        }
    }

    /// Converts into a `Result`, for callers that treat any cell failure
    /// as an error.
    pub fn into_result(self) -> Result<CellResult, CellError> {
        match self {
            CellReply::Report(r) => Ok(r),
            CellReply::Failed(e) => Err(e),
        }
    }
}

/// One downstream link's slice of a federated server's
/// [`ServerStatus`]: identity, health, and lifetime traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DownstreamStatus {
    /// The downstream server's `HOST:PORT` address as configured.
    pub address: String,
    /// Whether the frontier currently considers the link usable. An
    /// unhealthy link drains (receives no new cells) until a background
    /// re-probe succeeds.
    pub healthy: bool,
    /// Cells currently forwarded to this downstream and not yet
    /// answered.
    pub outstanding: u64,
    /// Lifetime count of cells this link has forwarded.
    pub forwarded: u64,
}

impl DownstreamStatus {
    fn from_json(doc: &JsonValue, at: &str) -> Result<DownstreamStatus, Expected> {
        let f = Fields::lenient(doc, at);
        Ok(DownstreamStatus {
            address: f.req("address", JsonValue::as_str, "a string")?.to_string(),
            healthy: f.req("healthy", JsonValue::as_bool, "a boolean")?,
            outstanding: f.req("outstanding", JsonValue::as_u64, UINT)?,
            forwarded: f.req("forwarded", JsonValue::as_u64, UINT)?,
        })
    }
}

impl ToJson for DownstreamStatus {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("address", self.address.as_str().into()),
            ("healthy", self.healthy.into()),
            ("outstanding", self.outstanding.into()),
            ("forwarded", self.forwarded.into()),
        ])
    }
}

/// The server's health-check reply to a [`Ping`](Message::Ping):
/// configuration and lifetime counters, cheap enough for tight liveness
/// probing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStatus {
    /// The protocol version the server speaks ([`PROTOCOL_VERSION`]).
    pub protocol_version: u64,
    /// Worker threads available per request.
    pub jobs: u64,
    /// Result-cache capacity, in cells (`0` = caching disabled).
    pub cache_capacity: u64,
    /// Entries currently held in the result cache.
    pub cache_entries: u64,
    /// Cells currently being simulated, across all requests.
    pub in_flight: u64,
    /// Lifetime count of simulations performed.
    pub total_simulations: u64,
    /// Downstream federation topology, one entry per configured link
    /// (additive v1 extension: omitted from the wire when empty, so a
    /// standalone server's status frames are byte-identical to
    /// pre-federation builds; defaults to empty on parse).
    pub downstreams: Vec<DownstreamStatus>,
}

/// A server-reported failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// A stable machine-readable cause (`"bad-request"`, `"version"`,
    /// `"internal"`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server error [{}]: {}", self.code, self.message)
    }
}

/// Every message either side can frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: execute a full scenario sweep.
    SubmitScenario {
        /// Worker-count hint for this sweep; the server clamps it to its
        /// own pool size. `None` means "the server's default".
        jobs: Option<u64>,
        /// The sweep, in the checked-in scenario-file format (including
        /// its own `"version"` field); validated on receipt.
        scenario: Scenario,
    },
    /// Client → server: execute a raw list of cells under one budget.
    SubmitPlan {
        /// Worker-count hint, as for
        /// [`SubmitScenario`](Self::SubmitScenario).
        jobs: Option<u64>,
        /// Dynamic-instruction budget per cell.
        insts: u64,
        /// The cells, in the order results should come back.
        cells: Vec<PlanCell>,
        /// Text-authored programs shipped with the plan (usually empty).
        /// Cell workload names resolve against these before Table 1, as
        /// in a scenario's `"programs"` block. Sources must be inline —
        /// a `"file"` path is meaningless on the receiving host — and
        /// each program is assembled and verified under its
        /// [`VerifyPolicy`](contopt_sim::VerifyPolicy) at the protocol
        /// boundary. Omitted from the wire when empty, so plans without
        /// programs are byte-identical to pre-federation builds.
        programs: Vec<ProgramSpec>,
    },
    /// Server → client: the sweep completed; results follow.
    SweepStatus(SweepStatus),
    /// Server → client: one cell's report.
    CellResult(CellResult),
    /// Server → client: one cell's typed failure; sibling cells still
    /// stream back around it.
    CellError(CellError),
    /// Client → server: liveness probe; the server answers with
    /// [`ServerStatus`](Self::ServerStatus) and closes.
    Ping,
    /// Server → client: health-check reply to [`Ping`](Self::Ping).
    ServerStatus(ServerStatus),
    /// Server → client: the request failed; the connection closes.
    Error(WireError),
}

/// A protocol failure: transport, framing, or payload.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying stream failed.
    Io(io::Error),
    /// A frame declared a payload beyond [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// A frame's payload was not valid UTF-8 JSON.
    Json(JsonError),
    /// The payload was not valid UTF-8.
    Utf8,
    /// A structurally malformed message object.
    Malformed {
        /// Path to the offending value (`cells[1].machine`).
        at: String,
        /// What was required there.
        what: &'static str,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch(u64),
    /// An unrecognized `"type"` tag.
    UnknownType(String),
    /// An embedded scenario or machine block failed to parse or
    /// validate.
    Scenario(ScenarioError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "connection failed: {e}"),
            ProtocolError::FrameTooLarge(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
                )
            }
            ProtocolError::Json(e) => write!(f, "frame payload is not valid JSON: {e}"),
            ProtocolError::Utf8 => write!(f, "frame payload is not valid UTF-8"),
            ProtocolError::Malformed { at, what } => {
                write!(f, "malformed message: expected {what} at {at}")
            }
            ProtocolError::VersionMismatch(v) => write!(
                f,
                "peer speaks protocol version {v} (this build speaks {PROTOCOL_VERSION})"
            ),
            ProtocolError::UnknownType(t) => write!(f, "unknown message type {t:?}"),
            ProtocolError::Scenario(e) => write!(f, "invalid scenario payload: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> ProtocolError {
        ProtocolError::Json(e)
    }
}

impl From<ScenarioError> for ProtocolError {
    fn from(e: ScenarioError) -> ProtocolError {
        ProtocolError::Scenario(e)
    }
}

impl From<Expected> for ProtocolError {
    fn from(Expected { at, what }: Expected) -> ProtocolError {
        ProtocolError::Malformed { at, what }
    }
}

/// What a wire error says an integer field must be.
const UINT: &str = "an unsigned integer";

fn malformed(at: impl Into<String>, what: &'static str) -> ProtocolError {
    ProtocolError::Malformed {
        at: at.into(),
        what,
    }
}

impl ToJson for SweepStatus {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("results", self.results.into()),
            ("unique", self.unique.into()),
            ("simulated", self.simulated.into()),
            ("cache_hits", self.cache_hits.into()),
            ("joined", self.joined.into()),
            ("errors", self.errors.into()),
            ("forwarded", self.forwarded.into()),
            ("total_simulations", self.total_simulations.into()),
            ("cache_entries", self.cache_entries.into()),
        ])
    }
}

impl SweepStatus {
    fn from_json(f: &Fields) -> Result<SweepStatus, Expected> {
        let count = |key| f.req(key, JsonValue::as_u64, UINT);
        // Additive v1 extensions default to 0: pre-hardening servers could
        // not fail per cell, and pre-federation servers never forwarded.
        let added = |key| {
            f.opt(key, JsonValue::as_u64, UINT)
                .map(Option::unwrap_or_default)
        };
        Ok(SweepStatus {
            results: count("results")?,
            unique: count("unique")?,
            simulated: count("simulated")?,
            cache_hits: count("cache_hits")?,
            joined: count("joined")?,
            errors: added("errors")?,
            forwarded: added("forwarded")?,
            total_simulations: count("total_simulations")?,
            cache_entries: count("cache_entries")?,
        })
    }
}

impl ToJson for ServerStatus {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("protocol_version", JsonValue::from(self.protocol_version)),
            ("jobs", self.jobs.into()),
            ("cache_capacity", self.cache_capacity.into()),
            ("cache_entries", self.cache_entries.into()),
            ("in_flight", self.in_flight.into()),
            ("total_simulations", self.total_simulations.into()),
        ];
        if !self.downstreams.is_empty() {
            fields.push((
                "downstreams",
                JsonValue::arr(self.downstreams.iter().map(ToJson::to_json)),
            ));
        }
        JsonValue::obj(fields)
    }
}

impl ServerStatus {
    fn from_json(f: &Fields) -> Result<ServerStatus, Expected> {
        let count = |key| f.req(key, JsonValue::as_u64, UINT);
        Ok(ServerStatus {
            // Additive v1 extension: standalone (and pre-federation)
            // servers omit the topology entirely — default to none.
            downstreams: f
                .items("downstreams", DownstreamStatus::from_json)?
                .unwrap_or_default(),
            protocol_version: count("protocol_version")?,
            jobs: count("jobs")?,
            cache_capacity: count("cache_capacity")?,
            cache_entries: count("cache_entries")?,
            in_flight: count("in_flight")?,
            total_simulations: count("total_simulations")?,
        })
    }
}

impl PlanCell {
    fn from_json(doc: &JsonValue, at: &str) -> Result<PlanCell, ProtocolError> {
        let f = Fields::lenient(doc, at);
        let text = |key| {
            f.req(key, JsonValue::as_str, "a string")
                .map(str::to_string)
        };
        Ok(PlanCell {
            label: text("label")?,
            workload: text("workload")?,
            machine: machine_from_json(
                f.req("machine", Some, "a machine object")?,
                &f.path("machine"),
            )?,
        })
    }
}

impl Message {
    /// The message's `"type"` tag.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Message::SubmitScenario { .. } => "submit_scenario",
            Message::SubmitPlan { .. } => "submit_plan",
            Message::SweepStatus(_) => "sweep_status",
            Message::CellResult(_) => "cell_result",
            Message::CellError(_) => "cell_error",
            Message::Ping => "ping",
            Message::ServerStatus(_) => "server_status",
            Message::Error(_) => "error",
        }
    }

    /// Serializes the message as one versioned payload object.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("v".to_string(), JsonValue::from(PROTOCOL_VERSION)),
            ("type".to_string(), self.type_tag().into()),
        ];
        match self {
            Message::SubmitScenario { jobs, scenario } => {
                if let Some(j) = jobs {
                    fields.push(("jobs".into(), (*j).into()));
                }
                fields.push(("scenario".into(), scenario.to_json()));
            }
            Message::SubmitPlan {
                jobs,
                insts,
                cells,
                programs,
            } => {
                if let Some(j) = jobs {
                    fields.push(("jobs".into(), (*j).into()));
                }
                fields.push(("insts".into(), (*insts).into()));
                fields.push((
                    "cells".into(),
                    JsonValue::arr(cells.iter().map(|c| {
                        JsonValue::obj([
                            ("label", c.label.as_str().into()),
                            ("workload", c.workload.as_str().into()),
                            ("machine", machine_to_json(&c.machine)),
                        ])
                    })),
                ));
                if !programs.is_empty() {
                    fields.push((
                        "programs".into(),
                        JsonValue::arr(programs.iter().map(ToJson::to_json)),
                    ));
                }
            }
            Message::SweepStatus(status) => {
                let JsonValue::Object(inner) = status.to_json() else {
                    unreachable!("SweepStatus serializes as an object");
                };
                fields.extend(inner);
            }
            Message::CellResult(cell) => {
                fields.extend([
                    ("label".to_string(), cell.label.as_str().into()),
                    ("workload".to_string(), cell.workload.as_str().into()),
                    ("fingerprint".to_string(), cell.fingerprint.as_str().into()),
                    ("report".to_string(), cell.report.as_str().into()),
                ]);
            }
            Message::CellError(e) => {
                fields.extend([
                    ("label".to_string(), e.label.as_str().into()),
                    ("workload".to_string(), e.workload.as_str().into()),
                    ("fingerprint".to_string(), e.fingerprint.as_str().into()),
                    ("code".to_string(), e.code.as_str().into()),
                    ("message".to_string(), e.message.as_str().into()),
                ]);
            }
            Message::Ping => {}
            Message::ServerStatus(status) => {
                let JsonValue::Object(inner) = status.to_json() else {
                    unreachable!("ServerStatus serializes as an object");
                };
                fields.extend(inner);
            }
            Message::Error(e) => {
                fields.extend([
                    ("code".to_string(), e.code.as_str().into()),
                    ("message".to_string(), e.message.as_str().into()),
                ]);
            }
        }
        JsonValue::Object(fields)
    }

    /// Parses and validates one payload object.
    ///
    /// An embedded scenario is fully validated (workload names, label
    /// uniqueness, budget) so a malformed submission is rejected at the
    /// protocol boundary, before any simulation is planned. Keys this
    /// build does not read are ignored, since v1 fields are additive.
    pub fn from_json(doc: &JsonValue) -> Result<Message, ProtocolError> {
        let f = Fields::of(doc, "payload").ok_or_else(|| malformed("payload", "an object"))?;
        let v = f.req("v", JsonValue::as_u64, UINT)?;
        if v != PROTOCOL_VERSION {
            return Err(ProtocolError::VersionMismatch(v));
        }
        let tag = f.req("type", JsonValue::as_str, "a string")?;
        let jobs = f.opt("jobs", JsonValue::as_u64, UINT)?;
        let text = |key| {
            f.req(key, JsonValue::as_str, "a string")
                .map(str::to_string)
        };
        match tag {
            // Shipped programs must be self-contained on the wire: a
            // "file" path cannot resolve on the receiving host (senders
            // inline first — Scenario::with_inlined_programs).
            "submit_scenario" => Ok(Message::SubmitScenario {
                jobs,
                scenario: Scenario::decode(f.req("scenario", Some, "a scenario object")?, None)?,
            }),
            "submit_plan" => Ok(Message::SubmitPlan {
                jobs,
                insts: f.req("insts", JsonValue::as_u64, UINT)?,
                cells: f
                    .items("cells", PlanCell::from_json)?
                    .ok_or_else(|| malformed("payload.cells", "an array"))?,
                // Wire programs carry inline text; enforce each one's
                // verification policy right at the boundary, before any
                // simulation is planned.
                programs: f
                    .items("programs", |item, at| {
                        let spec = ProgramSpec::from_json(item, at, None)?;
                        spec.verify_under_policy()?;
                        Ok::<_, ProtocolError>(spec)
                    })?
                    .unwrap_or_default(),
            }),
            "sweep_status" => Ok(Message::SweepStatus(SweepStatus::from_json(&f)?)),
            "cell_result" => Ok(Message::CellResult(CellResult {
                label: text("label")?,
                workload: text("workload")?,
                fingerprint: text("fingerprint")?,
                report: text("report")?,
            })),
            "cell_error" => Ok(Message::CellError(CellError {
                label: text("label")?,
                workload: text("workload")?,
                fingerprint: text("fingerprint")?,
                code: text("code")?,
                message: text("message")?,
            })),
            "ping" => Ok(Message::Ping),
            "server_status" => Ok(Message::ServerStatus(ServerStatus::from_json(&f)?)),
            "error" => Ok(Message::Error(WireError {
                code: text("code")?,
                message: text("message")?,
            })),
            other => Err(ProtocolError::UnknownType(other.to_string())),
        }
    }
}

/// Writes one framed message and flushes.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> Result<(), ProtocolError> {
    let text = msg.to_json().to_string();
    let bytes = text.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(bytes.len()));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()?;
    Ok(())
}

/// Reads one framed message.
pub fn read_frame(r: &mut impl Read) -> Result<Message, ProtocolError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let text = String::from_utf8(buf).map_err(|_| ProtocolError::Utf8)?;
    let doc = JsonValue::parse(&text)?;
    Message::from_json(&doc)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use contopt_sim::isa::asm_text;
    use contopt_sim::ScenarioConfig;

    fn smoke_like_scenario() -> Scenario {
        Scenario {
            name: "wire".into(),
            insts: 50_000,
            ablation: None,
            programs: vec![],
            configs: vec![
                ScenarioConfig {
                    label: "baseline".into(),
                    machine: MachineConfig::default_paper(),
                    workloads: vec!["twf".into()],
                },
                ScenarioConfig {
                    label: "optimized".into(),
                    machine: MachineConfig::default_with_optimizer(),
                    workloads: vec!["twf".into(), "untst".into()],
                },
            ],
        }
    }

    fn round_trip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).unwrap();
        read_frame(&mut &buf[..]).unwrap()
    }

    #[test]
    fn every_message_round_trips_through_a_frame() {
        let messages = [
            Message::SubmitScenario {
                jobs: Some(2),
                scenario: smoke_like_scenario(),
            },
            Message::SubmitScenario {
                jobs: None,
                scenario: smoke_like_scenario(),
            },
            Message::SubmitPlan {
                jobs: None,
                insts: 10_000,
                cells: vec![PlanCell {
                    label: "base".into(),
                    machine: MachineConfig::default_paper(),
                    workload: "mcf".into(),
                }],
                programs: vec![],
            },
            Message::SubmitPlan {
                jobs: None,
                insts: 10_000,
                cells: vec![PlanCell {
                    label: "base".into(),
                    machine: MachineConfig::default_paper(),
                    workload: "ktwf".into(),
                }],
                programs: vec![ProgramSpec::inline(
                    "ktwf",
                    asm_text::emit(&contopt_sim::workloads::build("twf").unwrap().program),
                )
                .unwrap()],
            },
            Message::SweepStatus(SweepStatus {
                results: 4,
                unique: 3,
                simulated: 1,
                cache_hits: 1,
                joined: 0,
                errors: 1,
                forwarded: 1,
                total_simulations: 17,
                cache_entries: 9,
            }),
            Message::CellResult(CellResult {
                label: "baseline".into(),
                workload: "twf".into(),
                fingerprint: "0123456789abcdef".into(),
                report: "{\n  \"pipeline\": {}\n}\n".into(),
            }),
            Message::CellError(CellError {
                label: "optimized".into(),
                workload: "untst".into(),
                fingerprint: "fedcba9876543210".into(),
                code: "panic".into(),
                message: "index out of bounds: the len is 4".into(),
            }),
            Message::Ping,
            Message::ServerStatus(ServerStatus {
                protocol_version: PROTOCOL_VERSION,
                jobs: 8,
                cache_capacity: 1024,
                cache_entries: 12,
                in_flight: 3,
                total_simulations: 99,
                downstreams: vec![],
            }),
            Message::ServerStatus(ServerStatus {
                protocol_version: PROTOCOL_VERSION,
                jobs: 8,
                cache_capacity: 1024,
                cache_entries: 12,
                in_flight: 3,
                total_simulations: 99,
                downstreams: vec![
                    DownstreamStatus {
                        address: "10.0.0.2:7070".into(),
                        healthy: true,
                        outstanding: 2,
                        forwarded: 41,
                    },
                    DownstreamStatus {
                        address: "10.0.0.3:7070".into(),
                        healthy: false,
                        outstanding: 0,
                        forwarded: 7,
                    },
                ],
            }),
            Message::Error(WireError {
                code: "bad-request".into(),
                message: "no such workload \"nope\"".into(),
            }),
        ];
        for msg in &messages {
            let back = round_trip(msg);
            // Optimizer blocks normalize in flight (machine_to_json is
            // canonical); everything else must be exactly preserved.
            match (msg, &back) {
                (
                    Message::SubmitScenario {
                        scenario: a,
                        jobs: ja,
                    },
                    Message::SubmitScenario {
                        scenario: b,
                        jobs: jb,
                    },
                ) => {
                    assert_eq!(ja, jb);
                    assert_eq!(&a.normalized(), b);
                }
                (
                    Message::SubmitPlan {
                        cells: a,
                        programs: pa,
                        ..
                    },
                    Message::SubmitPlan {
                        cells: b,
                        programs: pb,
                        ..
                    },
                ) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.label, y.label);
                        assert_eq!(x.workload, y.workload);
                        let mut normalized = x.machine;
                        normalized.optimizer = normalized.optimizer.normalized();
                        assert_eq!(normalized, y.machine);
                    }
                    // Shipped programs re-assemble on parse to the same
                    // Program (parse ∘ emit is the identity).
                    assert_eq!(pa, pb);
                }
                _ => assert_eq!(msg, &back, "{}", msg.type_tag()),
            }
        }
    }

    #[test]
    fn report_text_survives_byte_exact() {
        // The report travels as an opaque string: every byte — newlines,
        // indentation, trailing newline — must come back identical.
        let report = "{\n  \"x\": 1.0,\n  \"s\": \"q\\\"uote\"\n}\n";
        let msg = Message::CellResult(CellResult {
            label: "l".into(),
            workload: "w".into(),
            fingerprint: "f".into(),
            report: report.into(),
        });
        let Message::CellResult(back) = round_trip(&msg) else {
            panic!("wrong type back");
        };
        assert_eq!(back.report, report);
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let doc =
            JsonValue::parse(r#"{"v": 99, "type": "error", "code": "x", "message": "y"}"#).unwrap();
        assert!(matches!(
            Message::from_json(&doc),
            Err(ProtocolError::VersionMismatch(99))
        ));
        // The version check precedes the type dispatch, so the new
        // additive messages reject foreign versions exactly like the
        // original five — no misparse path was introduced.
        for payload in [
            r#"{"v": 7, "type": "ping"}"#,
            r#"{"v": 7, "type": "server_status"}"#,
            r#"{"v": 7, "type": "cell_error", "label": "a", "workload": "twf",
                "fingerprint": "f", "code": "panic", "message": "m"}"#,
        ] {
            let doc = JsonValue::parse(payload).unwrap();
            assert!(
                matches!(
                    Message::from_json(&doc),
                    Err(ProtocolError::VersionMismatch(7))
                ),
                "payload {payload} must fail the version check first"
            );
        }
    }

    #[test]
    fn sweep_status_errors_field_defaults_to_zero() {
        // Pre-hardening servers never emitted "errors"; their status
        // frames must still parse (additive v1 extension).
        let doc = JsonValue::parse(
            r#"{"v": 1, "type": "sweep_status", "results": 2, "unique": 2,
                "simulated": 2, "cache_hits": 0, "joined": 0,
                "total_simulations": 2, "cache_entries": 2}"#,
        )
        .unwrap();
        let Message::SweepStatus(status) = Message::from_json(&doc).unwrap() else {
            panic!("wrong type back");
        };
        assert_eq!(status.errors, 0);
        assert_eq!(status.forwarded, 0, "pre-federation default");
    }

    #[test]
    fn server_status_downstreams_default_to_empty() {
        // Standalone and pre-federation servers omit the topology.
        let doc = JsonValue::parse(
            r#"{"v": 1, "type": "server_status", "protocol_version": 1,
                "jobs": 2, "cache_capacity": 4, "cache_entries": 0,
                "in_flight": 0, "total_simulations": 5}"#,
        )
        .unwrap();
        let Message::ServerStatus(status) = Message::from_json(&doc).unwrap() else {
            panic!("wrong type back");
        };
        assert!(status.downstreams.is_empty());
    }

    #[test]
    fn file_sourced_programs_are_rejected_on_the_wire() {
        // A "file" path is relative to a scenario file the server does
        // not have; both submission forms must reject it with a typed
        // error, for plans and scenarios alike.
        let plan = JsonValue::parse(
            r#"{"v": 1, "type": "submit_plan", "insts": 1000, "cells": [],
                "programs": [{"name": "k", "file": "k.s"}]}"#,
        )
        .unwrap();
        assert!(matches!(
            Message::from_json(&plan),
            Err(ProtocolError::Scenario(ScenarioError::Program { .. }))
        ));
        let scenario = JsonValue::parse(
            r#"{"v": 1, "type": "submit_scenario", "scenario": {
                "version": 1, "name": "s", "insts": 1000,
                "programs": [{"name": "k", "file": "k.s"}],
                "configs": [{"label": "a", "workloads": ["k"], "machine": {}}]}}"#,
        )
        .unwrap();
        assert!(matches!(
            Message::from_json(&scenario),
            Err(ProtocolError::Scenario(ScenarioError::Program { .. }))
        ));
    }

    #[test]
    fn inline_programs_survive_a_scenario_submission() {
        // Since the federation PR the server accepts programs-bearing
        // scenarios; the embedded program must come back assembled.
        let text = asm_text::emit(&contopt_sim::workloads::build("twf").unwrap().program);
        let mut scenario = smoke_like_scenario();
        scenario.programs = vec![ProgramSpec::inline("ktwf", text).unwrap()];
        scenario.configs[0].workloads = vec!["ktwf".into()];
        let msg = Message::SubmitScenario {
            jobs: None,
            scenario: scenario.clone(),
        };
        let Message::SubmitScenario { scenario: back, .. } = round_trip(&msg) else {
            panic!("wrong type back");
        };
        assert_eq!(back.programs.len(), 1);
        assert_eq!(back.programs[0].program, scenario.programs[0].program);
    }

    #[test]
    fn unknown_type_and_malformed_payloads_are_typed_errors() {
        let doc = JsonValue::parse(r#"{"v": 1, "type": "frobnicate"}"#).unwrap();
        assert!(matches!(
            Message::from_json(&doc),
            Err(ProtocolError::UnknownType(_))
        ));
        let doc = JsonValue::parse(r#"{"v": 1, "type": "sweep_status"}"#).unwrap();
        assert!(matches!(
            Message::from_json(&doc),
            Err(ProtocolError::Malformed { .. })
        ));
        // An invalid embedded scenario is rejected at the protocol
        // boundary (unknown workload).
        let doc = JsonValue::parse(
            r#"{"v": 1, "type": "submit_scenario", "scenario": {
                "version": 1, "name": "s", "insts": 1, "configs": [
                  {"label": "a", "workloads": ["nope"], "machine": {}}]}}"#,
        )
        .unwrap();
        assert!(matches!(
            Message::from_json(&doc),
            Err(ProtocolError::Scenario(_))
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(ProtocolError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_on_the_write_side_too() {
        // A report bigger than MAX_FRAME_LEN must be refused by the
        // sender with the same typed error — nothing hits the wire.
        let msg = Message::CellResult(CellResult {
            label: "l".into(),
            workload: "w".into(),
            fingerprint: "f".into(),
            report: "x".repeat(MAX_FRAME_LEN + 1),
        });
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &msg),
            Err(ProtocolError::FrameTooLarge(_))
        ));
        assert!(buf.is_empty(), "no partial frame may be emitted");
    }

    #[test]
    fn truncated_frames_are_io_errors() {
        let msg = Message::Error(WireError {
            code: "x".into(),
            message: "y".into(),
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(ProtocolError::Io(_))
        ));
    }
}
