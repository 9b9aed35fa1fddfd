//! Checked-in scenario files: externally-specified sweep definitions.
//!
//! A scenario is a named matrix of `(machine configuration, workload)`
//! simulation cells plus a dynamic-instruction budget, stored as a JSON
//! file under `scenarios/` instead of as Rust code. The experiment driver
//! loads one with `contopt-experiments -- --scenario scenarios/fig9.json`,
//! executes it through the parallel `Lab` engine, and can pin its results
//! as golden reports (`--record` / `--check`).
//!
//! The serialized form is *canonical*: every machine scalar field
//! ([`MachineConfig::scalar_fields`]) and every optimizer field
//! ([`OptimizerConfig::fields`], emitted through
//! [`OptimizerConfig::normalized`]) is written in declaration order, so
//! two scenarios that simulate identically serialize byte-identically and
//! `serialize → parse → serialize` is the identity on bytes. The four
//! top-level fields (`version`, `name`, `insts`, `configs`) are required;
//! parsing is lenient only about omission *inside* a machine block: a
//! missing machine field keeps the paper's Table 2 default, a missing
//! `optimizer` block means the baseline (no optimizer), and a
//! present-but-partial `optimizer` block starts from the paper's default
//! optimizer. Unknown fields, duplicate keys, and type mismatches are
//! typed errors — a hand-edited file cannot silently misconfigure a
//! sweep.
//!
//! The cache hierarchy and branch predictor are pinned to the paper's
//! defaults; scenario files do not override them.
//!
//! Besides named Table 1 workloads, a scenario may ship its own programs
//! in the optional `"programs"` block: each entry names a program and
//! carries either inline assembler text (`"source"`) or a path to a `.s`
//! file relative to the scenario file (`"file"`), assembled through
//! [`contopt_isa::asm_text`] when the scenario is decoded. Configurations
//! then list the program's name in `"workloads"` like any built-in
//! benchmark.
//!
//! Shipped programs are statically verified at load time by
//! [`contopt_isa::analysis`]: error-severity findings (use-before-init,
//! wild jumps, out-of-bounds accesses, provably infinite loops…) fail the
//! load with [`ScenarioError::ProgramVerification`]. The optional
//! `"verify"` key tunes this per program: `"allow-warnings"` (the
//! default), `"clean"` (warnings fail too), or `"skip"` (no verification —
//! used by conformance reproducers whose whole point is to pin a
//! pathological program).

use crate::json::{Expected, Fields, JsonError, JsonValue, ToJson};
use crate::session::validate_machine;
use crate::{Error, MachineConfig, OptimizerConfig};
use contopt::{ConfigFieldError, ConfigScalar};
use contopt_isa::{analysis, asm_text, AnalysisReport, Program};
use contopt_workloads::{Suite, Workload};
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// The scenario-file format version this build reads and writes.
pub const SCENARIO_VERSION: u64 = 1;

/// The workload-list entry meaning "the whole Table 1 suite".
pub const ALL_WORKLOADS: &str = "*";

/// One named sweep: a set of labelled machine configurations, each applied
/// to a list of workloads, under one instruction budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The sweep's name (by convention, the file stem: `fig9`, `smoke`…).
    pub name: String,
    /// Dynamic-instruction budget per simulation cell.
    pub insts: u64,
    /// Counterfactual-ablation settings (the optional `"ablation"` block);
    /// `None` when the file declares none. A scenario is ablatable either
    /// way — the block only tunes the matrix.
    pub ablation: Option<AblationSpec>,
    /// Text-assembled programs the scenario ships itself (the optional
    /// `"programs"` block), in declaration order; empty when the file
    /// declares none.
    pub programs: Vec<ProgramSpec>,
    /// The labelled configurations, in declaration order.
    pub configs: Vec<ScenarioConfig>,
}

/// One program a scenario ships (an entry of the `"programs"` block).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramSpec {
    /// The name configurations refer to; must not shadow a Table 1
    /// benchmark.
    pub name: String,
    /// Where the assembler text comes from.
    pub source: ProgramSource,
    /// How strictly the static verifier's verdict gates the load (the
    /// optional `"verify"` key; defaults to
    /// [`VerifyPolicy::AllowWarnings`]).
    pub verify: VerifyPolicy,
    /// The assembled program.
    pub program: Arc<Program>,
}

/// How strictly a shipped program's static-verification verdict is
/// enforced at scenario load time (the optional `"verify"` key of a
/// `"programs"` entry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VerifyPolicy {
    /// Error-severity findings fail the load; warnings are tolerated.
    /// The default, and omitted from the canonical serialization.
    #[default]
    AllowWarnings,
    /// Any finding at all — error or warning — fails the load.
    Clean,
    /// Skip verification entirely. Used by conformance reproducers whose
    /// whole point is to pin a pathological program the analyzer would
    /// reject.
    Skip,
}

impl VerifyPolicy {
    /// The JSON spelling of this policy.
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyPolicy::AllowWarnings => "allow-warnings",
            VerifyPolicy::Clean => "clean",
            VerifyPolicy::Skip => "skip",
        }
    }

    /// Parses the JSON spelling (`"allow-warnings"` / `"clean"` /
    /// `"skip"`); `None` for anything else.
    pub fn parse(s: &str) -> Option<VerifyPolicy> {
        match s {
            "allow-warnings" => Some(VerifyPolicy::AllowWarnings),
            "clean" => Some(VerifyPolicy::Clean),
            "skip" => Some(VerifyPolicy::Skip),
            _ => None,
        }
    }
}

/// Where a shipped program's assembler text lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSource {
    /// Inline assembler text (the `"source"` key).
    Inline(String),
    /// A `.s` file path, relative to the scenario file (the `"file"` key).
    File(String),
}

impl ProgramSpec {
    /// Builds an inline spec under the default verification policy,
    /// assembling `source` immediately.
    pub fn inline(
        name: impl Into<String>,
        source: impl Into<String>,
    ) -> Result<ProgramSpec, ScenarioError> {
        ProgramSpec::inline_with(name, source, VerifyPolicy::default())
    }

    /// Builds an inline spec with an explicit verification policy,
    /// assembling `source` immediately (the policy gates later loads, not
    /// this assembly).
    pub fn inline_with(
        name: impl Into<String>,
        source: impl Into<String>,
        verify: VerifyPolicy,
    ) -> Result<ProgramSpec, ScenarioError> {
        let name = name.into();
        let source = source.into();
        let program = assemble(&name, &source)?;
        Ok(ProgramSpec {
            name,
            source: ProgramSource::Inline(source),
            verify,
            program,
        })
    }

    /// Statically verifies the assembled program — with source spans when
    /// the text is inline — regardless of the [`VerifyPolicy`].
    pub fn verify_report(&self) -> AnalysisReport {
        match &self.source {
            ProgramSource::Inline(text) => asm_text::parse_and_verify(text)
                .map_or_else(|_| analysis::verify(&self.program), |(_, r)| r),
            ProgramSource::File(_) => analysis::verify(&self.program),
        }
    }

    /// Enforces this program's [`VerifyPolicy`] against its static
    /// verification report: error-severity findings always fail, and a
    /// [`VerifyPolicy::Clean`] program fails on warnings too. `Ok` under
    /// [`VerifyPolicy::Skip`].
    pub fn verify_under_policy(&self) -> Result<(), ScenarioError> {
        if self.verify == VerifyPolicy::Skip {
            return Ok(());
        }
        let report = self.verify_report();
        let first: Option<String> =
            report
                .errors
                .first()
                .map(|e| e.to_string())
                .or_else(|| match self.verify {
                    VerifyPolicy::Clean => report.warnings.first().map(|w| w.to_string()),
                    _ => None,
                });
        match first {
            Some(first) => Err(ScenarioError::ProgramVerification {
                name: self.name.clone(),
                detail: format!(
                    "{first} ({} error(s), {} warning(s))",
                    report.errors.len(),
                    report.warnings.len()
                ),
            }),
            None => Ok(()),
        }
    }

    /// This program as a runnable workload (suite [`Suite::Kernel`]).
    pub fn workload(&self) -> Workload {
        Workload {
            name: intern_name(&self.name),
            description: "scenario-defined text program",
            suite: Suite::Kernel,
            program: Arc::clone(&self.program),
        }
    }
}

fn assemble(name: &str, source: &str) -> Result<Arc<Program>, ScenarioError> {
    asm_text::parse(source)
        .map(Arc::new)
        .map_err(|e| ScenarioError::Program {
            name: name.to_string(),
            detail: e.to_string(),
        })
}

/// Interns a scenario-program name so it can live in [`Workload::name`]
/// (`&'static str`). Names are deduplicated process-wide, so repeated
/// loads of the same scenario never leak more than one copy.
fn intern_name(name: &str) -> &'static str {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    // The interner only ever appends leaked strings, so a lock poisoned by
    // a panicking sibling thread still holds a structurally sound list —
    // recover it rather than cascading the panic.
    let mut names = NAMES
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(s) = names.iter().find(|s| **s == name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.push(leaked);
    leaked
}

/// The optional `"ablation"` block of a scenario file: how the
/// counterfactual matrix is expanded when the scenario is run under
/// `--ablate`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AblationSpec {
    /// Also simulate the add-one-in direction (baseline plus exactly one
    /// pass) for every stock pass, in addition to the always-present
    /// leave-one-out cells. Defaults to `false` when the block omits it.
    pub add_one_in: bool,
}

/// One labelled machine configuration and the workloads it runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Human-readable label, unique within the scenario (`baseline`,
    /// `feedback+opt`…). Also names the configuration's golden files.
    pub label: String,
    /// The full machine configuration (hierarchy and predictor are always
    /// the paper's defaults).
    pub machine: MachineConfig,
    /// Table 1 short names, or [`ALL_WORKLOADS`] for the whole suite.
    pub workloads: Vec<String>,
}

/// A failed scenario load: JSON syntax, structure, or semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The text is not valid JSON.
    Json(JsonError),
    /// A required value is missing or has the wrong JSON type.
    Expected {
        /// Path to the offending value (`configs[1].machine`).
        at: String,
        /// What was required there.
        what: &'static str,
    },
    /// An object carries a field the format does not define.
    UnknownField {
        /// Path to the object.
        at: String,
        /// The unrecognized key.
        field: String,
    },
    /// A config-bridge update failed (unknown field, wrong type, range).
    Field {
        /// Path to the object being populated.
        at: String,
        /// The bridge's error.
        err: ConfigFieldError,
    },
    /// The file declares a format version this build does not read.
    UnsupportedVersion(u64),
    /// A workload name that is not in Table 1.
    UnknownWorkload {
        /// The configuration listing it.
        label: String,
        /// The unrecognized name.
        name: String,
    },
    /// Two configurations share a label.
    DuplicateLabel(String),
    /// Two labels name one golden directory once [`file_stem`] maps them
    /// onto the filesystem.
    LabelCollision {
        /// The first label.
        a: String,
        /// The label colliding with it.
        b: String,
    },
    /// A scenario name or label is `""`, `.` or `..`, which [`file_stem`]
    /// keeps as it is and which is no golden directory of its own.
    NotADirectoryName {
        /// Where the name is (`name`, `configs[1].label`).
        at: String,
        /// The name.
        name: String,
    },
    /// A configuration's machine is one the session builder rejects.
    Machine {
        /// The configuration's label.
        label: String,
        /// The builder's error.
        err: Error,
    },
    /// A shipped program failed to assemble or its file could not be read.
    Program {
        /// The program's name.
        name: String,
        /// The assembler diagnostic or I/O error.
        detail: String,
    },
    /// A shipped program failed static verification under its
    /// [`VerifyPolicy`].
    ProgramVerification {
        /// The program's name.
        name: String,
        /// The analyzer's first finding plus finding counts.
        detail: String,
    },
    /// Two shipped programs share a name, or one shadows a Table 1
    /// benchmark.
    DuplicateProgram(String),
    /// The scenario declares no configurations, or a configuration lists
    /// no workloads.
    Empty(String),
    /// The instruction budget is zero.
    ZeroInsts,
    /// The file could not be read.
    Io(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "invalid JSON: {e}"),
            ScenarioError::Expected { at, what } => write!(f, "expected {what} at {at}"),
            ScenarioError::UnknownField { at, field } => {
                write!(f, "unknown field {field:?} at {at}")
            }
            ScenarioError::Field { at, err } => write!(f, "at {at}: {err}"),
            ScenarioError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported scenario version {v} (this build reads {SCENARIO_VERSION})"
                )
            }
            ScenarioError::UnknownWorkload { label, name } => {
                write!(f, "config {label:?} names unknown workload {name:?}")
            }
            ScenarioError::DuplicateLabel(l) => write!(f, "duplicate config label {l:?}"),
            ScenarioError::LabelCollision { a, b } => write!(
                f,
                "labels {a:?} and {b:?} collide after filesystem sanitization; rename one"
            ),
            ScenarioError::NotADirectoryName { at, name } => {
                write!(f, "{at} {name:?} cannot name a golden directory")
            }
            ScenarioError::Machine { label, err } => write!(f, "config {label:?}: {err}"),
            ScenarioError::Program { name, detail } => {
                write!(f, "program {name:?}: {detail}")
            }
            ScenarioError::ProgramVerification { name, detail } => {
                write!(f, "program {name:?} failed verification: {detail}")
            }
            ScenarioError::DuplicateProgram(n) => {
                write!(
                    f,
                    "program {n:?} duplicates another program or a Table 1 benchmark"
                )
            }
            ScenarioError::Empty(what) => write!(f, "{what} is empty"),
            ScenarioError::ZeroInsts => write!(f, "\"insts\" must be positive"),
            ScenarioError::Io(e) => write!(f, "cannot read scenario file: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> ScenarioError {
        ScenarioError::Json(e)
    }
}

impl From<Expected> for ScenarioError {
    fn from(Expected { at, what }: Expected) -> ScenarioError {
        ScenarioError::Expected { at, what }
    }
}

fn expected(at: impl Into<String>, what: &'static str) -> ScenarioError {
    ScenarioError::Expected {
        at: at.into(),
        what,
    }
}

/// How diagnostics name the object at `at` (empty at the top level).
fn place(at: &str) -> &str {
    if at.is_empty() {
        "top level"
    } else {
        at
    }
}

/// `doc` as a scenario-format object, which must hold no key outside
/// `known`.
fn strict<'a>(
    doc: &'a JsonValue,
    at: &'a str,
    known: &[&str],
) -> Result<Fields<'a>, ScenarioError> {
    let fields = Fields::of(doc, at).ok_or_else(|| expected(place(at), "an object"))?;
    match fields.unknown(known) {
        Some(field) => Err(ScenarioError::UnknownField {
            at: place(at).to_string(),
            field: field.to_string(),
        }),
        None => Ok(fields),
    }
}

/// A field the scenario format requires: its absence is reported at the
/// enclosing object (`a "label" field at configs[0]`).
fn need<T>(value: Option<T>, at: &str, what: &'static str) -> Result<T, ScenarioError> {
    value.ok_or_else(|| expected(place(at), what))
}

/// Maps a scenario, label or workload name onto the filesystem-safe stem
/// its golden files use: ASCII letters, digits, `.`, `_` and `-` stay,
/// anything else becomes `_`.
pub fn file_stem(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Refuses a scenario name or label that is no directory of its own in
/// `<goldens>/<scenario>/<label>/`: [`file_stem`] keeps `""`, `.` and
/// `..` as they are, and each would alias or leave the golden tree.
fn directory_name(at: String, name: &str) -> Result<(), ScenarioError> {
    if matches!(name, "" | "." | "..") {
        return Err(ScenarioError::NotADirectoryName {
            at,
            name: name.into(),
        });
    }
    Ok(())
}

impl Scenario {
    /// Parses and validates a scenario from JSON text. A `"file"`
    /// program fails: text has no directory to read it from.
    ///
    /// # Examples
    ///
    /// ```
    /// use contopt_sim::Scenario;
    /// let sc = Scenario::parse(
    ///     r#"{
    ///       "version": 1,
    ///       "name": "mini",
    ///       "insts": 50000,
    ///       "configs": [
    ///         {"label": "baseline", "workloads": ["twf"], "machine": {}},
    ///         {"label": "optimized", "workloads": ["twf"],
    ///          "machine": {"optimizer": {"enabled": true}}}
    ///       ]
    ///     }"#,
    /// )?;
    /// assert_eq!(sc.configs.len(), 2);
    /// assert!(!sc.configs[0].machine.optimizer.enabled);
    /// assert!(sc.configs[1].machine.optimizer.enabled);
    /// # Ok::<(), contopt_sim::ScenarioError>(())
    /// ```
    pub fn parse(src: &str) -> Result<Scenario, ScenarioError> {
        Scenario::decode(&JsonValue::parse(src)?, None)
    }

    /// Reads, parses, and validates a scenario file. Shipped programs with
    /// a `"file"` source are read relative to the scenario file's
    /// directory.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
        Scenario::decode(&JsonValue::parse(&text)?, path.parent())
    }

    /// Decodes a scenario document with [`from_json`](Self::from_json),
    /// then [`validate`](Self::validate)s it and gates its programs with
    /// [`verify_programs`](Self::verify_programs): the one path scenario
    /// files and wire submissions take.
    pub fn decode(doc: &JsonValue, base: Option<&Path>) -> Result<Scenario, ScenarioError> {
        let sc = Scenario::from_json(doc, base)?;
        sc.validate()?;
        sc.verify_programs()?;
        Ok(sc)
    }

    /// Statically verifies every shipped program against its
    /// [`VerifyPolicy`]: error-severity findings always fail, and a
    /// [`VerifyPolicy::Clean`] program fails on warnings too.
    pub fn verify_programs(&self) -> Result<(), ScenarioError> {
        for spec in &self.programs {
            spec.verify_under_policy()?;
        }
        Ok(())
    }

    /// This scenario with every `"file"`-sourced program converted to an
    /// inline source carrying the canonical [`asm_text::emit`] rendering
    /// of its assembled program — the self-contained form wire
    /// submissions need (a file path relative to the scenario is
    /// meaningless on another host).
    pub fn with_inlined_programs(&self) -> Scenario {
        let mut sc = self.clone();
        for spec in &mut sc.programs {
            if let ProgramSource::File(_) = &spec.source {
                spec.source = ProgramSource::Inline(asm_text::emit(&spec.program));
            }
        }
        sc
    }

    /// Every cell of this scenario as `(configuration, workload name)`,
    /// in declaration order, with [`ALL_WORKLOADS`] expanded to the
    /// Table 1 suite: the one expansion of a scenario into cells. It
    /// resolves and interns nothing, so it is safe on names a client
    /// chose.
    pub fn cells(&self) -> impl Iterator<Item = (&ScenarioConfig, &str)> {
        self.configs
            .iter()
            .flat_map(|cfg| cfg.names().map(move |name| (cfg, name)))
    }

    /// The workloads one configuration runs on, in [`cells`](Self::cells)
    /// order: each name resolves against this scenario's shipped programs
    /// first, then Table 1.
    pub fn workloads_for(&self, cfg: &ScenarioConfig) -> Result<Vec<Workload>, ScenarioError> {
        cfg.names()
            .map(|name| match self.programs.iter().find(|p| p.name == name) {
                Some(spec) => Ok(spec.workload()),
                None => {
                    contopt_workloads::build(name).ok_or_else(|| ScenarioError::UnknownWorkload {
                        label: cfg.label.clone(),
                        name: name.to_string(),
                    })
                }
            })
            .collect()
    }

    /// Builds a scenario from a parsed JSON document and assembles its
    /// shipped programs, reading `"file"` sources under `base` (no
    /// semantic validation; [`decode`](Self::decode) layers that on).
    pub fn from_json(doc: &JsonValue, base: Option<&Path>) -> Result<Scenario, ScenarioError> {
        const KEYS: [&str; 6] = [
            "version", "name", "insts", "ablation", "programs", "configs",
        ];
        let f = strict(doc, "", &KEYS)?;
        // Requiring the version means a future format bump cannot silently
        // misread an old hand-written file that never declared one.
        let version = f.opt("version", JsonValue::as_u64, "an integer")?;
        let version = need(version, "", "a \"version\" field")?;
        if version != SCENARIO_VERSION {
            return Err(ScenarioError::UnsupportedVersion(version));
        }
        let name = f.opt("name", JsonValue::as_str, "a string")?;
        let insts = f.opt("insts", JsonValue::as_u64, "an integer")?;
        let ablation = f.get("ablation").map(AblationSpec::from_json).transpose()?;
        let programs = f.items("programs", |doc, at| ProgramSpec::from_json(doc, at, base))?;
        let configs = f.items("configs", ScenarioConfig::from_json)?;
        Ok(Scenario {
            name: need(name, "", "a \"name\" field")?.to_string(),
            insts: need(insts, "", "an \"insts\" field")?,
            ablation,
            programs: programs.unwrap_or_default(),
            configs: need(configs, "", "a \"configs\" field")?,
        })
    }

    /// Semantic checks beyond JSON structure: a positive budget, at least
    /// one configuration, a name and labels that each name a golden
    /// directory of their own, program names that are their own golden
    /// file stems and pass [`check_program_names`], machines the session
    /// builder accepts, and workload names that exist in Table 1.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.insts == 0 {
            return Err(ScenarioError::ZeroInsts);
        }
        if self.configs.is_empty() {
            return Err(ScenarioError::Empty("\"configs\"".into()));
        }
        directory_name("name".into(), &self.name)?;
        for p in &self.programs {
            if p.name.is_empty() {
                return Err(ScenarioError::Program {
                    name: p.name.clone(),
                    detail: "program name is empty".into(),
                });
            }
            if file_stem(&p.name) != p.name {
                return Err(ScenarioError::Program {
                    name: p.name.clone(),
                    detail: "a program name may hold only ASCII letters, digits, '.', '_' \
                             and '-': it is the stem of the program's golden files"
                        .into(),
                });
            }
        }
        check_program_names(&self.programs)?;
        let known = contopt_workloads::names();
        for (i, cfg) in self.configs.iter().enumerate() {
            directory_name(format!("configs[{i}].label"), &cfg.label)?;
            if self.configs[..i].iter().any(|c| c.label == cfg.label) {
                return Err(ScenarioError::DuplicateLabel(cfg.label.clone()));
            }
            // Distinct labels can still share a golden directory once
            // sanitized ("fetch bound" and "fetch_bound").
            let stem = file_stem(&cfg.label);
            if let Some(prev) = self.configs[..i]
                .iter()
                .find(|c| file_stem(&c.label) == stem)
            {
                return Err(ScenarioError::LabelCollision {
                    a: prev.label.clone(),
                    b: cfg.label.clone(),
                });
            }
            validate_machine(&cfg.machine).map_err(|err| ScenarioError::Machine {
                label: cfg.label.clone(),
                err,
            })?;
            if cfg.workloads.is_empty() {
                return Err(ScenarioError::Empty(format!(
                    "config {:?} workload list",
                    cfg.label
                )));
            }
            for name in &cfg.workloads {
                if name != ALL_WORKLOADS
                    && !known.contains(&name.as_str())
                    && !self.programs.iter().any(|p| &p.name == name)
                {
                    return Err(ScenarioError::UnknownWorkload {
                        label: cfg.label.clone(),
                        name: name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The canonical file serialization: pretty-printed canonical JSON
    /// plus a trailing newline. Every checked-in `scenarios/*.json` file
    /// is byte-for-byte the canonical serialization of what it parses to.
    pub fn canonical_json(&self) -> String {
        let mut out = self.to_json().pretty();
        out.push('\n');
        out
    }

    /// This scenario with every optimizer block replaced by its
    /// [`OptimizerConfig::normalized`] canonical form — the fixed point of
    /// `parse(canonical_json())`, since serialization normalizes.
    pub fn normalized(&self) -> Scenario {
        let mut sc = self.clone();
        for cfg in &mut sc.configs {
            cfg.machine.optimizer = cfg.machine.optimizer.normalized();
        }
        sc
    }
}

/// Refuses a program that shadows a Table 1 benchmark or an earlier
/// program of `programs`: the one program-name rule of scenarios and
/// `submit_plan` messages, so a workload name selects one program.
pub fn check_program_names(programs: &[ProgramSpec]) -> Result<(), ScenarioError> {
    let known = contopt_workloads::names();
    for (i, p) in programs.iter().enumerate() {
        if known.contains(&p.name.as_str()) || programs[..i].iter().any(|q| q.name == p.name) {
            return Err(ScenarioError::DuplicateProgram(p.name.clone()));
        }
    }
    Ok(())
}

impl AblationSpec {
    fn from_json(doc: &JsonValue) -> Result<AblationSpec, ScenarioError> {
        let f = strict(doc, "ablation", &["add_one_in"])?;
        Ok(AblationSpec {
            add_one_in: f
                .opt("add_one_in", JsonValue::as_bool, "a bool")?
                .unwrap_or_default(),
        })
    }
}

impl ToJson for AblationSpec {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([("add_one_in", self.add_one_in.into())])
    }
}

impl ProgramSpec {
    /// Parses and assembles one `"programs"` entry (`at` names the entry
    /// in diagnostics, e.g. `programs[0]`). A `"file"` source is read
    /// relative to `base`; without a base it is an error, so a wire
    /// submission must inline its text first.
    pub fn from_json(
        doc: &JsonValue,
        at: &str,
        base: Option<&Path>,
    ) -> Result<ProgramSpec, ScenarioError> {
        let f = strict(doc, at, &["name", "source", "file", "verify"])?;
        let text = |key| f.opt(key, JsonValue::as_str, "a string");
        let (name, source, file) = (text("name")?, text("source")?, text("file")?);
        let verify = match text("verify")? {
            None => VerifyPolicy::default(),
            Some(policy) => VerifyPolicy::parse(policy).ok_or_else(|| {
                expected(
                    f.path("verify"),
                    "\"allow-warnings\", \"clean\", or \"skip\"",
                )
            })?,
        };
        let source = match (source, file) {
            (Some(text), None) => ProgramSource::Inline(text.to_string()),
            (None, Some(path)) => ProgramSource::File(path.to_string()),
            _ => return Err(expected(at, "exactly one of \"source\" or \"file\"")),
        };
        let name = need(name, at, "a \"name\" field")?.to_string();
        let program = match (&source, base) {
            (ProgramSource::Inline(text), _) => assemble(&name, text)?,
            (ProgramSource::File(rel), Some(base)) => {
                let path = base.join(rel);
                match std::fs::read_to_string(&path) {
                    Ok(text) => assemble(&name, &text)?,
                    Err(e) => {
                        let detail = format!("{}: {e}", path.display());
                        return Err(ScenarioError::Program { name, detail });
                    }
                }
            }
            (ProgramSource::File(_), None) => {
                return Err(ScenarioError::Program {
                    name,
                    detail: "a \"file\" program cannot be assembled without a base \
                             directory; inline its text first"
                        .into(),
                })
            }
        };
        Ok(ProgramSpec {
            name,
            source,
            verify,
            program,
        })
    }
}

impl ToJson for ProgramSpec {
    fn to_json(&self) -> JsonValue {
        let (key, text) = match &self.source {
            ProgramSource::Inline(text) => ("source", text),
            ProgramSource::File(path) => ("file", path),
        };
        let mut fields = vec![
            ("name", JsonValue::from(self.name.as_str())),
            (key, text.as_str().into()),
        ];
        // The default policy stays implicit, so files written before the
        // key existed still round-trip byte-for-byte.
        if self.verify != VerifyPolicy::default() {
            fields.push(("verify", self.verify.as_str().into()));
        }
        JsonValue::obj(fields)
    }
}

impl ScenarioConfig {
    /// The workload names this configuration lists, with
    /// [`ALL_WORKLOADS`] expanded to the Table 1 suite.
    fn names(&self) -> impl Iterator<Item = &str> {
        self.workloads.iter().flat_map(|name| match name.as_str() {
            ALL_WORKLOADS => contopt_workloads::names(),
            name => vec![name],
        })
    }

    fn from_json(doc: &JsonValue, at: &str) -> Result<ScenarioConfig, ScenarioError> {
        let f = strict(doc, at, &["label", "machine", "workloads"])?;
        let label = f.opt("label", JsonValue::as_str, "a string")?;
        let machine = need(f.get("machine"), at, "a \"machine\" field")?;
        let workloads = f.items("workloads", |w, at| {
            w.as_str()
                .map(str::to_string)
                .ok_or_else(|| expected(at, "a string"))
        })?;
        Ok(ScenarioConfig {
            label: need(label, at, "a \"label\" field")?.to_string(),
            machine: machine_from_json(machine, &f.path("machine"))?,
            workloads: need(workloads, at, "a \"workloads\" field")?,
        })
    }
}

/// Parses a machine block: Table 2 defaults overridden field by field.
/// An absent `optimizer` key is the baseline (no optimizer); a present one
/// starts from the paper's default optimizer and applies its fields.
///
/// This is the canonical wire/file decoder for a [`MachineConfig`] — the
/// inverse of [`machine_to_json`] — shared by scenario files and the
/// sweep-service protocol, so a configuration serialized anywhere in the
/// system parses back identically everywhere else.
pub fn machine_from_json(doc: &JsonValue, at: &str) -> Result<MachineConfig, ScenarioError> {
    let fields = doc.as_object().ok_or(expected(at, "an object"))?;
    let mut machine = MachineConfig::default_paper();
    for (key, value) in fields {
        if key == "optimizer" {
            machine.optimizer = optimizer_from_json(value, &format!("{at}.optimizer"))?;
            continue;
        }
        let n = value
            .as_u64()
            .ok_or(expected(format!("{at}.{key}"), "an unsigned integer"))?;
        machine
            .set_scalar_field(key, n)
            .map_err(|err| ScenarioError::Field {
                at: at.to_string(),
                err,
            })?;
    }
    Ok(machine)
}

/// Parses an optimizer block onto the paper's default optimizer.
fn optimizer_from_json(doc: &JsonValue, at: &str) -> Result<OptimizerConfig, ScenarioError> {
    let fields = doc.as_object().ok_or(expected(at, "an object"))?;
    let mut opt = OptimizerConfig::default();
    for (key, value) in fields {
        let scalar = match value {
            JsonValue::Bool(b) => ConfigScalar::Bool(*b),
            JsonValue::UInt(n) => ConfigScalar::UInt(*n),
            _ => {
                return Err(expected(
                    format!("{at}.{key}"),
                    "a bool or unsigned integer",
                ))
            }
        };
        opt.set_field(key, scalar)
            .map_err(|err| ScenarioError::Field {
                at: at.to_string(),
                err,
            })?;
    }
    Ok(opt)
}

/// Serializes a machine configuration in canonical form: every Table 2
/// scalar field in declaration order, then the `optimizer` block through
/// [`OptimizerConfig::normalized`]. Two configurations that simulate
/// identically serialize byte-identically, so the emitted text doubles as
/// a behavioural fingerprint — scenario files, golden reports, and the
/// sweep-service result cache all key off it.
pub fn machine_to_json(machine: &MachineConfig) -> JsonValue {
    JsonValue::obj(
        machine
            .scalar_fields()
            .into_iter()
            .map(|(k, v)| (k, JsonValue::UInt(v)))
            .chain([(
                "optimizer",
                JsonValue::obj(machine.optimizer.normalized().fields().into_iter().map(
                    |(k, v)| {
                        let v = match v {
                            ConfigScalar::Bool(b) => JsonValue::Bool(b),
                            ConfigScalar::UInt(n) => JsonValue::UInt(n),
                        };
                        (k, v)
                    },
                )),
            )]),
    )
}

impl ToJson for Scenario {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("version", JsonValue::from(SCENARIO_VERSION)),
            ("name", self.name.as_str().into()),
            ("insts", self.insts.into()),
        ];
        // An absent block stays absent, so files written before the
        // ablation block existed still round-trip byte-for-byte.
        if let Some(spec) = &self.ablation {
            fields.push(("ablation", spec.to_json()));
        }
        // Likewise: no programs, no block.
        if !self.programs.is_empty() {
            fields.push((
                "programs",
                JsonValue::arr(self.programs.iter().map(|p| p.to_json())),
            ));
        }
        fields.push((
            "configs",
            JsonValue::arr(self.configs.iter().map(|c| c.to_json())),
        ));
        JsonValue::obj(fields)
    }
}

impl ToJson for ScenarioConfig {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("label", self.label.as_str().into()),
            (
                "workloads",
                JsonValue::arr(self.workloads.iter().map(|w| w.as_str().into())),
            ),
            ("machine", machine_to_json(&self.machine)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_config_scenario() -> Scenario {
        Scenario {
            name: "mini".into(),
            insts: 50_000,
            ablation: None,
            programs: vec![],
            configs: vec![
                ScenarioConfig {
                    label: "baseline".into(),
                    machine: MachineConfig::default_paper(),
                    workloads: vec!["twf".into(), "untst".into()],
                },
                ScenarioConfig {
                    label: "optimized".into(),
                    machine: MachineConfig::default_with_optimizer(),
                    workloads: vec![ALL_WORKLOADS.into()],
                },
            ],
        }
    }

    #[test]
    fn canonical_serialization_round_trips_bytes() {
        let sc = two_config_scenario();
        let text = sc.canonical_json();
        let parsed = Scenario::parse(&text).unwrap();
        assert_eq!(parsed, sc.normalized());
        assert_eq!(parsed.canonical_json(), text);
    }

    #[test]
    fn sparse_machine_blocks_fill_from_paper_defaults() {
        let sc = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1000, "configs": [
                {"label": "wide", "workloads": ["mcf"],
                 "machine": {"fetch_width": 8}}]}"#,
        )
        .unwrap();
        let m = sc.configs[0].machine;
        assert_eq!(m.fetch_width, 8);
        assert_eq!(m.rob_entries, MachineConfig::default_paper().rob_entries);
        assert!(!m.optimizer.enabled, "absent optimizer block = baseline");
    }

    #[test]
    fn partial_optimizer_block_starts_from_default_optimizer() {
        let sc = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1000, "configs": [
                {"label": "slow-feedback", "workloads": ["mcf"],
                 "machine": {"optimizer": {"feedback_delay": 10}}}]}"#,
        )
        .unwrap();
        let o = sc.configs[0].machine.optimizer;
        assert!(o.enabled && o.optimize && o.value_feedback);
        assert_eq!(o.feedback_delay, 10);
    }

    #[test]
    fn unknown_fields_are_typed_errors_at_every_level() {
        let top = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "configs": [], "extra": 1}"#,
        );
        assert!(
            matches!(top, Err(ScenarioError::UnknownField { .. })),
            "{top:?}"
        );
        let cfg = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "configs": [
                {"label": "a", "workloads": ["mcf"], "machine": {}, "x": 1}]}"#,
        );
        assert!(
            matches!(cfg, Err(ScenarioError::UnknownField { .. })),
            "{cfg:?}"
        );
        let mach = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "configs": [
                {"label": "a", "workloads": ["mcf"], "machine": {"warp": 9}}]}"#,
        );
        assert!(
            matches!(
                mach,
                Err(ScenarioError::Field {
                    err: ConfigFieldError::UnknownField(_),
                    ..
                })
            ),
            "{mach:?}"
        );
        let opt = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "configs": [
                {"label": "a", "workloads": ["mcf"],
                 "machine": {"optimizer": {"frobnicate": true}}}]}"#,
        );
        assert!(
            matches!(
                opt,
                Err(ScenarioError::Field {
                    err: ConfigFieldError::UnknownField(_),
                    ..
                })
            ),
            "{opt:?}"
        );
    }

    #[test]
    fn semantic_validation_catches_bad_scenarios() {
        let dup = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "configs": [
                {"label": "a", "workloads": ["mcf"], "machine": {}},
                {"label": "a", "workloads": ["twf"], "machine": {}}]}"#,
        );
        assert_eq!(dup, Err(ScenarioError::DuplicateLabel("a".into())));
        let unknown = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "configs": [
                {"label": "a", "workloads": ["nope"], "machine": {}}]}"#,
        );
        assert!(matches!(
            unknown,
            Err(ScenarioError::UnknownWorkload { .. })
        ));
        let zero = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 0, "configs": [
                {"label": "a", "workloads": ["mcf"], "machine": {}}]}"#,
        );
        assert_eq!(zero, Err(ScenarioError::ZeroInsts));
        let empty = Scenario::parse(r#"{"version": 1, "name": "s", "insts": 1, "configs": []}"#);
        assert!(matches!(empty, Err(ScenarioError::Empty(_))));
        let version = Scenario::parse(r#"{"version": 99, "name": "s", "insts": 1, "configs": []}"#);
        assert_eq!(version, Err(ScenarioError::UnsupportedVersion(99)));
        let no_version = Scenario::parse(
            r#"{"name": "s", "insts": 1, "configs": [
                {"label": "a", "workloads": ["mcf"], "machine": {}}]}"#,
        );
        assert!(
            matches!(no_version, Err(ScenarioError::Expected { what, .. }) if what.contains("version")),
            "a file without \"version\" must be rejected"
        );
    }

    #[test]
    fn wrong_types_are_expected_errors() {
        let e = Scenario::parse(r#"{"version": 1, "name": 5, "insts": 1, "configs": []}"#);
        assert!(matches!(e, Err(ScenarioError::Expected { .. })));
        let e = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "configs": [
                {"label": "a", "workloads": ["mcf"],
                 "machine": {"fetch_width": "four"}}]}"#,
        );
        assert!(matches!(e, Err(ScenarioError::Expected { .. })));
        let e = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "configs": [
                {"label": "a", "workloads": ["mcf"],
                 "machine": {"optimizer": {"enabled": 1}}}]}"#,
        );
        assert!(
            matches!(
                e,
                Err(ScenarioError::Field {
                    err: ConfigFieldError::WrongType { .. },
                    ..
                })
            ),
            "{e:?}"
        );
    }

    #[test]
    fn ablation_block_round_trips_and_stays_optional() {
        // A file without the block parses to None and re-serializes
        // without it.
        let mut sc = two_config_scenario();
        assert!(Scenario::parse(&sc.canonical_json())
            .unwrap()
            .ablation
            .is_none());
        assert!(!sc.canonical_json().contains("ablation"));
        // With the block, both fields round-trip byte-for-byte.
        sc.ablation = Some(AblationSpec { add_one_in: true });
        let text = sc.canonical_json();
        let parsed = Scenario::parse(&text).unwrap();
        assert_eq!(parsed.ablation, Some(AblationSpec { add_one_in: true }));
        assert_eq!(parsed.canonical_json(), text);
        // An empty block means the defaults.
        let sc = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "ablation": {}, "configs": [
                {"label": "a", "workloads": ["mcf"], "machine": {}}]}"#,
        )
        .unwrap();
        assert_eq!(sc.ablation, Some(AblationSpec::default()));
        // Unknown fields and wrong types inside the block are typed errors.
        let bad = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "ablation": {"frob": 1}, "configs": [
                {"label": "a", "workloads": ["mcf"], "machine": {}}]}"#,
        );
        assert!(
            matches!(bad, Err(ScenarioError::UnknownField { ref at, .. }) if at == "ablation"),
            "{bad:?}"
        );
        let bad = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1, "ablation": {"add_one_in": 1}, "configs": [
                {"label": "a", "workloads": ["mcf"], "machine": {}}]}"#,
        );
        assert!(
            matches!(bad, Err(ScenarioError::Expected { .. })),
            "{bad:?}"
        );
    }

    #[test]
    fn machine_json_accessors_round_trip_and_normalize() {
        // The public accessors are the wire format of the sweep service:
        // serialize → parse must be the identity on behaviour, and the
        // emitted text must be the behavioural fingerprint (inert knobs on
        // a disabled optimizer normalize away).
        let mut m = MachineConfig::default_with_optimizer();
        m.fetch_width = 8;
        let doc = machine_to_json(&m);
        let back = machine_from_json(&doc, "machine").unwrap();
        assert_eq!(back, m);
        assert_eq!(machine_to_json(&back).to_string(), doc.to_string());

        let mut inert = MachineConfig::default_paper();
        inert.optimizer.mbc_entries = 7; // inert: optimizer disabled
        assert_eq!(
            machine_to_json(&inert).to_string(),
            machine_to_json(&MachineConfig::default_paper()).to_string(),
            "canonical text is a behavioural fingerprint"
        );
    }

    #[test]
    fn workload_expansion() {
        let sc = two_config_scenario();
        assert_eq!(
            sc.workloads_for(&sc.configs[0])
                .unwrap()
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>(),
            ["twf", "untst"]
        );
        assert_eq!(sc.workloads_for(&sc.configs[1]).unwrap().len(), 24);
        let cells: Vec<(&str, &str)> = sc.cells().map(|(c, w)| (c.label.as_str(), w)).collect();
        assert_eq!(cells.len(), 2 + 24);
        assert_eq!(
            cells[..3],
            [
                ("baseline", "twf"),
                ("baseline", "untst"),
                ("optimized", "bzp")
            ]
        );
    }

    const SPIN_SRC: &str = "        li   r1, 5\nspin:   subq r1, 1, r1\n        bne  r1, spin\n        li   r2, 0x100000\n        stq  r1, 8(r2)\n        halt\n";

    fn program_scenario() -> Scenario {
        Scenario {
            name: "asm".into(),
            insts: 50_000,
            ablation: None,
            programs: vec![ProgramSpec::inline("spin", SPIN_SRC).unwrap()],
            configs: vec![ScenarioConfig {
                label: "baseline".into(),
                machine: MachineConfig::default_paper(),
                workloads: vec!["spin".into(), "twf".into()],
            }],
        }
    }

    #[test]
    fn program_blocks_round_trip_bytes() {
        let sc = program_scenario();
        let text = sc.canonical_json();
        let parsed = Scenario::parse(&text).unwrap();
        assert_eq!(parsed, sc.normalized(), "inline programs re-assemble");
        assert_eq!(parsed.canonical_json(), text);
        // A scenario without the block never grows one.
        assert!(!two_config_scenario().canonical_json().contains("programs"));
    }

    #[test]
    fn program_names_resolve_before_table1() {
        let sc = program_scenario();
        let ws = sc.workloads_for(&sc.configs[0]).unwrap();
        assert_eq!(
            ws.iter().map(|w| w.name).collect::<Vec<_>>(),
            ["spin", "twf"]
        );
        assert_eq!(ws[0].suite, Suite::Kernel);
        assert_eq!(ws[0].program.len(), 6);
        // Built-in names still resolve to the suite through the same path.
        assert_eq!(ws[1].suite, Suite::SpecInt);
    }

    #[test]
    fn program_block_is_validated() {
        // Unknown fields inside a program spec are typed errors.
        let bad = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1,
                "programs": [{"name": "p", "source": "halt", "x": 1}],
                "configs": [{"label": "a", "workloads": ["p"], "machine": {}}]}"#,
        );
        assert!(
            matches!(bad, Err(ScenarioError::UnknownField { ref at, .. }) if at == "programs[0]"),
            "{bad:?}"
        );
        // Both or neither of source/file are structure errors.
        let bad = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1,
                "programs": [{"name": "p"}],
                "configs": [{"label": "a", "workloads": ["p"], "machine": {}}]}"#,
        );
        assert!(
            matches!(bad, Err(ScenarioError::Expected { .. })),
            "{bad:?}"
        );
        // A program shadowing a Table 1 benchmark is rejected.
        let mut sc = program_scenario();
        sc.programs[0].name = "twf".into();
        assert_eq!(
            sc.validate(),
            Err(ScenarioError::DuplicateProgram("twf".into()))
        );
        // An assembler diagnostic surfaces with its span.
        let bad = Scenario::parse(
            r#"{"version": 1, "name": "s", "insts": 1,
                "programs": [{"name": "p", "source": "        frobz r1, r2, r3"}],
                "configs": [{"label": "a", "workloads": ["p"], "machine": {}}]}"#,
        );
        match bad {
            Err(ScenarioError::Program { name, detail }) => {
                assert_eq!(name, "p");
                assert!(detail.contains("unknown mnemonic"), "{detail}");
                assert!(detail.contains("1:9"), "span in {detail}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn program_verification_gates_the_load() {
        // Reads r9 before anything writes it: an error-severity finding.
        let bad = |policy: &str| {
            format!(
                r#"{{"version": 1, "name": "s", "insts": 1,
                "programs": [{{"name": "p", "source": "        addq r9, 1, r1\n        halt"{policy}}}],
                "configs": [{{"label": "a", "workloads": ["p"], "machine": {{}}}}]}}"#
            )
        };
        match Scenario::parse(&bad("")) {
            Err(ScenarioError::ProgramVerification { name, detail }) => {
                assert_eq!(name, "p");
                assert!(detail.contains("use_before_init"), "{detail}");
                assert!(detail.contains("1 error(s)"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
        // "skip" lets the same program through (conformance reproducers).
        let sc = Scenario::parse(&bad(r#", "verify": "skip""#)).unwrap();
        assert_eq!(sc.programs[0].verify, VerifyPolicy::Skip);
        // A warnings-only program loads by default but not under "clean".
        let warn = |policy: &str| {
            format!(
                r#"{{"version": 1, "name": "s", "insts": 1,
                "programs": [{{"name": "p", "source": "loop:   li r1, 1\n        bne r1, loop\n        halt"{policy}}}],
                "configs": [{{"label": "a", "workloads": ["p"], "machine": {{}}}}]}}"#
            )
        };
        assert!(Scenario::parse(&warn("")).is_ok());
        match Scenario::parse(&warn(r#", "verify": "clean""#)) {
            Err(ScenarioError::ProgramVerification { detail, .. }) => {
                assert!(detail.contains("warning"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
        // An unknown policy spelling is a typed structure error.
        let bad_policy = Scenario::parse(&bad(r#", "verify": "maybe""#));
        assert!(
            matches!(bad_policy, Err(ScenarioError::Expected { .. })),
            "{bad_policy:?}"
        );
    }

    #[test]
    fn verify_policy_round_trips_and_stays_optional() {
        let mut sc = program_scenario();
        assert!(
            !sc.canonical_json().contains("verify"),
            "default policy stays implicit"
        );
        sc.programs[0].verify = VerifyPolicy::Clean;
        let text = sc.canonical_json();
        let parsed = Scenario::parse(&text).unwrap();
        assert_eq!(parsed.programs[0].verify, VerifyPolicy::Clean);
        assert_eq!(parsed.canonical_json(), text);
    }

    #[test]
    fn file_programs_resolve_relative_to_the_scenario() {
        let dir = std::env::temp_dir().join(format!("contopt-scenario-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("asm")).unwrap();
        std::fs::write(dir.join("asm/spin.s"), SPIN_SRC).unwrap();
        let mut sc = program_scenario();
        sc.programs[0].source = ProgramSource::File("asm/spin.s".into());
        let path = dir.join("sc.json");
        std::fs::write(&path, sc.canonical_json()).unwrap();
        let loaded = Scenario::load(&path).unwrap();
        assert_eq!(
            *loaded.programs[0].program,
            asm_text::parse(SPIN_SRC).unwrap()
        );
        // Parsing the same text has no directory to read the file from,
        // so decoding it fails with a typed error.
        assert!(matches!(
            Scenario::parse(&sc.canonical_json()),
            Err(ScenarioError::Program { name, .. }) if name == "spin"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn program_names_are_their_own_golden_file_stems() {
        // "a b" and "a_b" would both record to `a_b.json`; "*" could never
        // be selected, since the wildcard means the Table 1 suite.
        for name in ["a b", "*", "k/../k"] {
            let mut sc = program_scenario();
            sc.programs[0].name = name.into();
            sc.configs[0].workloads = vec![name.into()];
            let err = Scenario::parse(&sc.canonical_json()).unwrap_err();
            assert!(
                matches!(&err, ScenarioError::Program { name: n, detail }
                    if n == name && detail.contains("golden")),
                "{name}: {err}"
            );
        }
        let mut sc = program_scenario();
        sc.programs[0].name = "k-1.v_2".into();
        sc.configs[0].workloads = vec!["k-1.v_2".into()];
        Scenario::parse(&sc.canonical_json()).unwrap();
    }

    #[test]
    fn labels_that_share_a_golden_directory_are_rejected() {
        let mut sc = two_config_scenario();
        sc.configs[0].label = "fetch bound".into();
        sc.configs[1].label = "fetch_bound".into();
        assert_eq!(
            Scenario::parse(&sc.canonical_json()),
            Err(ScenarioError::LabelCollision {
                a: "fetch bound".into(),
                b: "fetch_bound".into(),
            })
        );
    }

    #[test]
    fn names_that_are_no_golden_directory_are_rejected() {
        // `g/<name>/<label>/<workload>.json`: a name or label of "", "."
        // or ".." would alias another scenario's files or leave `g`.
        for bad in ["", ".", ".."] {
            let mut sc = two_config_scenario();
            sc.name = bad.into();
            assert_eq!(
                Scenario::parse(&sc.canonical_json()),
                Err(ScenarioError::NotADirectoryName {
                    at: "name".into(),
                    name: bad.into(),
                })
            );
            let mut sc = two_config_scenario();
            sc.configs[1].label = bad.into();
            let err = Scenario::parse(&sc.canonical_json()).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("configs[1].label {bad:?} cannot name a golden directory")
            );
        }
        let mut sc = two_config_scenario();
        sc.name = "...".into();
        sc.configs[0].label = "./".into();
        Scenario::parse(&sc.canonical_json()).unwrap();
    }

    #[test]
    fn serialization_normalizes_the_optimizer() {
        // Inert knobs on a disabled optimizer must not leak into the file:
        // the emitted form is the canonical fingerprint the Lab caches by.
        let mut sc = two_config_scenario();
        sc.configs[0].machine.optimizer.mbc_entries = 7; // inert: disabled
        let parsed = Scenario::parse(&sc.canonical_json()).unwrap();
        assert_eq!(
            parsed.configs[0].machine.optimizer,
            OptimizerConfig::baseline().normalized()
        );
    }
}
