//! Optimizer configuration knobs.

use std::fmt;

/// One scalar configuration field value: the lossless bridge between the
/// config structs and external representations such as the JSON scenario
/// files (`contopt_sim::Scenario`). Every field of [`OptimizerConfig`] is
/// one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigScalar {
    /// A boolean switch.
    Bool(bool),
    /// An unsigned integer knob.
    UInt(u64),
}

/// A failed [`OptimizerConfig::set_field`]-style update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigFieldError {
    /// No field with that name exists.
    UnknownField(String),
    /// The value's type does not match the field's.
    WrongType {
        /// The field being set.
        field: &'static str,
        /// The type the field requires.
        expected: &'static str,
    },
    /// The value does not fit the field's native width.
    OutOfRange {
        /// The field being set.
        field: &'static str,
    },
}

impl fmt::Display for ConfigFieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigFieldError::UnknownField(name) => write!(f, "unknown config field {name:?}"),
            ConfigFieldError::WrongType { field, expected } => {
                write!(f, "config field {field:?} takes a {expected}")
            }
            ConfigFieldError::OutOfRange { field } => {
                write!(f, "value out of range for config field {field:?}")
            }
        }
    }
}

impl std::error::Error for ConfigFieldError {}

/// Configuration of the continuous optimizer.
///
/// Defaults reproduce the paper's default optimizer (Table 2 plus §4.2):
/// two extra rename pipeline stages, a 128-entry Memory Bypass Cache,
/// one-cycle value-feedback transmission delay, and at most a single level
/// of addition per rename bundle (no chained dependent additions, no
/// chained memory operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptimizerConfig {
    /// Master switch: when `false` the unit degrades to a plain register
    /// renamer (the baseline machine).
    pub enabled: bool,
    /// Perform the CP/RA and RLE/SF dataflow optimizations. Turning this off
    /// while leaving [`value_feedback`](Self::value_feedback) on yields the
    /// "feedback alone" configuration of Figure 9.
    pub optimize: bool,
    /// Integrate execution results back into the optimization tables.
    pub value_feedback: bool,
    /// Transmission delay, in cycles, from execution to the tables
    /// (Figure 12 sweeps 0/1/5/10; default 1).
    pub feedback_delay: u64,
    /// Extra pipeline stages the optimizer adds to rename
    /// (Figure 11 sweeps 0/2/4; default 2).
    pub extra_stages: u64,
    /// Chained dependent *additions* permitted within one rename bundle
    /// (Figure 10: 0 = default, 1, 3). Each instruction may always use one
    /// addition of its own; this bounds serial chains beyond that.
    pub add_chain_depth: u32,
    /// Chained dependent *memory* operations permitted within one rename
    /// bundle (Figure 10's "& 1 mem" variant; default 0).
    pub mem_chain_depth: u32,
    /// Memory Bypass Cache entries (default 128).
    pub mbc_entries: usize,
    /// Flush the MBC when a store with an unknown address passes through
    /// (the conservative alternative of §3.2; default `false` = proceed
    /// speculatively, verifying forwards against the oracle).
    pub flush_mbc_on_unknown_store: bool,
    /// Enable redundant load elimination + store forwarding (ablation).
    pub enable_rle_sf: bool,
    /// Enable reassociation (ablation; with this off, only fully-known
    /// constant propagation happens).
    pub enable_reassociation: bool,
    /// Enable branch-direction value inference (`beq` taken ⇒ reg = 0).
    pub enable_branch_inference: bool,
    /// Execute fully-known instructions on the rename-stage ALUs and
    /// resolve fully-known branches/jumps there (the paper's early
    /// execution, §3.3). With this off the optimizer still derives and
    /// records symbolic knowledge (constants enter the RAT, addresses
    /// generate early, the MBC is maintained), but no instruction
    /// *completes* at rename: every instruction with architectural work —
    /// including eliminable moves and forwardable loads — is dispatched
    /// to the out-of-order core. Corresponds to the
    /// [`PassId::EarlyExec`](crate::PassId::EarlyExec) pass.
    pub enable_early_exec: bool,
    /// Discrete (offline-style) optimization per §3.4: when non-zero, the
    /// optimization tables are invalidated every `discrete_interval`
    /// instructions, modeling trace-at-a-time frameworks such as rePLay or
    /// PARROT where "optimization table entries would be invalidated at the
    /// start of each trace". Zero (the default) is continuous optimization.
    pub discrete_interval: u64,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            enabled: true,
            optimize: true,
            value_feedback: true,
            feedback_delay: 1,
            extra_stages: 2,
            add_chain_depth: 0,
            mem_chain_depth: 0,
            mbc_entries: 128,
            flush_mbc_on_unknown_store: false,
            enable_rle_sf: true,
            enable_reassociation: true,
            enable_branch_inference: true,
            enable_early_exec: true,
            discrete_interval: 0,
        }
    }
}

impl OptimizerConfig {
    /// The baseline machine: a plain renamer with no optimizer and no extra
    /// pipeline stages.
    pub fn baseline() -> OptimizerConfig {
        OptimizerConfig {
            enabled: false,
            optimize: false,
            value_feedback: false,
            extra_stages: 0,
            ..OptimizerConfig::default()
        }
    }

    /// Discrete (offline-style) optimization with the given trace length,
    /// per §3.4: tables are invalidated at every trace boundary.
    pub fn discrete(trace_len: u64) -> OptimizerConfig {
        OptimizerConfig {
            discrete_interval: trace_len,
            ..OptimizerConfig::default()
        }
    }

    /// The "feedback alone" configuration of Figure 9: value feedback is
    /// integrated but no symbolic dataflow optimization is performed.
    pub fn feedback_only() -> OptimizerConfig {
        OptimizerConfig {
            optimize: false,
            enable_rle_sf: false,
            enable_reassociation: false,
            enable_branch_inference: false,
            ..OptimizerConfig::default()
        }
    }

    /// Maximum *serial* rename-stage additions permitted for one
    /// instruction's derivation (its own plus the chained allowance).
    pub(crate) fn max_serial_adds(&self) -> u32 {
        self.add_chain_depth + 1
    }

    /// Every field as a `(name, value)` pair, in declaration order — the
    /// serialization half of the scenario-file bridge. [`set_field`]
    /// accepts exactly these names, so
    /// `fields()` → `set_field` round-trips losslessly.
    ///
    /// [`set_field`]: Self::set_field
    pub fn fields(&self) -> [(&'static str, ConfigScalar); 14] {
        use ConfigScalar::{Bool, UInt};
        [
            ("enabled", Bool(self.enabled)),
            ("optimize", Bool(self.optimize)),
            ("value_feedback", Bool(self.value_feedback)),
            ("feedback_delay", UInt(self.feedback_delay)),
            ("extra_stages", UInt(self.extra_stages)),
            ("add_chain_depth", UInt(self.add_chain_depth as u64)),
            ("mem_chain_depth", UInt(self.mem_chain_depth as u64)),
            ("mbc_entries", UInt(self.mbc_entries as u64)),
            (
                "flush_mbc_on_unknown_store",
                Bool(self.flush_mbc_on_unknown_store),
            ),
            ("enable_rle_sf", Bool(self.enable_rle_sf)),
            ("enable_reassociation", Bool(self.enable_reassociation)),
            (
                "enable_branch_inference",
                Bool(self.enable_branch_inference),
            ),
            ("enable_early_exec", Bool(self.enable_early_exec)),
            ("discrete_interval", UInt(self.discrete_interval)),
        ]
    }

    /// Sets one field by name — the deserialization half of the
    /// scenario-file bridge. Unknown names, type mismatches, and values
    /// exceeding the field's native width are typed errors, never panics.
    pub fn set_field(&mut self, field: &str, value: ConfigScalar) -> Result<(), ConfigFieldError> {
        fn bool_of(field: &'static str, value: ConfigScalar) -> Result<bool, ConfigFieldError> {
            match value {
                ConfigScalar::Bool(b) => Ok(b),
                _ => Err(ConfigFieldError::WrongType {
                    field,
                    expected: "bool",
                }),
            }
        }
        fn u64_of(field: &'static str, value: ConfigScalar) -> Result<u64, ConfigFieldError> {
            match value {
                ConfigScalar::UInt(n) => Ok(n),
                _ => Err(ConfigFieldError::WrongType {
                    field,
                    expected: "unsigned integer",
                }),
            }
        }
        fn u32_of(field: &'static str, value: ConfigScalar) -> Result<u32, ConfigFieldError> {
            u64_of(field, value)?
                .try_into()
                .map_err(|_| ConfigFieldError::OutOfRange { field })
        }
        fn usize_of(field: &'static str, value: ConfigScalar) -> Result<usize, ConfigFieldError> {
            u64_of(field, value)?
                .try_into()
                .map_err(|_| ConfigFieldError::OutOfRange { field })
        }
        match field {
            "enabled" => self.enabled = bool_of("enabled", value)?,
            "optimize" => self.optimize = bool_of("optimize", value)?,
            "value_feedback" => self.value_feedback = bool_of("value_feedback", value)?,
            "feedback_delay" => self.feedback_delay = u64_of("feedback_delay", value)?,
            "extra_stages" => self.extra_stages = u64_of("extra_stages", value)?,
            "add_chain_depth" => self.add_chain_depth = u32_of("add_chain_depth", value)?,
            "mem_chain_depth" => self.mem_chain_depth = u32_of("mem_chain_depth", value)?,
            "mbc_entries" => self.mbc_entries = usize_of("mbc_entries", value)?,
            "flush_mbc_on_unknown_store" => {
                self.flush_mbc_on_unknown_store = bool_of("flush_mbc_on_unknown_store", value)?
            }
            "enable_rle_sf" => self.enable_rle_sf = bool_of("enable_rle_sf", value)?,
            "enable_reassociation" => {
                self.enable_reassociation = bool_of("enable_reassociation", value)?
            }
            "enable_branch_inference" => {
                self.enable_branch_inference = bool_of("enable_branch_inference", value)?
            }
            "enable_early_exec" => self.enable_early_exec = bool_of("enable_early_exec", value)?,
            "discrete_interval" => self.discrete_interval = u64_of("discrete_interval", value)?,
            other => return Err(ConfigFieldError::UnknownField(other.to_string())),
        }
        Ok(())
    }

    /// The canonical form of this configuration: fields that cannot affect
    /// behaviour under the master switches are reset to their defaults, so
    /// two configurations that simulate identically compare equal.
    ///
    /// This is the equality domain of the pass-subset constructors:
    /// `cfg.only_passes(&cfg.active_passes())` reproduces `cfg.normalized()`
    /// exactly for the disabled baseline and for every configuration with
    /// at least one active pass. The one degenerate case outside that
    /// domain is a *cost-only* optimizer (`enabled` with no feature
    /// switched on but `extra_stages > 0`, paying pipeline stages to do
    /// nothing): it has no active pass, so every subset of it is the
    /// baseline.
    pub fn normalized(&self) -> OptimizerConfig {
        let defaults = OptimizerConfig::default();
        let featureless = !self.optimize && !self.value_feedback && !self.enable_early_exec;
        if !self.enabled || (featureless && self.extra_stages == 0) {
            // A disabled optimizer is a plain renamer; nothing else matters.
            return OptimizerConfig {
                enabled: false,
                optimize: false,
                value_feedback: false,
                feedback_delay: defaults.feedback_delay,
                extra_stages: 0,
                add_chain_depth: 0,
                mem_chain_depth: 0,
                mbc_entries: defaults.mbc_entries,
                flush_mbc_on_unknown_store: false,
                enable_rle_sf: false,
                enable_reassociation: false,
                enable_branch_inference: false,
                enable_early_exec: false,
                discrete_interval: 0,
            };
        }
        let mut c = *self;
        if !c.optimize {
            c.enable_rle_sf = false;
            c.enable_reassociation = false;
            c.enable_branch_inference = false;
            c.discrete_interval = 0;
        }
        if !c.enable_reassociation {
            // The serial-addition budget bounds reassociation chains.
            c.add_chain_depth = 0;
        }
        if !c.enable_rle_sf {
            c.mbc_entries = defaults.mbc_entries;
            c.flush_mbc_on_unknown_store = false;
            c.mem_chain_depth = 0;
        }
        if !c.value_feedback {
            c.feedback_delay = defaults.feedback_delay;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = OptimizerConfig::default();
        assert!(c.enabled && c.optimize && c.value_feedback);
        assert_eq!(c.feedback_delay, 1);
        assert_eq!(c.extra_stages, 2);
        assert_eq!(c.add_chain_depth, 0);
        assert_eq!(c.mem_chain_depth, 0);
        assert_eq!(c.mbc_entries, 128);
        assert!(!c.flush_mbc_on_unknown_store);
    }

    #[test]
    fn baseline_is_inert() {
        let c = OptimizerConfig::baseline();
        assert!(!c.enabled);
        assert_eq!(c.extra_stages, 0);
    }

    #[test]
    fn feedback_only_disables_transforms() {
        let c = OptimizerConfig::feedback_only();
        assert!(c.enabled && c.value_feedback && !c.optimize);
        assert!(!c.enable_rle_sf && !c.enable_reassociation);
        assert_eq!(c.extra_stages, 2, "still pays the pipeline cost");
    }

    #[test]
    fn discrete_mode_sets_interval() {
        assert_eq!(OptimizerConfig::default().discrete_interval, 0);
        assert_eq!(OptimizerConfig::discrete(256).discrete_interval, 256);
    }

    #[test]
    fn serial_add_budget() {
        let mut c = OptimizerConfig::default();
        assert_eq!(c.max_serial_adds(), 1);
        c.add_chain_depth = 3;
        assert_eq!(c.max_serial_adds(), 4);
    }

    #[test]
    fn field_bridge_round_trips_every_field() {
        // A config differing from baseline in every field: replaying its
        // fields() onto a baseline must reproduce it exactly.
        let src = OptimizerConfig {
            enabled: true,
            optimize: true,
            value_feedback: true,
            feedback_delay: 5,
            extra_stages: 4,
            add_chain_depth: 3,
            mem_chain_depth: 1,
            mbc_entries: 64,
            flush_mbc_on_unknown_store: true,
            enable_rle_sf: true,
            enable_reassociation: true,
            enable_branch_inference: true,
            enable_early_exec: true,
            discrete_interval: 256,
        };
        let mut dst = OptimizerConfig::baseline();
        for (name, value) in src.fields() {
            dst.set_field(name, value).unwrap();
        }
        assert_eq!(dst, src);
    }

    #[test]
    fn field_bridge_errors_are_typed() {
        let mut c = OptimizerConfig::default();
        assert_eq!(
            c.set_field("frobnicate", ConfigScalar::Bool(true)),
            Err(ConfigFieldError::UnknownField("frobnicate".into()))
        );
        assert_eq!(
            c.set_field("enabled", ConfigScalar::UInt(1)),
            Err(ConfigFieldError::WrongType {
                field: "enabled",
                expected: "bool"
            })
        );
        assert_eq!(
            c.set_field("mbc_entries", ConfigScalar::Bool(false)),
            Err(ConfigFieldError::WrongType {
                field: "mbc_entries",
                expected: "unsigned integer"
            })
        );
        assert_eq!(
            c.set_field("add_chain_depth", ConfigScalar::UInt(u64::MAX)),
            Err(ConfigFieldError::OutOfRange {
                field: "add_chain_depth"
            })
        );
        // Failed updates leave the config untouched.
        assert_eq!(c, OptimizerConfig::default());
    }
}
