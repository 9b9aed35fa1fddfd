//! Typed validation errors for the session builder.

use contopt_bpred::PredictorConfigError;
use contopt_mem::GeometryError;
use std::error::Error as StdError;
use std::fmt;

/// Everything [`crate::SimBuilder::build`] can reject.
///
/// The builder never panics on bad input: every structural impossibility
/// in a requested machine becomes one of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The machine's fetch/rename width is zero — no bundle can ever form.
    ZeroRenameWidth,
    /// The machine's retire width is zero — nothing could ever retire.
    ZeroRetireWidth,
    /// The reorder buffer has no entries.
    ZeroRobEntries,
    /// The schedulers have no entries — nothing could ever issue.
    ZeroSchedulerEntries,
    /// A kind of functional unit (the carried `MachineConfig` field name)
    /// has no units, so an instruction that needs one can never issue.
    ZeroFunctionalUnits(&'static str),
    /// The L1 data cache has no ports — no load could ever issue.
    ZeroL1dPorts,
    /// A cache (`"l1i"`, `"l1d"` or `"l2"`) has a geometry the
    /// set-associative model cannot index.
    CacheGeometry {
        /// Which cache of the hierarchy.
        cache: &'static str,
        /// What is wrong with its geometry.
        err: GeometryError,
    },
    /// The branch predictor's configuration cannot be built.
    Predictor(PredictorConfigError),
    /// The machine's delays and latencies add up to at least the deadlock
    /// detector's window, so a correct run could stall long enough to be
    /// taken for a deadlock (or overflow the cycle arithmetic).
    LatencyExceedsDeadlockWindow {
        /// The saturating sum of every delay and latency, in cycles.
        total: u64,
        /// The deadlock detector's window, in cycles.
        window: u64,
    },
    /// The instruction window — the ROB, the fetch queue and one stepped
    /// instruction, rounded up to a power of two — would need more than
    /// `max` slots.
    WindowTooLarge {
        /// The cap on window slots.
        max: usize,
    },
    /// The value-feedback transmission delay exceeds the ROB depth: every
    /// result would arrive after its consumers have long left the window,
    /// which is never a meaningful configuration.
    FeedbackDelayExceedsRob {
        /// Configured transmission delay in cycles.
        delay: u64,
        /// Reorder-buffer entries.
        rob: usize,
    },
    /// The physical register file cannot hold even the architectural state
    /// plus one rename.
    PregFileTooSmall {
        /// Registers required (architectural registers + 1).
        need: usize,
        /// Registers configured.
        have: usize,
    },
    /// The physical register file is larger than the simulator allocates.
    PregFileTooLarge {
        /// The cap on physical registers.
        max: usize,
        /// Registers configured.
        have: usize,
    },
    /// RLE/SF is enabled but the Memory Bypass Cache has zero entries.
    ZeroMbcEntries,
    /// RLE/SF is enabled but the direct-mapped Memory Bypass Cache's size
    /// (carried here) is not a power of two.
    MbcEntriesNotPowerOfTwo(usize),
    /// RLE/SF is enabled with a Memory Bypass Cache larger than the
    /// simulator allocates.
    MbcTooLarge {
        /// The cap on MBC entries.
        max: usize,
        /// Entries configured.
        have: usize,
    },
    /// The dynamic instruction budget is zero.
    ZeroInstructionBudget,
    /// No workload or program was supplied.
    MissingWorkload,
    /// The named workload is not in the Table 1 suite.
    UnknownWorkload(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ZeroRenameWidth => write!(f, "fetch/rename width must be at least 1"),
            Error::ZeroRetireWidth => write!(f, "retire width must be at least 1"),
            Error::ZeroRobEntries => write!(f, "reorder buffer must have at least 1 entry"),
            Error::ZeroSchedulerEntries => write!(f, "schedulers must have at least 1 entry"),
            Error::ZeroFunctionalUnits(field) => write!(f, "{field} must be at least 1"),
            Error::ZeroL1dPorts => write!(f, "the L1 data cache must have at least 1 port"),
            Error::CacheGeometry { cache, err } => write!(f, "{cache} cache: {err}"),
            Error::Predictor(err) => write!(f, "branch predictor: {err}"),
            Error::LatencyExceedsDeadlockWindow { total, window } => write!(
                f,
                "delays and latencies sum to {total} cycles, at least the \
                 {window}-cycle deadlock window"
            ),
            Error::WindowTooLarge { max } => write!(
                f,
                "the instruction window (ROB plus fetch queue) needs more than {max} slots"
            ),
            Error::FeedbackDelayExceedsRob { delay, rob } => write!(
                f,
                "value-feedback delay ({delay} cycles) exceeds the ROB depth ({rob} entries)"
            ),
            Error::PregFileTooSmall { need, have } => write!(
                f,
                "physical register file too small: need at least {need}, have {have}"
            ),
            Error::PregFileTooLarge { max, have } => write!(
                f,
                "physical register file too large: at most {max}, have {have}"
            ),
            Error::ZeroMbcEntries => {
                write!(
                    f,
                    "RLE/SF is enabled but the Memory Bypass Cache has 0 entries"
                )
            }
            Error::MbcEntriesNotPowerOfTwo(n) => write!(
                f,
                "RLE/SF is enabled but the Memory Bypass Cache size ({n} entries) \
                 is not a power of two"
            ),
            Error::MbcTooLarge { max, have } => write!(
                f,
                "Memory Bypass Cache too large: at most {max} entries, have {have}"
            ),
            Error::ZeroInstructionBudget => {
                write!(f, "instruction budget must be at least 1")
            }
            Error::MissingWorkload => {
                write!(f, "no workload: call `workload(name)` or `program(p)`")
            }
            Error::UnknownWorkload(name) => {
                write!(f, "unknown workload `{name}` (not in the Table 1 suite)")
            }
        }
    }
}

impl StdError for Error {}
