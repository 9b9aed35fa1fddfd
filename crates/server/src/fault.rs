//! Deterministic fault injection for the sweep service.
//!
//! A [`FaultPlan`] scripts failures into a running server so the
//! recovery machinery — per-cell `catch_unwind` isolation, client
//! retries, deadlines — can be exercised deterministically in tests and
//! soak runs. The module only exists under
//! `cfg(any(test, feature = "fault-injection"))`; a production build
//! carries none of it.
//!
//! Five fault kinds are supported:
//!
//! * **cell panic** — the next simulation of a named workload panics
//!   (exercises per-cell isolation and `cell_error` delivery);
//! * **connection drop** — the connection closes after N complete
//!   response frames (exercises mid-stream client retry);
//! * **frame truncation** — response frame N is cut in half and the
//!   connection closes (exercises framing-level recovery);
//! * **artificial delay** — every response frame is delayed, jittered
//!   deterministically from the plan's seed (exercises deadlines that
//!   should *not* fire);
//! * **black hole** — the request is read and never answered (exercises
//!   the client's read deadline).
//!
//! Each directive carries a *budget* (how many times it fires, default
//! once); consumption is atomic, so a plan's effect is a deterministic
//! function of the plan and the order of connections — there is no
//! ambient randomness anywhere. The `contopt-server` binary accepts a
//! plan from the `CONTOPT_FAULTS` environment variable when built with
//! `--features fault-injection` (see [`FaultPlan::parse`] for the
//! grammar).

use contopt_sim::workloads::splitmix64;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Budget value meaning "fires every time".
const UNLIMITED: u64 = u64::MAX;

#[derive(Debug)]
enum FaultKind {
    /// Panic when simulating this workload.
    PanicCell { workload: String },
    /// Close the connection after this many complete response frames.
    DropAfterFrames { frames: u64 },
    /// Write half of this response frame (1-based), then close.
    TruncateFrame { frame: u64 },
    /// Sleep before each response frame, jittered by the plan seed.
    DelayFrames { millis: u64 },
    /// Read the request, never respond.
    BlackHole,
}

#[derive(Debug)]
struct Directive {
    kind: FaultKind,
    budget: AtomicU64,
}

impl Directive {
    /// Consumes one firing; `false` once the budget is spent.
    fn take(&self) -> bool {
        self.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                if b == UNLIMITED {
                    Some(UNLIMITED)
                } else {
                    b.checked_sub(1)
                }
            })
            .is_ok()
    }
}

/// A scripted, deterministic set of faults to inject into a server.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    directives: Vec<Directive>,
}

/// A malformed fault-plan specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError(String);

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultPlanError {}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sets the seed driving delay jitter.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    fn push(mut self, kind: FaultKind, times: u64) -> FaultPlan {
        self.directives.push(Directive {
            kind,
            budget: AtomicU64::new(times),
        });
        self
    }

    /// The next `times` simulations of `workload` panic.
    pub fn panic_on(self, workload: &str, times: u64) -> FaultPlan {
        self.push(
            FaultKind::PanicCell {
                workload: workload.to_string(),
            },
            times,
        )
    }

    /// The next `times` connections close after `frames` complete
    /// response frames.
    pub fn drop_after(self, frames: u64, times: u64) -> FaultPlan {
        self.push(FaultKind::DropAfterFrames { frames }, times)
    }

    /// The next `times` connections truncate response frame number
    /// `frame` (1-based) halfway and close.
    pub fn truncate_frame(self, frame: u64, times: u64) -> FaultPlan {
        self.push(FaultKind::TruncateFrame { frame }, times)
    }

    /// Every response frame on every connection is delayed by roughly
    /// `millis` (jittered within `[millis/2, millis]` by the seed).
    pub fn delay_frames(self, millis: u64) -> FaultPlan {
        self.push(FaultKind::DelayFrames { millis }, UNLIMITED)
    }

    /// The next `times` connections are black holes: the request is
    /// read and never answered.
    pub fn black_hole(self, times: u64) -> FaultPlan {
        self.push(FaultKind::BlackHole, times)
    }

    /// Parses a comma-separated directive list, the `CONTOPT_FAULTS`
    /// grammar:
    ///
    /// ```text
    /// panic=WORKLOAD[*N]     N cell panics on WORKLOAD (default 1)
    /// drop-after=F[*N]       close after F response frames, N times
    /// truncate=F[*N]         truncate response frame F, N times
    /// delay-ms=MS            delay every response frame ~MS ms
    /// blackhole[*N]          swallow N requests without answering
    /// seed=S                 seed for the delay jitter (default 0)
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::new();
        for raw in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (head, times) = match raw.rsplit_once('*') {
                Some((head, n)) => (
                    head,
                    n.parse::<u64>()
                        .map_err(|_| FaultPlanError(format!("bad repeat count in {raw:?}")))?,
                ),
                None => (raw, 1),
            };
            let (name, value) = match head.split_once('=') {
                Some((n, v)) => (n, Some(v)),
                None => (head, None),
            };
            let number = |what: &str| -> Result<u64, FaultPlanError> {
                value
                    .ok_or_else(|| FaultPlanError(format!("{name} requires ={what}")))?
                    .parse::<u64>()
                    .map_err(|_| FaultPlanError(format!("bad {what} in {raw:?}")))
            };
            plan = match name {
                "panic" => {
                    let workload = value
                        .ok_or_else(|| FaultPlanError("panic requires =WORKLOAD".to_string()))?;
                    plan.panic_on(workload, times)
                }
                "drop-after" => plan.drop_after(number("frame count")?, times),
                "truncate" => plan.truncate_frame(number("frame number")?, times),
                "delay-ms" => plan.delay_frames(number("milliseconds")?),
                "blackhole" => plan.black_hole(times),
                "seed" => plan.with_seed(number("seed")?),
                other => return Err(FaultPlanError(format!("unknown directive {other:?}"))),
            };
        }
        Ok(plan)
    }

    /// Reads a plan from `CONTOPT_FAULTS`, if set.
    pub fn from_env() -> Result<Option<FaultPlan>, FaultPlanError> {
        match std::env::var("CONTOPT_FAULTS") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Consumes a cell-panic directive for `workload`, if one is armed.
    pub(crate) fn take_panic(&self, workload: &str) -> bool {
        self.directives.iter().any(|d| {
            matches!(&d.kind, FaultKind::PanicCell { workload: w } if w == workload) && d.take()
        })
    }

    /// Claims this connection's faults (consuming budgets atomically).
    pub(crate) fn claim_connection(&self) -> ConnFaults {
        let mut conn = ConnFaults::none();
        for d in &self.directives {
            match &d.kind {
                FaultKind::BlackHole if conn.blackhole.is_none() && d.take() => {
                    conn.blackhole = Some(true);
                }
                FaultKind::DropAfterFrames { frames } if conn.drop_after.is_none() && d.take() => {
                    conn.drop_after = Some(*frames);
                }
                FaultKind::TruncateFrame { frame } if conn.truncate_at.is_none() && d.take() => {
                    conn.truncate_at = Some(*frame);
                }
                FaultKind::DelayFrames { millis } if conn.delay.is_none() => {
                    conn.delay = Some((*millis, self.seed));
                }
                _ => {}
            }
        }
        conn
    }
}

/// What happens to the next response frame.
pub(crate) enum FrameFate {
    /// Write it normally.
    Send,
    /// Write the length prefix and half the payload, then close.
    Truncate,
    /// Close without writing anything.
    Drop,
}

/// The faults claimed by one connection, applied as frames go out.
pub(crate) struct ConnFaults {
    blackhole: Option<bool>,
    drop_after: Option<u64>,
    truncate_at: Option<u64>,
    delay: Option<(u64, u64)>,
    frames: u64,
}

impl ConnFaults {
    pub(crate) fn none() -> ConnFaults {
        ConnFaults {
            blackhole: None,
            drop_after: None,
            truncate_at: None,
            delay: None,
            frames: 0,
        }
    }

    /// Whether this connection should swallow its request silently.
    pub(crate) fn black_hole(&self) -> bool {
        self.blackhole == Some(true)
    }

    /// Advances the frame counter and decides this frame's fate,
    /// sleeping out any armed delay first.
    pub(crate) fn before_frame(&mut self) -> FrameFate {
        self.frames += 1;
        if self.truncate_at == Some(self.frames) {
            return FrameFate::Truncate;
        }
        if self.drop_after.is_some_and(|n| self.frames > n) {
            return FrameFate::Drop;
        }
        if let Some((millis, seed)) = self.delay {
            let half = millis / 2;
            let jitter = if half == 0 {
                0
            } else {
                splitmix64(seed.wrapping_add(self.frames)) % (half + 1)
            };
            std::thread::sleep(Duration::from_millis(half + jitter));
        }
        FrameFate::Send
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let plan = FaultPlan::parse(
            "panic=twf*2, drop-after=3, truncate=1, delay-ms=10, blackhole, seed=7",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.directives.len(), 5);
        assert!(plan.take_panic("twf"));
        assert!(plan.take_panic("twf"), "budget of 2");
        assert!(!plan.take_panic("twf"), "budget spent");
        assert!(!plan.take_panic("untst"), "only the named workload");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("panic").is_err(), "panic needs a workload");
        assert!(FaultPlan::parse("drop-after=x").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("panic=twf*x").is_err());
        assert!(FaultPlan::parse("").unwrap().directives.is_empty());
    }

    #[test]
    fn connection_budgets_are_consumed_in_order() {
        let plan = FaultPlan::parse("blackhole, drop-after=2").unwrap();
        let first = plan.claim_connection();
        assert!(first.black_hole());
        let second = plan.claim_connection();
        assert!(!second.black_hole(), "blackhole budget spent");
        assert_eq!(second.drop_after, None, "first connection claimed it");
        // (The first connection claimed both: blackhole wins since it
        // fires before any frame is written.)
        assert_eq!(first.drop_after, Some(2));
    }

    #[test]
    fn frame_fates_follow_the_plan() {
        let plan = FaultPlan::parse("drop-after=2").unwrap();
        let mut conn = plan.claim_connection();
        assert!(matches!(conn.before_frame(), FrameFate::Send));
        assert!(matches!(conn.before_frame(), FrameFate::Send));
        assert!(matches!(conn.before_frame(), FrameFate::Drop));

        let plan = FaultPlan::parse("truncate=2").unwrap();
        let mut conn = plan.claim_connection();
        assert!(matches!(conn.before_frame(), FrameFate::Send));
        assert!(matches!(conn.before_frame(), FrameFate::Truncate));
    }

    #[test]
    fn delay_jitter_is_deterministic_by_seed() {
        let jitter = |seed: u64, frame: u64| splitmix64(seed.wrapping_add(frame)) % 51;
        assert_eq!(jitter(1, 1), jitter(1, 1));
        // Not a strong claim — just that the seed actually participates.
        assert!((1..=16).any(|f| jitter(1, f) != jitter(2, f)));
    }
}
