//! The optimizer's four mechanisms, and ablation subsets of a
//! configuration.
//!
//! The continuous optimizer of *Continuous Optimization* (ISCA 2005) is
//! one rename-stage unit applying a small set of cooperating table
//! updates to every renamed instruction. [`OptimizerConfig`] switches
//! each of its four mechanisms, the stock **passes** named by [`PassId`],
//! on and off and carries their parameters:
//!
//! | Pass                        | Paper section | Fields | What it contributes |
//! |-----------------------------|---------------|--------|---------------------|
//! | [`PassId::CpRa`]            | §3, §3.1      | `optimize`, `enable_reassociation`, `enable_branch_inference`, `add_chain_depth` | Constant propagation and reassociation: RAT entries carry `(base << scale) ± offset` symbols folded through adds, shifts, and scaled adds, bounded by the serial-addition budget |
//! | [`PassId::RleSf`]           | §3.2          | `enable_rle_sf`, `mbc_entries`, `flush_mbc_on_unknown_store`, `mem_chain_depth` | Redundant load elimination and store forwarding through the Memory Bypass Cache |
//! | [`PassId::ValueFeedback`]   | §4, §4.2      | `value_feedback`, `feedback_delay` | Execution results CAM-convert symbolic table entries into known constants after a transmission delay |
//! | [`PassId::EarlyExec`]       | §3.3          | `enable_early_exec` | Fully-known instructions execute on the rename-stage ALUs and fully-known branches resolve there |
//!
//! The engine-level split of the same code lives in the crate-private
//! submodules `cp_ra` (ALU/`lda` folding), `rle_sf` (loads/stores and MBC
//! forwarding), `early_exec` (branch/call resolution), and `feedback`
//! (result integration).
//!
//! # Ablations as pass subsets
//!
//! The paper's evaluation scenarios are subsets of the default optimizer's
//! passes, built by [`OptimizerConfig::only_passes`] and
//! [`OptimizerConfig::without_passes`]:
//!
//! ```
//! use contopt::passes::PassId;
//! use contopt::OptimizerConfig;
//!
//! // Figure 9's "value feedback alone":
//! let feedback_only =
//!     OptimizerConfig::default().only_passes(&[PassId::ValueFeedback, PassId::EarlyExec]);
//! assert_eq!(feedback_only, OptimizerConfig::feedback_only().normalized());
//!
//! // CP/RA alone (no memory bypassing, no feedback):
//! let cp_ra_only = OptimizerConfig::default().only_passes(&[PassId::CpRa, PassId::EarlyExec]);
//! assert!(cp_ra_only.optimize);
//! assert!(!cp_ra_only.enable_rle_sf);
//! ```

pub(crate) mod cp_ra;
pub(crate) mod early_exec;
pub(crate) mod feedback;
pub(crate) mod rle_sf;

use crate::config::OptimizerConfig;

/// Identity of a stock pass: the name under which [`crate::PassStats`]
/// reports its counters and ablations remove or keep it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassId {
    /// Constant propagation / reassociation (§3).
    CpRa,
    /// Redundant load elimination / store forwarding (§3.2).
    RleSf,
    /// Value feedback (§4).
    ValueFeedback,
    /// Early execution and early branch resolution (§3.3).
    EarlyExec,
}

impl PassId {
    /// Every stock pass, in pipeline (and report) order.
    pub const ALL: [PassId; 4] = [
        PassId::CpRa,
        PassId::RleSf,
        PassId::ValueFeedback,
        PassId::EarlyExec,
    ];

    /// Looks a stock pass up by its [`name`](Self::name) (`"cp-ra"`,
    /// `"rle-sf"`, `"value-feedback"`, `"early-exec"`).
    pub fn from_name(name: &str) -> Option<PassId> {
        PassId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PassId::CpRa => "cp-ra",
            PassId::RleSf => "rle-sf",
            PassId::ValueFeedback => "value-feedback",
            PassId::EarlyExec => "early-exec",
        }
    }
}

/// Stock-pass subsets of a configuration: the counterfactual constructors
/// the ablation engine uses. Every leave-one-out and keep-only-one machine
/// is the same configuration with a pass subset removed or kept.
impl OptimizerConfig {
    /// The stock passes active in this configuration, in [`PassId::ALL`]
    /// order (empty for the baseline). CP/RA counts as active whenever
    /// `optimize` is on, unless RLE/SF runs without reassociation and
    /// branch inference: that configuration is RLE/SF alone. A cost-only
    /// optimizer (enabled, no mechanism on, `extra_stages > 0`) has no
    /// active pass.
    pub fn active_passes(&self) -> Vec<PassId> {
        let c = self.normalized();
        PassId::ALL.into_iter().filter(|&id| c.runs(id)).collect()
    }

    /// This configuration with the listed stock passes removed and every
    /// other pass's parameters (and the pipeline cost) intact. Removing a
    /// pass that is not active is the identity on the normalized form, so
    /// the result lands in the same simulation cell — an ablation of an
    /// inactive pass measures exactly zero marginal cycles without
    /// simulating anything new. Removing the last active pass yields the
    /// baseline machine.
    pub fn without_passes(&self, removed: &[PassId]) -> OptimizerConfig {
        self.keep_passes(|id| !removed.contains(&id))
    }

    /// This configuration reduced to only the listed stock passes (the
    /// add-one-in direction of an ablation matrix), keeping their
    /// parameters and the pipeline cost. Keeping no active pass yields the
    /// baseline machine.
    pub fn only_passes(&self, kept: &[PassId]) -> OptimizerConfig {
        self.keep_passes(|id| kept.contains(&id))
    }

    /// Whether stock pass `id` runs under this normalized configuration.
    fn runs(&self, id: PassId) -> bool {
        match id {
            PassId::CpRa => {
                self.optimize
                    && (self.enable_reassociation
                        || self.enable_branch_inference
                        || !self.enable_rle_sf)
            }
            PassId::RleSf => self.enable_rle_sf,
            PassId::ValueFeedback => self.value_feedback,
            PassId::EarlyExec => self.enable_early_exec,
        }
    }

    /// Switches off every active pass `keep` rejects. A dropped pass's
    /// parameters fall back to their defaults through
    /// [`normalized`](Self::normalized), and dropping every pass disables
    /// the optimizer: the baseline machine.
    fn keep_passes(&self, keep: impl Fn(PassId) -> bool) -> OptimizerConfig {
        let mut c = self.normalized();
        let [cp_ra, rle_sf, feedback, early_exec] = PassId::ALL.map(|id| c.runs(id) && keep(id));
        if !cp_ra {
            c.enable_reassociation = false;
            c.enable_branch_inference = false;
        }
        c.enabled = cp_ra || rle_sf || feedback || early_exec;
        c.optimize = cp_ra || rle_sf;
        c.enable_rle_sf = rle_sf;
        c.value_feedback = feedback;
        c.enable_early_exec = early_exec;
        c.normalized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_the_baseline() {
        let cfg = OptimizerConfig::default().only_passes(&[]);
        assert_eq!(cfg, OptimizerConfig::baseline().normalized());
        assert!(!cfg.enabled);
    }

    #[test]
    fn standard_passes_reproduce_the_default_config() {
        let cfg = OptimizerConfig::default().only_passes(&PassId::ALL);
        assert_eq!(cfg, OptimizerConfig::default().normalized());
        assert_eq!(cfg, OptimizerConfig::default());
    }

    #[test]
    fn feedback_only_as_a_pass_list() {
        let cfg =
            OptimizerConfig::default().only_passes(&[PassId::ValueFeedback, PassId::EarlyExec]);
        assert_eq!(cfg, OptimizerConfig::feedback_only().normalized());
    }

    #[test]
    fn presets_round_trip_through_the_bridges() {
        for cfg in [
            OptimizerConfig::default(),
            OptimizerConfig::baseline(),
            OptimizerConfig::feedback_only(),
            OptimizerConfig::discrete(256),
            OptimizerConfig {
                add_chain_depth: 3,
                mem_chain_depth: 1,
                mbc_entries: 64,
                feedback_delay: 5,
                extra_stages: 4,
                ..OptimizerConfig::default()
            },
        ] {
            // Decomposing into the active passes and keeping them all
            // rebuilds the normalized configuration.
            let passes = cfg.active_passes();
            assert_eq!(cfg.only_passes(&passes), cfg.normalized(), "{cfg:?}");
        }
    }

    #[test]
    fn contains_and_iter_see_stock_ids() {
        let cfg = OptimizerConfig::default().only_passes(&[PassId::CpRa, PassId::EarlyExec]);
        let active = cfg.active_passes();
        assert!(active.contains(&PassId::CpRa));
        assert!(active.contains(&PassId::EarlyExec));
        assert!(!active.contains(&PassId::RleSf));
        assert_eq!(active.len(), 2);
    }

    #[test]
    fn rle_sf_only_is_expressible() {
        let cfg = OptimizerConfig::default().only_passes(&[PassId::RleSf, PassId::EarlyExec]);
        assert!(cfg.optimize && cfg.enable_rle_sf);
        assert!(!cfg.enable_reassociation && !cfg.enable_branch_inference);
        // And it decomposes back into exactly those passes.
        assert_eq!(cfg.active_passes(), [PassId::RleSf, PassId::EarlyExec]);
        assert_eq!(cfg.only_passes(&cfg.active_passes()), cfg);
    }

    #[test]
    fn pass_id_name_round_trips() {
        for id in PassId::ALL {
            assert_eq!(PassId::from_name(id.name()), Some(id));
        }
        assert_eq!(PassId::from_name("engine"), None);
        assert_eq!(PassId::from_name("cp_ra"), None, "names are hyphenated");
    }

    #[test]
    fn active_passes_reflect_the_decomposition() {
        assert_eq!(
            OptimizerConfig::default().active_passes(),
            PassId::ALL.to_vec()
        );
        assert!(OptimizerConfig::baseline().active_passes().is_empty());
        assert_eq!(
            OptimizerConfig::feedback_only().active_passes(),
            [PassId::ValueFeedback, PassId::EarlyExec]
        );
    }

    #[test]
    fn without_passes_is_leave_one_out() {
        let full = OptimizerConfig {
            mbc_entries: 64,
            feedback_delay: 5,
            extra_stages: 4,
            ..OptimizerConfig::default()
        };
        // Removing RLE/SF keeps the other passes' parameters and the
        // pipeline cost intact.
        let no_rle = full.without_passes(&[PassId::RleSf]);
        assert!(!no_rle.enable_rle_sf);
        assert_eq!(no_rle.feedback_delay, 5, "value-feedback params survive");
        assert_eq!(no_rle.extra_stages, 4, "pipeline cost survives");
        assert_eq!(
            no_rle.active_passes(),
            [PassId::CpRa, PassId::ValueFeedback, PassId::EarlyExec]
        );
        // Removing an inactive pass is the identity on the normalized form.
        let feedback_only = OptimizerConfig::feedback_only();
        assert_eq!(
            feedback_only.without_passes(&[PassId::RleSf]),
            feedback_only.normalized()
        );
        // Removing every pass is the baseline.
        assert_eq!(
            full.without_passes(&PassId::ALL),
            OptimizerConfig::baseline().normalized()
        );
    }

    #[test]
    fn only_passes_is_add_one_in() {
        let full = OptimizerConfig::default();
        let only_vf = full.only_passes(&[PassId::ValueFeedback]);
        assert!(only_vf.enabled && only_vf.value_feedback);
        assert!(!only_vf.optimize && !only_vf.enable_early_exec);
        assert_eq!(only_vf.extra_stages, 2, "still pays the pipeline cost");
        assert_eq!(only_vf.active_passes(), [PassId::ValueFeedback]);
        // Keeping a pass the config never had yields the baseline.
        assert_eq!(
            OptimizerConfig::feedback_only().only_passes(&[PassId::RleSf]),
            OptimizerConfig::baseline().normalized()
        );
    }

    #[test]
    fn subset_drops_custom_passes_but_keeps_stock_parameters() {
        let cfg = OptimizerConfig {
            add_chain_depth: 3,
            mem_chain_depth: 1,
            ..OptimizerConfig::default()
        };
        let kept = cfg.only_passes(&[PassId::CpRa]);
        assert_eq!(kept.add_chain_depth, 3, "CP/RA parameters preserved");
        assert!(!kept.enable_rle_sf);
        assert_eq!(kept.mem_chain_depth, 0, "RLE/SF parameters gone");
    }

    /// Every combination of the eight switches and two values of each of
    /// the six numeric fields: 2^8 x 2^6 = 16,384 configurations.
    fn grid() -> impl Iterator<Item = OptimizerConfig> {
        (0u32..1 << 14).map(|bits| {
            let on = |i: u32| bits & (1 << i) != 0;
            let pick = |i: u32, a: u64, b: u64| if on(i) { b } else { a };
            OptimizerConfig {
                enabled: on(0),
                optimize: on(1),
                value_feedback: on(2),
                flush_mbc_on_unknown_store: on(3),
                enable_rle_sf: on(4),
                enable_reassociation: on(5),
                enable_branch_inference: on(6),
                enable_early_exec: on(7),
                feedback_delay: pick(8, 1, 5),
                extra_stages: pick(9, 0, 3),
                add_chain_depth: pick(10, 0, 3) as u32,
                mem_chain_depth: pick(11, 0, 1) as u32,
                mbc_entries: pick(12, 128, 64) as usize,
                discrete_interval: pick(13, 0, 256),
            }
        })
    }

    #[test]
    fn subset_constructors_are_pinned_over_the_config_grid() {
        use crate::config::ConfigScalar;
        use contopt_emu::{fnv1a, STREAM_DIGEST_INIT};
        fn eat(h: u64, cfg: OptimizerConfig) -> u64 {
            cfg.fields().iter().fold(h, |h, (_, v)| match *v {
                ConfigScalar::Bool(b) => fnv1a(h, &[b as u8]),
                ConfigScalar::UInt(n) => fnv1a(h, &n.to_le_bytes()),
            })
        }
        let subsets: Vec<Vec<PassId>> = (0..16)
            .map(|m| {
                PassId::ALL
                    .into_iter()
                    .enumerate()
                    .filter(|&(i, _)| m & (1 << i) != 0)
                    .map(|(_, id)| id)
                    .collect()
            })
            .collect();
        let mut h = STREAM_DIGEST_INIT;
        for cfg in grid() {
            for id in cfg.active_passes() {
                h = fnv1a(h, id.name().as_bytes());
            }
            h = fnv1a(h, &[0]);
            for s in &subsets {
                h = eat(h, cfg.only_passes(s));
                h = eat(h, cfg.without_passes(s));
            }
        }
        assert_eq!(
            h, 0x1f75_43dd_e429_2c25,
            "subset constructors changed: {h:#018x}"
        );
    }

    #[test]
    fn engine_options_ride_on_the_set() {
        let cfg = OptimizerConfig {
            extra_stages: 4,
            ..OptimizerConfig::discrete(512)
        }
        .only_passes(&[PassId::CpRa]);
        assert_eq!(cfg.extra_stages, 4);
        assert_eq!(cfg.discrete_interval, 512);
    }
}
