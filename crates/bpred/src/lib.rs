//! # contopt-bpred — branch prediction
//!
//! The front-end predictor of Table 2 in *Continuous Optimization*
//! (ISCA 2005): an 18-bit-history gshare direction predictor with 2-bit
//! saturating counters, a 1K-entry branch target buffer, and a return
//! address stack for `ret`-style indirect jumps.
//!
//! The simulator is trace-driven from a functional oracle, so predictor
//! state is updated with the true outcome immediately after each prediction
//! (the standard trace-driven idiom; with a stall-on-mispredict pipeline
//! there is no wrong-path history to repair).
//!
//! # Examples
//!
//! ```
//! use contopt_bpred::{Predictor, PredictorConfig};
//! let mut p = Predictor::new(PredictorConfig::default());
//! // Train a loop branch at 0x1000 that is always taken to 0x0800. The
//! // global history register must saturate before its PHT index is stable.
//! for _ in 0..40 {
//!     p.update_cond(0x1000, true, 0x0800);
//! }
//! assert!(p.predict_cond(0x1000).taken);
//! assert_eq!(p.predict_cond(0x1000).target, Some(0x0800));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Configuration for the predictor complex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredictorConfig {
    /// gshare global-history length in bits (Table 2: 18).
    pub history_bits: u32,
    /// BTB entries, direct-mapped (Table 2: 1024).
    pub btb_entries: usize,
    /// Return-address-stack depth.
    pub ras_entries: usize,
}

/// The longest global history the gshare table is built for: the pattern
/// table has `2^history_bits` counters.
pub const MAX_HISTORY_BITS: u32 = 24;

impl PredictorConfig {
    /// Checks what [`Predictor::new`] relies on: a history of at most
    /// [`MAX_HISTORY_BITS`], a power-of-two BTB and a return-address stack
    /// with room for one return.
    pub fn check(&self) -> Result<(), PredictorConfigError> {
        if self.history_bits > MAX_HISTORY_BITS {
            return Err(PredictorConfigError::HistoryTooLong(self.history_bits));
        }
        if !self.btb_entries.is_power_of_two() {
            return Err(PredictorConfigError::BtbNotPowerOfTwo(self.btb_entries));
        }
        if self.ras_entries == 0 {
            return Err(PredictorConfigError::ZeroRasEntries);
        }
        Ok(())
    }
}

/// Why a [`PredictorConfig`] cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorConfigError {
    /// The global history (carried, in bits) exceeds [`MAX_HISTORY_BITS`].
    HistoryTooLong(u32),
    /// The direct-mapped BTB's size (carried) is not a power of two.
    BtbNotPowerOfTwo(usize),
    /// The return-address stack has no entries.
    ZeroRasEntries,
}

impl std::fmt::Display for PredictorConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictorConfigError::HistoryTooLong(bits) => write!(
                f,
                "{bits} history bits exceed the {MAX_HISTORY_BITS}-bit gshare table"
            ),
            PredictorConfigError::BtbNotPowerOfTwo(n) => {
                write!(f, "BTB size ({n} entries) must be a power of two")
            }
            PredictorConfigError::ZeroRasEntries => {
                write!(f, "the return-address stack needs at least one entry")
            }
        }
    }
}

impl std::error::Error for PredictorConfigError {}

impl Default for PredictorConfig {
    fn default() -> PredictorConfig {
        PredictorConfig {
            history_bits: 18,
            btb_entries: 1024,
            ras_entries: 16,
        }
    }
}

/// Outcome of a direction+target prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target, if the BTB held one.
    pub target: Option<u64>,
}

/// Prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional-branch direction predictions made.
    pub cond_predictions: u64,
    /// Conditional-branch direction mispredictions.
    pub cond_mispredictions: u64,
    /// Indirect-jump target predictions made.
    pub indirect_predictions: u64,
    /// Indirect-jump target mispredictions.
    pub indirect_mispredictions: u64,
}

impl PredictorStats {
    /// Direction accuracy in `[0, 1]`.
    pub fn cond_accuracy(&self) -> f64 {
        if self.cond_predictions == 0 {
            1.0
        } else {
            1.0 - self.cond_mispredictions as f64 / self.cond_predictions as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    tag: u64,
    target: u64,
    valid: bool,
}

/// gshare + BTB + RAS predictor.
#[derive(Debug, Clone)]
pub struct Predictor {
    cfg: PredictorConfig,
    counters: Vec<u8>,
    history: u64,
    history_mask: u64,
    btb: Vec<BtbEntry>,
    ras: Vec<u64>,
    stats: PredictorStats,
}

impl Predictor {
    /// Creates a predictor with all counters weakly-not-taken.
    ///
    /// # Panics
    ///
    /// Panics with the [`PredictorConfigError`] of
    /// [`PredictorConfig::check`] if the history is longer than
    /// [`MAX_HISTORY_BITS`], the BTB size is not a power of two or the
    /// return-address stack has no entries.
    pub fn new(cfg: PredictorConfig) -> Predictor {
        if let Err(e) = cfg.check() {
            panic!("invalid predictor: {e}");
        }
        Predictor {
            counters: vec![1u8; 1 << cfg.history_bits],
            history: 0,
            history_mask: (1u64 << cfg.history_bits) - 1,
            btb: vec![BtbEntry::default(); cfg.btb_entries],
            ras: Vec::with_capacity(cfg.ras_entries),
            stats: PredictorStats::default(),
            cfg,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    #[inline]
    fn pht_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.history_mask) as usize
    }

    #[inline]
    fn btb_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.btb.len() - 1)
    }

    /// Predicts a conditional branch at `pc` (direction from gshare, target
    /// from the BTB). Does not update any state.
    pub fn predict_cond(&self, pc: u64) -> Prediction {
        let taken = self.counters[self.pht_index(pc)] >= 2;
        let e = &self.btb[self.btb_index(pc)];
        let target = (e.valid && e.tag == pc).then_some(e.target);
        Prediction { taken, target }
    }

    /// Trains the predictor with the true outcome of a conditional branch
    /// and returns whether the prediction (direction *and* target when
    /// taken) was correct.
    pub fn update_cond(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        let pred = self.predict_cond(pc);
        self.stats.cond_predictions += 1;
        let mut correct = pred.taken == taken;
        if taken && correct {
            // A taken prediction also needs the right target from the BTB.
            correct = pred.target == Some(target);
        }
        if !correct {
            self.stats.cond_mispredictions += 1;
        }
        let idx = self.pht_index(pc);
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u64) & self.history_mask;
        if taken {
            let slot = self.btb_index(pc);
            self.btb[slot] = BtbEntry {
                tag: pc,
                target,
                valid: true,
            };
        }
        correct
    }

    /// Predicts an indirect jump's target using the BTB (no state change).
    pub fn predict_indirect(&self, pc: u64) -> Option<u64> {
        let e = &self.btb[self.btb_index(pc)];
        (e.valid && e.tag == pc).then_some(e.target)
    }

    /// Trains the BTB with the true target of an indirect jump and returns
    /// whether the prediction was correct.
    pub fn update_indirect(&mut self, pc: u64, target: u64) -> bool {
        let pred = self.predict_indirect(pc);
        self.stats.indirect_predictions += 1;
        let correct = pred == Some(target);
        if !correct {
            self.stats.indirect_mispredictions += 1;
        }
        let slot = self.btb_index(pc);
        self.btb[slot] = BtbEntry {
            tag: pc,
            target,
            valid: true,
        };
        correct
    }

    /// Pushes a return address (call instruction fetched).
    pub fn push_return(&mut self, return_pc: u64) {
        if self.ras.len() == self.cfg.ras_entries {
            self.ras.remove(0);
        }
        self.ras.push(return_pc);
    }

    /// Pops the predicted return target and reports whether it matches the
    /// true target. Counts as an indirect prediction.
    pub fn predict_return(&mut self, actual_target: u64) -> bool {
        self.stats.indirect_predictions += 1;
        let correct = self.ras.pop() == Some(actual_target);
        if !correct {
            self.stats.indirect_mispredictions += 1;
        }
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut p = Predictor::new(PredictorConfig::default());
        // gshare hashes the PC with 18 bits of global history, so an
        // always-taken branch must run long enough for the history register
        // to saturate to all-ones before its PHT index stabilizes.
        for _ in 0..40 {
            p.update_cond(0x1000, true, 0x2000);
        }
        let pred = p.predict_cond(0x1000);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(0x2000));
    }

    #[test]
    fn taken_prediction_needs_btb_target() {
        let mut p = Predictor::new(PredictorConfig::default());
        for _ in 0..40 {
            p.update_cond(0x1000, true, 0x2000);
        }
        // Same PC, changed target: direction right, target wrong.
        let before = p.stats().cond_mispredictions;
        assert!(!p.update_cond(0x1000, true, 0x3000));
        assert_eq!(p.stats().cond_mispredictions, before + 1);
    }

    #[test]
    fn learns_alternating_with_history() {
        let mut p = Predictor::new(PredictorConfig::default());
        let mut wrong = 0;
        for i in 0..2000u64 {
            let taken = i % 2 == 0;
            if !p.update_cond(0x4000, taken, 0x5000) {
                wrong += 1;
            }
        }
        assert!(
            wrong < 100,
            "gshare should learn an alternating pattern (wrong={wrong})"
        );
    }

    #[test]
    fn not_taken_correct_needs_no_btb() {
        let mut p = Predictor::new(PredictorConfig::default());
        assert!(p.update_cond(0x6000, false, 0));
        assert_eq!(p.stats().cond_mispredictions, 0);
    }

    #[test]
    fn ras_predicts_calls_returns() {
        let mut p = Predictor::new(PredictorConfig::default());
        p.push_return(0x1004);
        p.push_return(0x2004);
        assert!(p.predict_return(0x2004));
        assert!(p.predict_return(0x1004));
        assert!(!p.predict_return(0x3004), "empty stack mispredicts");
        assert_eq!(p.stats().indirect_mispredictions, 1);
    }

    #[test]
    fn ras_depth_bounded() {
        let mut p = Predictor::new(PredictorConfig {
            ras_entries: 2,
            ..PredictorConfig::default()
        });
        p.push_return(0x1);
        p.push_return(0x2);
        p.push_return(0x3); // evicts 0x1
        assert!(p.predict_return(0x3));
        assert!(p.predict_return(0x2));
        assert!(!p.predict_return(0x1));
    }

    #[test]
    #[should_panic(expected = "return-address stack needs at least one entry")]
    fn zero_ras_entries_are_rejected() {
        let cfg = PredictorConfig {
            ras_entries: 0,
            ..PredictorConfig::default()
        };
        assert_eq!(cfg.check(), Err(PredictorConfigError::ZeroRasEntries));
        Predictor::new(cfg);
    }

    #[test]
    fn indirect_btb() {
        let mut p = Predictor::new(PredictorConfig::default());
        assert!(!p.update_indirect(0x7000, 0x9000), "cold miss");
        assert!(p.update_indirect(0x7000, 0x9000), "learned");
        assert!(!p.update_indirect(0x7000, 0xa000), "target changed");
    }

    #[test]
    fn accuracy_statistic() {
        let mut p = Predictor::new(PredictorConfig::default());
        assert_eq!(p.stats().cond_accuracy(), 1.0);
        for _ in 0..100 {
            p.update_cond(0x1000, true, 0x2000);
        }
        let acc = p.stats().cond_accuracy();
        assert!((0.5..1.0).contains(&acc), "cold start then learned: {acc}");
    }
}
