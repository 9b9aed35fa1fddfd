//! Machine configuration (Table 2 of the paper).

use contopt::{ConfigFieldError, OptimizerConfig};
use contopt_bpred::PredictorConfig;
use contopt_mem::HierarchyConfig;

/// Full configuration of the simulated machine.
///
/// [`MachineConfig::default_paper`] reproduces Table 2: 4-wide
/// fetch/decode/rename, 6-wide retire, an 18-bit gshare + 1K BTB, a
/// 20-cycle minimum branch-resolution loop, four 8-entry schedulers, a
/// 160-instruction window, 4 simple + 1 complex integer ALUs, 2 FP ALUs,
/// 2 address-generation units, and the three-level memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Instructions fetched, decoded, and renamed per cycle.
    pub fetch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Reorder-buffer entries (maximum in-flight instructions).
    pub rob_entries: usize,
    /// Entries in *each* of the four schedulers (int, complex-int, fp, mem).
    pub scheduler_entries: usize,
    /// Front-end depth in cycles from fetch to rename, exclusive of the
    /// optimizer's extra stages. Calibrated so the minimum branch
    /// misprediction penalty on the baseline is 20 cycles.
    pub front_depth: u64,
    /// Cycles between dispatch and earliest issue (scheduler latency).
    pub sched_delay: u64,
    /// Register-read latency in cycles.
    pub regread_delay: u64,
    /// Cycles from branch resolution to the first redirected fetch.
    pub redirect_delay: u64,
    /// Simple (single-cycle) integer ALUs.
    pub simple_int_fus: usize,
    /// Complex integer ALUs (multiply).
    pub complex_int_fus: usize,
    /// Floating-point ALUs.
    pub fp_fus: usize,
    /// Address-generation units.
    pub agen_fus: usize,
    /// Complex-integer latency in cycles.
    pub complex_latency: u64,
    /// Floating-point latency in cycles.
    pub fp_latency: u64,
    /// Physical register file capacity.
    pub preg_count: usize,
    /// Memory hierarchy parameters.
    pub hierarchy: HierarchyConfig,
    /// Branch predictor parameters.
    pub predictor: PredictorConfig,
    /// Continuous-optimizer parameters.
    pub optimizer: OptimizerConfig,
    /// Safety bound on simulated cycles (0 = none).
    pub max_cycles: u64,
}

impl MachineConfig {
    /// The paper's default ("balanced") machine, *without* the optimizer.
    pub fn default_paper() -> MachineConfig {
        MachineConfig {
            fetch_width: 4,
            retire_width: 6,
            rob_entries: 160,
            scheduler_entries: 8,
            // fetch→rename 14 + sched 2 + regread 2 + exec 1 + redirect 1
            // = 20-cycle minimum branch loop.
            front_depth: 14,
            sched_delay: 2,
            regread_delay: 2,
            redirect_delay: 1,
            simple_int_fus: 4,
            complex_int_fus: 1,
            fp_fus: 2,
            agen_fus: 2,
            complex_latency: 7,
            fp_latency: 4,
            preg_count: 2048,
            hierarchy: HierarchyConfig::default(),
            predictor: PredictorConfig::default(),
            optimizer: OptimizerConfig::baseline(),
            max_cycles: 0,
        }
    }

    /// The default machine with the continuous optimizer enabled
    /// (2 extra rename stages, 128-entry MBC, 1-cycle feedback).
    pub fn default_with_optimizer() -> MachineConfig {
        MachineConfig {
            optimizer: OptimizerConfig::default(),
            ..MachineConfig::default_paper()
        }
    }

    /// Applies an optimizer configuration, returning the modified machine.
    pub fn with_optimizer(mut self, opt: OptimizerConfig) -> MachineConfig {
        self.optimizer = opt;
        self
    }

    /// Minimum branch misprediction penalty in cycles for branches resolved
    /// at execute (the paper's "20 cycles (min) for BR res", plus the
    /// optimizer's extra stages when enabled).
    pub fn min_branch_penalty(&self) -> u64 {
        self.front_depth
            + self.optimizer_extra_stages()
            + self.sched_delay
            + self.regread_delay
            + 1
            + self.redirect_delay
    }

    /// Minimum penalty for branches resolved *in the optimizer*.
    pub fn early_branch_penalty(&self) -> u64 {
        self.front_depth + self.optimizer_extra_stages() + self.redirect_delay
    }

    /// The optimizer's extra rename stages (0 when disabled).
    pub fn optimizer_extra_stages(&self) -> u64 {
        if self.optimizer.enabled {
            self.optimizer.extra_stages
        } else {
            0
        }
    }

    /// Fetch-queue capacity in instructions: the front end's depth plus
    /// eight cycles of fetch at full width. `None` if that overflows.
    pub fn fetch_queue_capacity(&self) -> Option<usize> {
        let cycles = self
            .front_depth
            .checked_add(self.optimizer_extra_stages())?
            .checked_add(8)?;
        usize::try_from(cycles).ok()?.checked_mul(self.fetch_width)
    }

    /// Slots in the machine's instruction window: the power of two above
    /// the ROB, the fetch queue and the one instruction stepped ahead of
    /// fetch. `None` if that overflows. The machine allocates its window
    /// from this, and session validation caps it.
    pub fn window_slots(&self) -> Option<usize> {
        self.rob_entries
            .checked_add(self.fetch_queue_capacity()?)?
            .checked_add(1)?
            .checked_next_power_of_two()
    }

    /// Every scalar field as a `(name, value)` pair, in declaration order —
    /// the serialization half of the scenario-file bridge. The nested
    /// blocks ([`hierarchy`](Self::hierarchy),
    /// [`predictor`](Self::predictor), [`optimizer`](Self::optimizer)) are
    /// excluded; scenario files carry the optimizer through
    /// [`OptimizerConfig::fields`] and pin the hierarchy and predictor to
    /// the paper's defaults.
    pub fn scalar_fields(&self) -> [(&'static str, u64); 16] {
        [
            ("fetch_width", self.fetch_width as u64),
            ("retire_width", self.retire_width as u64),
            ("rob_entries", self.rob_entries as u64),
            ("scheduler_entries", self.scheduler_entries as u64),
            ("front_depth", self.front_depth),
            ("sched_delay", self.sched_delay),
            ("regread_delay", self.regread_delay),
            ("redirect_delay", self.redirect_delay),
            ("simple_int_fus", self.simple_int_fus as u64),
            ("complex_int_fus", self.complex_int_fus as u64),
            ("fp_fus", self.fp_fus as u64),
            ("agen_fus", self.agen_fus as u64),
            ("complex_latency", self.complex_latency),
            ("fp_latency", self.fp_latency),
            ("preg_count", self.preg_count as u64),
            ("max_cycles", self.max_cycles),
        ]
    }

    /// Sets one scalar field by name — the deserialization half of the
    /// scenario-file bridge. Unknown names and overflowing values are
    /// typed errors, never panics.
    pub fn set_scalar_field(&mut self, field: &str, value: u64) -> Result<(), ConfigFieldError> {
        fn usize_of(field: &'static str, value: u64) -> Result<usize, ConfigFieldError> {
            value
                .try_into()
                .map_err(|_| ConfigFieldError::OutOfRange { field })
        }
        match field {
            "fetch_width" => self.fetch_width = usize_of("fetch_width", value)?,
            "retire_width" => self.retire_width = usize_of("retire_width", value)?,
            "rob_entries" => self.rob_entries = usize_of("rob_entries", value)?,
            "scheduler_entries" => self.scheduler_entries = usize_of("scheduler_entries", value)?,
            "front_depth" => self.front_depth = value,
            "sched_delay" => self.sched_delay = value,
            "regread_delay" => self.regread_delay = value,
            "redirect_delay" => self.redirect_delay = value,
            "simple_int_fus" => self.simple_int_fus = usize_of("simple_int_fus", value)?,
            "complex_int_fus" => self.complex_int_fus = usize_of("complex_int_fus", value)?,
            "fp_fus" => self.fp_fus = usize_of("fp_fus", value)?,
            "agen_fus" => self.agen_fus = usize_of("agen_fus", value)?,
            "complex_latency" => self.complex_latency = value,
            "fp_latency" => self.fp_latency = value,
            "preg_count" => self.preg_count = usize_of("preg_count", value)?,
            "max_cycles" => self.max_cycles = value,
            other => return Err(ConfigFieldError::UnknownField(other.to_string())),
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::default_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_penalty_is_twenty() {
        assert_eq!(MachineConfig::default_paper().min_branch_penalty(), 20);
    }

    #[test]
    fn optimizer_adds_two_stages() {
        let c = MachineConfig::default_with_optimizer();
        assert_eq!(c.min_branch_penalty(), 22);
        assert_eq!(c.early_branch_penalty(), 17, "post-rename cycles saved");
    }

    #[test]
    fn machine_model_variants() {
        // §5.3's machines (scenarios/fig8.json) double the 8-entry
        // schedulers or widen the 4-wide front end of Table 2's machine.
        let paper = MachineConfig::default_paper();
        assert_eq!(paper.scheduler_entries, 8);
        assert_eq!(paper.fetch_width, 4);
        assert_eq!(paper.rob_entries, 160);
    }

    #[test]
    fn window_covers_the_rob_and_the_fetch_queue() {
        let base = MachineConfig::default_paper();
        assert_eq!(base.fetch_queue_capacity(), Some((14 + 8) * 4));
        assert_eq!(base.window_slots(), Some(256));
        let opt = MachineConfig::default_with_optimizer();
        assert_eq!(opt.fetch_queue_capacity(), Some((14 + 2 + 8) * 4));
        assert_eq!(opt.window_slots(), Some(512));
        let wide = MachineConfig {
            fetch_width: usize::MAX / 8,
            ..base
        };
        assert_eq!(wide.fetch_queue_capacity(), None);
        assert_eq!(wide.window_slots(), None);
        let deep = MachineConfig {
            rob_entries: usize::MAX - 88,
            ..base
        };
        assert_eq!(deep.window_slots(), None);
    }

    #[test]
    fn scalar_field_bridge_round_trips() {
        // An 8-wide front end differs from the default in fetch_width;
        // replaying its scalar fields onto a default must reproduce it.
        let src = MachineConfig {
            fetch_width: 8,
            ..MachineConfig::default_paper()
        };
        let mut dst = MachineConfig::default_paper();
        for (name, value) in src.scalar_fields() {
            dst.set_scalar_field(name, value).unwrap();
        }
        assert_eq!(dst, src);
        assert_eq!(
            dst.set_scalar_field("warp_drive", 1),
            Err(ConfigFieldError::UnknownField("warp_drive".into()))
        );
    }
}
