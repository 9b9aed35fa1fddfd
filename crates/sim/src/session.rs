//! The session builder and the session itself.

use crate::error::Error;
use crate::report::Report;
use contopt::OptimizerConfig;
use contopt_isa::{Program, NUM_ARCH_REGS};
use contopt_pipeline::{Machine, MachineConfig, DEADLOCK_WINDOW};
use std::sync::Arc;

/// Default dynamic-instruction budget per run.
pub const DEFAULT_INSTS: u64 = 1_000_000;

/// Most instruction-window slots ([`MachineConfig::window_slots`]) a
/// machine may need. The figures build 256 and 512 slots.
pub const MAX_WINDOW_SLOTS: usize = 65_536;

/// Most physical registers a machine may have. The figures use 2,048.
pub const MAX_PREG_COUNT: usize = 65_536;

/// Most Memory Bypass Cache entries a machine running RLE/SF may have.
/// The figures use at most 128.
pub const MAX_MBC_ENTRIES: usize = 65_536;

#[derive(Debug, Clone)]
enum WorkloadSpec {
    None,
    Named(String),
    Program(Arc<Program>),
}

/// Builder for a [`SimSession`] — the single entry point for configuring
/// a simulation: machine model, optimizer, workload, and instruction
/// budget.
///
/// # Examples
///
/// ```
/// use contopt_sim::{OptimizerConfig, SimSession};
///
/// let session = SimSession::builder()
///     .workload("untst")
///     .optimizer(OptimizerConfig::default())
///     .insts(50_000)
///     .build()?;
/// let report = session.run();
/// assert!(report.optimizer.executed_early > 0);
/// # Ok::<(), contopt_sim::Error>(())
/// ```
#[derive(Debug)]
pub struct SimBuilder {
    machine: MachineConfig,
    /// Overrides the machine's optimizer when set.
    opt: Option<OptimizerConfig>,
    workload: WorkloadSpec,
    insts: u64,
}

impl Default for SimBuilder {
    fn default() -> SimBuilder {
        SimBuilder {
            machine: MachineConfig::default_paper(),
            opt: None,
            workload: WorkloadSpec::None,
            insts: DEFAULT_INSTS,
        }
    }
}

impl SimBuilder {
    /// Starts from the paper's default machine (Table 2, optimizer off).
    pub fn new() -> SimBuilder {
        SimBuilder::default()
    }

    /// Sets the machine model (fetch width, window, FUs, memory, …). The
    /// optimizer configuration it carries is used unless overridden by
    /// [`optimizer`](Self::optimizer).
    pub fn machine(mut self, cfg: MachineConfig) -> SimBuilder {
        self.machine = cfg;
        self
    }

    /// Sets the optimizer, replacing the one the machine carries. The
    /// paper's ablations are pass subsets of the default optimizer, built
    /// with [`OptimizerConfig::only_passes`] and
    /// [`OptimizerConfig::without_passes`]. Omit this call to keep the
    /// machine's own (the baseline for [`MachineConfig::default_paper`]).
    pub fn optimizer(mut self, cfg: OptimizerConfig) -> SimBuilder {
        self.opt = Some(cfg);
        self
    }

    /// Selects a Table 1 workload by its short name (`"mcf"`, `"untst"`…).
    pub fn workload(mut self, name: impl Into<String>) -> SimBuilder {
        self.workload = WorkloadSpec::Named(name.into());
        self
    }

    /// Supplies an assembled program directly. Accepts either an owned
    /// [`Program`] or a shared `Arc<Program>`, so callers fanning one
    /// workload across many sessions never deep-clone the image.
    pub fn program(mut self, program: impl Into<Arc<Program>>) -> SimBuilder {
        self.workload = WorkloadSpec::Program(program.into());
        self
    }

    /// Sets the dynamic-instruction budget (default 1,000,000).
    pub fn insts(mut self, insts: u64) -> SimBuilder {
        self.insts = insts;
        self
    }

    /// Validates the configuration and produces a runnable session.
    pub fn build(self) -> Result<SimSession, Error> {
        let mut cfg = self.machine;
        if let Some(o) = self.opt {
            cfg.optimizer = o;
        }
        validate_machine(&cfg)?;
        if self.insts == 0 {
            return Err(Error::ZeroInstructionBudget);
        }

        let program = match self.workload {
            WorkloadSpec::None => return Err(Error::MissingWorkload),
            WorkloadSpec::Program(p) => p,
            WorkloadSpec::Named(n) => match contopt_workloads::build(&n) {
                Some(w) => w.program,
                None => return Err(Error::UnknownWorkload(n)),
            },
        };

        Ok(SimSession {
            cfg,
            program,
            insts: self.insts,
        })
    }
}

/// Rejects a machine no simulation can run: the structural checks of
/// [`SimBuilder::build`], shared with scenario validation so a scenario
/// file fails at load time rather than mid-sweep. The size caps keep one
/// request from allocating enough to abort the process that runs it.
pub(crate) fn validate_machine(cfg: &MachineConfig) -> Result<(), Error> {
    if cfg.fetch_width == 0 {
        return Err(Error::ZeroRenameWidth);
    }
    if cfg.retire_width == 0 {
        return Err(Error::ZeroRetireWidth);
    }
    if cfg.rob_entries == 0 {
        return Err(Error::ZeroRobEntries);
    }
    if cfg.scheduler_entries == 0 {
        return Err(Error::ZeroSchedulerEntries);
    }
    for (field, units) in [
        ("simple_int_fus", cfg.simple_int_fus),
        ("complex_int_fus", cfg.complex_int_fus),
        ("fp_fus", cfg.fp_fus),
        ("agen_fus", cfg.agen_fus),
    ] {
        if units == 0 {
            return Err(Error::ZeroFunctionalUnits(field));
        }
    }
    let h = &cfg.hierarchy;
    if h.l1d_ports == 0 {
        return Err(Error::ZeroL1dPorts);
    }
    for (cache, geometry) in [("l1i", h.l1i), ("l1d", h.l1d), ("l2", h.l2)] {
        geometry
            .check()
            .map_err(|err| Error::CacheGeometry { cache, err })?;
    }
    cfg.predictor.check().map_err(Error::Predictor)?;
    let total = [
        cfg.front_depth,
        cfg.optimizer_extra_stages(),
        cfg.sched_delay,
        cfg.regread_delay,
        cfg.redirect_delay,
        cfg.complex_latency,
        cfg.fp_latency,
        h.l1i_latency,
        h.l1d_latency,
        h.l2_latency,
        h.memory_latency,
    ]
    .into_iter()
    .fold(0, u64::saturating_add);
    if total >= DEADLOCK_WINDOW {
        return Err(Error::LatencyExceedsDeadlockWindow {
            total,
            window: DEADLOCK_WINDOW,
        });
    }
    if cfg
        .window_slots()
        .is_none_or(|slots| slots > MAX_WINDOW_SLOTS)
    {
        return Err(Error::WindowTooLarge {
            max: MAX_WINDOW_SLOTS,
        });
    }
    let need = NUM_ARCH_REGS + 1;
    if cfg.preg_count < need {
        return Err(Error::PregFileTooSmall {
            need,
            have: cfg.preg_count,
        });
    }
    if cfg.preg_count > MAX_PREG_COUNT {
        return Err(Error::PregFileTooLarge {
            max: MAX_PREG_COUNT,
            have: cfg.preg_count,
        });
    }
    let o = &cfg.optimizer;
    if o.enabled && o.value_feedback && o.feedback_delay > cfg.rob_entries as u64 {
        return Err(Error::FeedbackDelayExceedsRob {
            delay: o.feedback_delay,
            rob: cfg.rob_entries,
        });
    }
    if o.enabled && o.optimize && o.enable_rle_sf {
        if o.mbc_entries == 0 {
            return Err(Error::ZeroMbcEntries);
        }
        if !o.mbc_entries.is_power_of_two() {
            return Err(Error::MbcEntriesNotPowerOfTwo(o.mbc_entries));
        }
        if o.mbc_entries > MAX_MBC_ENTRIES {
            return Err(Error::MbcTooLarge {
                max: MAX_MBC_ENTRIES,
                have: o.mbc_entries,
            });
        }
    }
    Ok(())
}

/// A validated, runnable simulation: one machine configuration bound to
/// one program and an instruction budget. Sessions are reusable —
/// [`run`](SimSession::run) builds a fresh cold-state machine each call,
/// so repeated runs are deterministic and identical.
///
/// The program is held behind an `Arc`, so cloning a session (or running
/// it many times, possibly from several threads — the type is
/// `Send + Sync`) shares one immutable image instead of deep-cloning it.
#[derive(Debug, Clone)]
pub struct SimSession {
    cfg: MachineConfig,
    program: Arc<Program>,
    insts: u64,
}

impl SimSession {
    /// Starts building a session.
    pub fn builder() -> SimBuilder {
        SimBuilder::new()
    }

    /// The full machine configuration this session simulates.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The bound program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The dynamic-instruction budget.
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// Runs the session on a cold machine and returns its [`Report`].
    pub fn run(&self) -> Report {
        let mut machine = Machine::new(self.cfg, Arc::clone(&self.program));
        machine.run(self.insts);
        Report::of(&machine, self.insts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contopt_isa::{r, Asm};

    fn tiny_program() -> Program {
        let mut a = Asm::new();
        a.li(r(1), 5);
        a.label("loop");
        a.subq(r(1), 1, r(1));
        a.bne(r(1), "loop");
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn builder_runs_a_program() {
        let s = SimSession::builder()
            .program(tiny_program())
            .insts(1_000)
            .build()
            .unwrap();
        let r = s.run();
        assert_eq!(r.pipeline.retired, 12); // li + 5 x (subq, bne) + halt
        assert_eq!(r.insts_budget, 1_000);
        assert_eq!(*s.program(), tiny_program());
    }

    #[test]
    fn sessions_are_reusable_and_deterministic() {
        let s = SimSession::builder()
            .workload("twf")
            .insts(20_000)
            .build()
            .unwrap();
        assert_eq!(
            s.program(),
            &*contopt_workloads::build("twf").unwrap().program
        );
        let a = s.run();
        let b = s.run();
        assert_eq!(a.pipeline.cycles, b.pipeline.cycles);
    }

    #[test]
    fn rejects_missing_and_unknown_workloads() {
        assert_eq!(
            SimSession::builder().build().unwrap_err(),
            Error::MissingWorkload
        );
        assert_eq!(
            SimSession::builder().workload("nope").build().unwrap_err(),
            Error::UnknownWorkload("nope".into())
        );
    }

    #[test]
    fn passes_compile_into_the_machine_config() {
        use contopt::PassId;
        let s = SimSession::builder()
            .program(tiny_program())
            .optimizer(OptimizerConfig::default().only_passes(&[PassId::CpRa, PassId::EarlyExec]))
            .build()
            .unwrap();
        let o = &s.config().optimizer;
        assert!(o.enabled && o.optimize && o.enable_early_exec);
        assert!(!o.enable_rle_sf && !o.value_feedback);
    }
}
