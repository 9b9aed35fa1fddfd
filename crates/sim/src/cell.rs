//! What one simulation cell is, and the worker pool that runs cells: the
//! experiments `Lab`, the sweep server and the wire fingerprint all decide
//! "same cell" through [`CellKey`], and both run cells on [`run_parallel`],
//! whose default worker count is [`default_jobs`].

use crate::scenario::machine_to_json;
use contopt_emu::{fnv1a, STREAM_DIGEST_INIT};
use contopt_isa::{asm_text, Program};
use contopt_pipeline::MachineConfig;
use contopt_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The behavioural identity of one simulation cell: the machine with its
/// optimizer block normalized (so configurations that cannot differ in
/// simulation share a key), the workload name, and for a shipped program
/// its canonical [`asm_text::emit`] text — the full text, so two programs
/// that share a name are two cells and no hash collision can serve the
/// wrong report. The instruction budget is not part of the key: a `Lab`
/// runs one budget, and the sweep server pairs the key with the request's.
///
/// # Examples
///
/// ```
/// use contopt_sim::{CellKey, MachineConfig};
///
/// let twf = contopt_sim::workloads::build("twf").unwrap();
/// let key = CellKey::of(&MachineConfig::default_paper(), &twf);
/// assert_eq!(key, CellKey::new(&MachineConfig::default_paper(), "twf", None));
/// assert_eq!(key.fingerprint(50_000), "860f9439147bffb1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    machine: MachineConfig,
    workload: String,
    program: Option<Arc<str>>,
}

impl CellKey {
    /// The key of `workload` on `machine`; `program` is the shipped
    /// program the cell runs, or `None` for a Table 1 benchmark. This is
    /// the one place a shipped program becomes its canonical text.
    pub fn new(machine: &MachineConfig, workload: &str, program: Option<&Program>) -> CellKey {
        CellKey {
            machine: MachineConfig {
                optimizer: machine.optimizer.normalized(),
                ..*machine
            },
            workload: workload.to_string(),
            program: program.map(|p| asm_text::emit(p).into()),
        }
    }

    /// The key of `w` on `machine`: by name when `w` runs the Table 1
    /// program of that name, and by its program text otherwise.
    pub fn of(machine: &MachineConfig, w: &Workload) -> CellKey {
        let table1 = contopt_workloads::build(w.name)
            .is_some_and(|t| Arc::ptr_eq(&t.program, &w.program) || t.program == w.program);
        CellKey::new(machine, w.name, (!table1).then_some(&*w.program))
    }

    /// The machine, with its optimizer block normalized.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The cell's wire fingerprint at an `insts` budget, as 16 hex digits:
    /// FNV-1a over the canonical machine JSON, the workload name, the
    /// big-endian budget and any program text, zero-byte separated. These
    /// are protocol v1's bytes (`docs/PROTOCOL.md`); they must not change.
    pub fn fingerprint(&self, insts: u64) -> String {
        let machine = machine_to_json(&self.machine).to_string();
        let mut h = fnv1a(STREAM_DIGEST_INIT, machine.as_bytes());
        h = fnv1a(fnv1a(h, &[0]), self.workload.as_bytes());
        h = fnv1a(fnv1a(h, &[0]), &insts.to_be_bytes());
        if let Some(text) = &self.program {
            h = fnv1a(fnv1a(h, &[0]), text.as_bytes());
        }
        format!("{h:016x}")
    }
}

/// The machine's available parallelism, the default worker count of
/// [`run_parallel`]'s callers; 1 when it cannot be read.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` on every item across `jobs` scoped worker threads (`0` counts
/// as one), each claiming the next unclaimed item, and returns the results
/// in item order. A call that panics kills its worker but loses only its
/// own item: an item is `None` only when its own call panicked, or when
/// every worker had died before reaching it.
pub fn run_parallel<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs.max(1).min(items.len()))
            .map(|_| {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { return };
                    let r = f(item);
                    // `f` runs outside the lock, so a panic cannot poison it.
                    out.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(r);
                })
            })
            .collect();
        for worker in workers {
            // A panicked worker's finished items are already in `out`.
            let _ = worker.join();
        }
    });
    out.into_inner().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    #[test]
    fn fingerprints_are_the_v1_wire_bytes() {
        // Protocol v1 bytes; the first is docs/PROTOCOL.md's example.
        let twf = CellKey::new(&MachineConfig::default_paper(), "twf", None);
        assert_eq!(twf.fingerprint(50_000), "860f9439147bffb1");
        let mcf = CellKey::new(&MachineConfig::default_with_optimizer(), "mcf", None);
        assert_eq!(mcf.fingerprint(2_000_000), "0e3769b2a455e002");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let sc = Scenario::load(format!("{dir}/asm_smoke.json")).unwrap();
        let mut asm = Vec::new();
        for cfg in &sc.configs {
            for w in sc.workloads_for(cfg).unwrap() {
                assert_eq!(w.name, "asmk");
                asm.push(CellKey::of(&cfg.machine, &w).fingerprint(sc.insts));
            }
        }
        assert_eq!(asm, ["86dd975387b453a4", "d75c06b39f4e9cfb"]);
    }

    #[test]
    fn keys_normalize_and_discriminate() {
        let base = MachineConfig::default_paper();
        let mut inert = base;
        inert.optimizer.mbc_entries = 7; // inert: optimizer disabled
        let key = |m: &MachineConfig, w: &str| CellKey::new(m, w, None);
        assert_eq!(key(&base, "twf"), key(&inert, "twf"));
        let f = key(&base, "twf").fingerprint(1000);
        assert_eq!(f, key(&inert, "twf").fingerprint(1000));
        let opt = MachineConfig::default_with_optimizer();
        assert_ne!(key(&base, "twf"), key(&opt, "twf"), "machine matters");
        assert_ne!(f, key(&opt, "twf").fingerprint(1000), "machine matters");
        assert_ne!(key(&base, "twf"), key(&base, "mcf"), "workload matters");
        assert_ne!(f, key(&base, "mcf").fingerprint(1000), "workload matters");
        assert_ne!(f, key(&base, "twf").fingerprint(2000), "budget matters");
        assert_eq!(f.len(), 16);
        // A workload keys by its program text unless it runs the Table 1
        // program of its name.
        let build = |name| contopt_workloads::build(name).unwrap();
        assert_eq!(CellKey::of(&base, &build("twf")), key(&base, "twf"));
        let untst_as_twf = CellKey::of(
            &base,
            &Workload {
                name: "twf",
                ..build("untst")
            },
        );
        assert_ne!(untst_as_twf, key(&base, "twf"), "program matters");
        assert_ne!(untst_as_twf.fingerprint(1000), f, "program matters");
        assert_eq!(untst_as_twf.machine(), key(&base, "twf").machine());
    }

    #[test]
    fn run_parallel_keeps_item_order() {
        let items: Vec<u64> = (0..40).collect();
        for jobs in [0, 1, 3, 64] {
            let out = run_parallel(&items, jobs, |&x| x * x);
            let want: Vec<Option<u64>> = items.iter().map(|&x| Some(x * x)).collect();
            assert_eq!(out, want, "jobs = {jobs}");
        }
        assert!(run_parallel(&[] as &[u64], 4, |&x| x).is_empty());
    }

    #[test]
    fn run_parallel_loses_only_the_panicking_item() {
        let items: Vec<u64> = (0..12).collect();
        let f = |&x: &u64| {
            assert!(x != 5, "item 5 fails");
            x + 100
        };
        // Surviving workers claim every other item.
        let out = run_parallel(&items, 3, f);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, (i != 5).then_some(i as u64 + 100), "item {i}");
        }
        // The only worker keeps what it finished; nobody is left to reach
        // the items after the panic.
        let out = run_parallel(&items, 1, f);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, (i < 5).then_some(i as u64 + 100), "item {i}");
        }
    }
}
