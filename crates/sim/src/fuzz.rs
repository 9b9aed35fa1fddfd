//! Differential fuzzing oracle for the continuous-optimization machine.
//!
//! Random — but *bounded* — programs are generated from a seed and run
//! four ways: on the functional emulator (the architectural reference)
//! and on one pipeline per rename path ([`machines`]): the baseline,
//! whose disabled optimizer renames through its plain path; Figure 9's
//! feedback machine, which runs the engine without CP/RA; and the
//! all-passes optimized machine. All four must commit the identical
//! architectural outcome ([`ArchSnapshot`]): register files, memory
//! content, and the retired instruction stream. The optimizer is allowed
//! to change *when* things happen, never *what* is computed.
//!
//! Each generated program also round-trips through the text assembler
//! (`asm_text::parse(asm_text::emit(p)) == p`), so a fuzz run doubles as
//! assembler conformance testing.
//!
//! A program is generated as a plan: straight-line [`Inst`]s drawn from
//! the opcode tables, plus two control shapes, forward skips and counted
//! loops. The [`Asm`] builder lays the plan out, as it lays out every
//! workload.
//!
//! Generated programs terminate by construction: control flow is limited
//! to forward skips and counted loops whose counter register is reserved
//! while the body is generated, every memory access lands inside a
//! private scratch arena, and every opcode in the ISA is total. The
//! static verifier ([`contopt_isa::analysis`]) must agree: every
//! generated program has to verify *fully clean* — the analyzer and the
//! generator's by-construction guarantees cross-check each other.
//!
//! A failing seed is [minimized](minimize) by greedily deleting
//! generator ops while the failure reproduces, and can be emitted as a
//! checked-in conformance [`Scenario`] via [`conformance_scenario`].

use crate::json::ToJson;
use crate::scenario::{ProgramSpec, Scenario, ScenarioConfig, Verdict, VerifyPolicy};
use contopt::OptimizerConfig;
use contopt_emu::{ArchSnapshot, Emulator, Step, STREAM_DIGEST_INIT};
use contopt_isa::{
    analysis, asm_text, f, r, AluOp, Asm, Cond, FReg, FpCmpOp, FpOp, Inst, MemSize, Operand,
    Program, Reg, DATA_BASE,
};
use contopt_pipeline::{Machine, MachineConfig};
use contopt_workloads::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Upper bound on committed instructions per fuzz program (generated
/// programs stay far below it; hitting it is itself a failure).
pub const MAX_DYN_INSTS: u64 = 100_000;

/// Scratch-arena size in bytes; all generated memory traffic stays
/// inside `[DATA_BASE, DATA_BASE + ARENA)`.
const ARENA: u64 = 4096;

// ---- generator plan ------------------------------------------------------

/// One generator step. A plan (`Vec<GenOp>`) deterministically lowers to
/// a [`Program`]; the minimizer deletes plan ops, not instructions, so
/// every shrunken candidate is still well-formed by construction.
#[derive(Debug, Clone, PartialEq)]
enum GenOp {
    /// A straight-line instruction, emitted as it is.
    Inst(Inst),
    /// A conditional forward branch over `body`.
    Skip {
        cond: Cond,
        ra: Reg,
        body: Vec<GenOp>,
    },
    /// A counted loop: `body` runs exactly `count` times (the counter
    /// register is not in the generator's pool, so bodies cannot
    /// perturb it).
    Loop { count: u8, body: Vec<GenOp> },
}

/// The integer register pool generated code reads and writes. The arena
/// base (`r20`) and loop counter (`r21`) live outside it.
const POOL: [u8; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const ARENA_REG: u8 = 20;
const COUNTER_REG: u8 = 21;

/// The integer operations in the order the generator draws them: the
/// order of [`AluOp::ALL`] with `mulq` moved up to index 11, so that every
/// seed keeps the program it has always had.
const ALU_DRAW: [AluOp; 17] = [
    AluOp::Addq,
    AluOp::Subq,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Bic,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::S4Addq,
    AluOp::S8Addq,
    AluOp::Mulq,
    AluOp::CmpEq,
    AluOp::CmpLt,
    AluOp::CmpLe,
    AluOp::CmpUlt,
    AluOp::CmpUle,
];

fn pick_reg(rng: &mut SplitMix64) -> Reg {
    r(POOL[rng.below(POOL.len() as u64) as usize])
}

fn pick_freg(rng: &mut SplitMix64) -> FReg {
    f(1 + rng.below(4) as u8) // f1..f4
}

fn pick_imm(rng: &mut SplitMix64) -> i64 {
    match rng.below(4) {
        0 => rng.below(256) as i64,
        1 => -(rng.below(256) as i64),
        2 => rng.below(1 << 32) as i64,
        _ => rng.next_u64() as i64,
    }
}

/// `li rc, imm`.
fn li(rc: Reg, imm: i64) -> Inst {
    Inst::Lda {
        rc,
        rb: Reg::R31,
        disp: imm,
    }
}

/// An 8-aligned arena offset, which fits an access of any width.
fn pick_off(rng: &mut SplitMix64) -> i64 {
    (rng.below(ARENA / 8 - 1) * 8) as i64
}

/// One non-control instruction. The draws happen in the order written,
/// so a seed always yields the program it has always yielded.
fn straight_op(rng: &mut SplitMix64) -> Inst {
    match rng.below(10) {
        0 => li(pick_reg(rng), pick_imm(rng)),
        1..=3 => {
            let op = ALU_DRAW[rng.below(17) as usize];
            let (ra, rb) = (pick_reg(rng), pick_reg(rng));
            // An immediate replaces the register operand drawn before it.
            let rb = match rng.below(3) {
                0 => Operand::Imm(pick_imm(rng)),
                _ => Operand::Reg(rb),
            };
            Inst::Alu {
                op,
                ra,
                rb,
                rc: pick_reg(rng),
            }
        }
        4 => Inst::Ld {
            size: MemSize::ALL[rng.below(4) as usize],
            signed: false,
            rc: pick_reg(rng),
            rb: r(ARENA_REG),
            disp: pick_off(rng),
        },
        5 => Inst::St {
            size: MemSize::ALL[rng.below(4) as usize],
            ra: pick_reg(rng),
            rb: r(ARENA_REG),
            disp: pick_off(rng),
        },
        6 => Inst::FAlu {
            op: FpOp::ALL[rng.below(4) as usize], // addt, subt, mult, divt
            fa: pick_freg(rng),
            fb: pick_freg(rng),
            fc: pick_freg(rng),
        },
        7 => Inst::FCmp {
            op: FpCmpOp::ALL[rng.below(3) as usize],
            fa: pick_freg(rng),
            fb: pick_freg(rng),
            rc: pick_reg(rng),
        },
        8 => Inst::Itof {
            ra: pick_reg(rng),
            fc: pick_freg(rng),
        },
        _ => Inst::Ftoi {
            fa: pick_freg(rng),
            rc: pick_reg(rng),
        },
    }
}

fn body(rng: &mut SplitMix64, len: u64) -> Vec<GenOp> {
    (0..len).map(|_| GenOp::Inst(straight_op(rng))).collect()
}

/// The deterministic generator plan for a seed.
fn plan(seed: u64) -> Vec<GenOp> {
    let mut rng = SplitMix64::from_state(seed);
    let mut ops = Vec::new();
    // Seed the whole integer pool — and f1..f4 through it — so no
    // generated op can ever read an uninitialized register. The static
    // verifier holds fuzz programs to the fully-clean standard.
    for &rc in &POOL {
        ops.push(GenOp::Inst(li(r(rc), pick_imm(&mut rng))));
    }
    for n in 1..=4u8 {
        ops.push(GenOp::Inst(Inst::Itof { ra: r(n), fc: f(n) }));
    }
    let blocks = 3 + rng.below(6);
    for _ in 0..blocks {
        match rng.below(4) {
            0 => {
                let (count, len) = (1 + rng.below(8) as u8, 2 + rng.below(6));
                ops.push(GenOp::Loop {
                    count,
                    body: body(&mut rng, len),
                });
            }
            1 => {
                let cond = Cond::ALL[rng.below(6) as usize];
                let (ra, len) = (pick_reg(&mut rng), 1 + rng.below(4));
                ops.push(GenOp::Skip {
                    cond,
                    ra,
                    body: body(&mut rng, len),
                });
            }
            _ => {
                let len = 2 + rng.below(6);
                ops.extend(body(&mut rng, len));
            }
        }
    }
    ops
}

// ---- lowering ------------------------------------------------------------

fn emit_op(a: &mut Asm, op: &GenOp, label: &mut u32) {
    match op {
        GenOp::Inst(inst) => {
            a.emit(*inst);
        }
        GenOp::Skip { cond, ra, body } => {
            let name = format!("S{}", *label);
            *label += 1;
            a.branch(*cond, *ra, &name);
            for op in body {
                emit_op(a, op, label);
            }
            a.label(&name);
        }
        GenOp::Loop { count, body } => {
            let name = format!("L{}", *label);
            *label += 1;
            a.li(r(COUNTER_REG), (*count).max(1) as i64);
            a.label(&name);
            for op in body {
                emit_op(a, op, label);
            }
            a.subq(r(COUNTER_REG), 1, r(COUNTER_REG));
            a.bne(r(COUNTER_REG), &name);
        }
    }
}

/// Lowers a plan to a runnable [`Program`].
fn build(ops: &[GenOp]) -> Program {
    let mut a = Asm::new();
    a.data_zeros(ARENA);
    a.li(r(ARENA_REG), DATA_BASE as i64);
    let mut label = 0u32;
    for op in ops {
        emit_op(&mut a, op, &mut label);
    }
    a.halt();
    a.finish()
        .unwrap_or_else(|e| panic!("generated programs assemble by construction: {e}"))
}

/// The deterministic program for a fuzz seed.
pub fn program_for_seed(seed: u64) -> Program {
    build(&plan(seed))
}

// ---- differential harness ------------------------------------------------

/// Runs the architectural reference: the bare functional emulator.
fn reference(p: &Arc<Program>) -> Result<ArchSnapshot, String> {
    let mut emu = Emulator::new(Arc::clone(p));
    let mut digest = STREAM_DIGEST_INIT;
    let mut retired = 0u64;
    loop {
        if retired > MAX_DYN_INSTS {
            return Err(format!(
                "reference emulator exceeded {MAX_DYN_INSTS} instructions (unbounded program?)"
            ));
        }
        match emu.step().map_err(|e| format!("emulator error: {e:?}"))? {
            Step::Inst(d) => {
                digest = d.fold_digest(digest);
                retired += 1;
            }
            Step::Halted => break,
        }
    }
    Ok(ArchSnapshot::capture(&emu, retired, digest))
}

/// Runs one pipeline configuration, converting panics (e.g. the
/// optimizer's strict value checker) into failures.
fn pipeline_run(p: &Arc<Program>, cfg: MachineConfig, label: &str) -> Result<ArchSnapshot, String> {
    catch_unwind(AssertUnwindSafe(|| {
        Machine::new(cfg, Arc::clone(p)).run_with_state(MAX_DYN_INSTS)
    }))
    .map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string());
        format!("{label} machine panicked: {msg}")
    })
}

/// The machines the oracle runs, one per rename path: the baseline (the
/// disabled optimizer's plain renamer), Figure 9's `feedback` machine (the
/// engine without CP/RA), and the all-passes `optimized` machine.
pub fn machines() -> [(&'static str, MachineConfig); 3] {
    let feedback = MachineConfig::default_paper().with_optimizer(OptimizerConfig::feedback_only());
    [
        ("baseline", MachineConfig::default_paper()),
        ("feedback", feedback),
        ("optimized", MachineConfig::default_with_optimizer()),
    ]
}

/// Checks one program against the full fuzz oracle: the static verifier
/// must report *nothing* — no errors, no warnings — and then
/// [`check_exec`] must pass.
pub fn check_program(p: &Program) -> Result<(), String> {
    let report = analysis::verify(p);
    if !report.is_clean() {
        return Err(format!("static verification not clean: {report}"));
    }
    check_exec(p)
}

/// The execution half of the oracle: assembler round-trip exact, and the
/// emulator and every one of [`machines`] committing the identical
/// architectural outcome. The
/// minimizer shrinks against this alone, so shrinking converges on the
/// behavioural divergence instead of wandering to any program the
/// analyzer happens to flag.
pub fn check_exec(p: &Program) -> Result<(), String> {
    // 1. The text assembler must reproduce the program exactly.
    let text = asm_text::emit(p);
    match asm_text::parse(&text) {
        Ok(q) if q == *p => {}
        Ok(_) => return Err("text assembler round-trip altered the program".to_string()),
        Err(e) => return Err(format!("emitted text failed to re-assemble: {e}")),
    }
    let p = Arc::new(p.clone());
    // 2. The emulator against every machine.
    let oracle = reference(&p)?;
    for (label, cfg) in machines() {
        let state = pipeline_run(&p, cfg, label)?;
        if let Some(d) = oracle.diff(&state, ("emulator", label)) {
            return Err(d);
        }
    }
    Ok(())
}

/// Checks one seed end-to-end.
pub fn check_seed(seed: u64) -> Result<(), String> {
    check_program(&build(&plan(seed)))
}

// ---- minimizer -----------------------------------------------------------

/// Greedily deletes plan ops (descending into loop and skip bodies, and
/// flattening them once their body is minimal) while `fails` keeps
/// returning `true`. The result is the smallest 1-minimal plan the
/// deletion lattice reaches — every remaining op is necessary to
/// reproduce the failure.
fn minimize_with(mut ops: Vec<GenOp>, fails: &dyn Fn(&[GenOp]) -> bool) -> Vec<GenOp> {
    debug_assert!(fails(&ops), "minimizer needs a failing starting point");
    loop {
        let mut reduced = false;
        // Delete whole ops.
        let mut i = 0;
        while i < ops.len() {
            let mut cand = ops.clone();
            cand.remove(i);
            if fails(&cand) {
                ops = cand;
                reduced = true;
            } else {
                i += 1;
            }
        }
        // Shrink or flatten control bodies.
        for i in 0..ops.len() {
            let inner = match &ops[i] {
                GenOp::Skip { body, .. } | GenOp::Loop { body, .. } => body.clone(),
                _ => continue,
            };
            // Try replacing the construct with its body (drops the branch).
            let mut cand = ops.clone();
            cand.splice(i..=i, inner.clone());
            if fails(&cand) {
                ops = cand;
                reduced = true;
                break;
            }
            // Try deleting body ops one at a time.
            for j in 0..inner.len() {
                let mut trimmed = inner.clone();
                trimmed.remove(j);
                let mut cand = ops.clone();
                match &mut cand[i] {
                    GenOp::Skip { body, .. } | GenOp::Loop { body, .. } => *body = trimmed,
                    _ => unreachable!(),
                }
                if fails(&cand) {
                    ops = cand;
                    reduced = true;
                    break;
                }
            }
            if reduced {
                break;
            }
        }
        if !reduced {
            return ops;
        }
    }
}

/// A reproduced, minimized fuzz failure.
#[derive(Debug)]
pub struct Failure {
    /// The failing seed.
    pub seed: u64,
    /// The oracle's divergence message for the *original* program.
    pub detail: String,
    /// The minimized failing program.
    pub program: Program,
}

/// Minimizes a failing seed to its smallest reproducing program.
pub fn minimize(seed: u64, detail: String) -> Failure {
    let ops = plan(seed);
    // Shrink against the execution oracle when it reproduces; a
    // verification-only failure (a generator bug) shrinks against the
    // full oracle instead.
    let fails: &dyn Fn(&[GenOp]) -> bool = if check_exec(&build(&ops)).is_err() {
        &|cand| check_exec(&build(cand)).is_err()
    } else {
        &|cand| check_program(&build(cand)).is_err()
    };
    let ops = minimize_with(ops, fails);
    Failure {
        seed,
        detail,
        program: build(&ops),
    }
}

/// A conformance scenario pinning a fuzz failure: the minimized program
/// shipped as an inline `"programs"` block, run under each of the
/// oracle's [`machines`]. Checked in under `scenarios/`, it keeps the
/// regression covered forever.
///
/// The program ships under the strictest [`VerifyPolicy`] whose
/// [`verdict`](VerifyPolicy::verdict) on its report does not refuse it: a
/// clean program is pinned `"clean"` (any future finding on it is a
/// regression), warnings pin the default tolerance, and a program the
/// analyzer rejects — minimization may strip the seeding that kept it
/// well-formed — ships `"skip"` so the reproducer still loads.
pub fn conformance_scenario(fail: &Failure) -> Result<Scenario, crate::scenario::ScenarioError> {
    let name = format!("fuzz_{}", fail.seed);
    let mut spec = ProgramSpec::inline(&name, asm_text::emit(&fail.program))?;
    spec.verify = [VerifyPolicy::Clean, VerifyPolicy::AllowWarnings]
        .into_iter()
        .find(|policy| policy.verdict(&spec.report) != Verdict::Errors)
        .unwrap_or(VerifyPolicy::Skip);
    let configs = machines()
        .into_iter()
        .map(|(label, machine)| ScenarioConfig {
            label: label.to_string(),
            machine,
            workloads: vec![name.clone()],
        })
        .collect();
    Ok(Scenario {
        name,
        insts: MAX_DYN_INSTS,
        ablation: None,
        programs: vec![spec],
        configs,
    })
}

// ---- parser fuzzing --------------------------------------------------------

/// Which front-end a parser-fuzz case targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParserKind {
    /// `Scenario::parse` (which layers on `JsonValue::parse`, program
    /// assembly, and static verification).
    Json,
    /// `asm_text::parse_and_verify`.
    Asm,
}

/// The well-formed inputs mutation starts from: one scenario file with
/// every optional block present, one minimal scenario, one generated
/// program's emitted text, and one hand-written `.s` exercising data
/// directives.
fn parser_corpus() -> Vec<(ParserKind, String)> {
    let scenario = r#"{
  "version": 1,
  "name": "corpus",
  "insts": 50000,
  "ablation": {"add_one_in": true},
  "programs": [
    {"name": "spin",
     "source": "        li   r1, 5\nspin:   subq r1, 1, r1\n        bne  r1, spin\n        halt",
     "verify": "clean"}
  ],
  "configs": [
    {"label": "baseline", "workloads": ["spin", "twf"], "machine": {}},
    {"label": "opt", "workloads": ["*"],
     "machine": {"fetch_width": 8, "optimizer": {"enabled": true, "feedback_delay": 10}}}
  ]
}"#;
    let minimal = r#"{"version": 1, "name": "m", "insts": 1, "configs": [
        {"label": "a", "workloads": ["mcf"], "machine": {}}]}"#;
    let handwritten = "; corpus kernel\n.text\n        li   r1, tab\n        li   r2, 4\nfill:   stq  r2, 0(r1)\n        lda  r1, 8(r1)\n        subq r2, 1, r2\n        bne  r2, fill\n        halt\n.data\n.align 16\ntab:    .zero 64\nvals:   .quad 1, -2, 0x30\nbytes:  .byte 7, 8\nf:      .double 2.5\n";
    vec![
        (ParserKind::Json, scenario.to_string()),
        (ParserKind::Json, minimal.to_string()),
        (ParserKind::Asm, asm_text::emit(&program_for_seed(3))),
        (ParserKind::Asm, handwritten.to_string()),
    ]
}

/// Applies 1–4 random mutations — byte flips, truncation, and splicing a
/// random slice of one of the `donors` — to `base`. A splice that draws
/// an empty donor, or finds no donors, inserts nothing.
pub fn mutate(rng: &mut SplitMix64, base: &[u8], donors: &[&[u8]]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for _ in 0..1 + rng.below(4) {
        match rng.below(3) {
            0 if !bytes.is_empty() => {
                // Byte flip.
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            1 if !bytes.is_empty() => {
                // Truncation.
                bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize);
            }
            _ => {
                // Token splice from a random donor (cross-format splices
                // push JSON into assembler text and vice versa).
                let donor = donors.get(rng.below(donors.len() as u64) as usize);
                let Some(donor) = donor.filter(|d| !d.is_empty()) else {
                    continue;
                };
                let s = rng.below(donor.len() as u64) as usize;
                let e = s + 1 + rng.below((donor.len() - s) as u64) as usize;
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                let slice: Vec<u8> = donor[s..e].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    bytes
}

/// Runs a `count`-case mutation campaign over the scenario-JSON and
/// assembler-text parsers. Every case must come back as `Ok` or as a
/// typed error whose `Display` renders — never a panic. Returns the
/// first panicking input, base64-free and truncated for the report.
pub fn fuzz_parsers(count: u64, seed0: u64) -> Result<(), String> {
    let corpus = parser_corpus();
    let donors: Vec<&[u8]> = corpus.iter().map(|(_, text)| text.as_bytes()).collect();
    let mut rng = SplitMix64::from_state(seed0 ^ 0x7061_7273_6572_7321); // "parsers!"
    for case in 0..count {
        let (kind, base) = &corpus[rng.below(corpus.len() as u64) as usize];
        let mutated = mutate(&mut rng, base.as_bytes(), &donors);
        let text = String::from_utf8_lossy(&mutated).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| match kind {
            // Errors must be typed and renderable; values are discarded.
            ParserKind::Json => match Scenario::parse(&text) {
                Ok(_) => {}
                Err(e) => {
                    let _ = e.to_string();
                }
            },
            ParserKind::Asm => match asm_text::parse_and_verify(&text) {
                Ok((_, report)) => {
                    let _ = report.to_json().to_string();
                }
                Err(e) => {
                    let _ = e.to_string();
                }
            },
        }));
        if outcome.is_err() {
            let snippet: String = text.chars().take(200).collect();
            return Err(format!(
                "parser-fuzz case {case} ({kind:?}) panicked on input starting: {snippet:?}"
            ));
        }
    }
    Ok(())
}

/// Outcome of a fuzz campaign.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Seeds checked.
    pub ran: u64,
    /// Failures found, minimized.
    pub failures: Vec<Failure>,
}

/// Runs `count` seeds starting at `seed0`, minimizing every failure.
/// `progress` is called after each seed with `(seed, failed)`.
pub fn run(count: u64, seed0: u64, mut progress: impl FnMut(u64, bool)) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for seed in seed0..seed0.saturating_add(count) {
        let failed = match check_seed(seed) {
            Ok(()) => false,
            Err(detail) => {
                summary.failures.push(minimize(seed, detail));
                true
            }
        };
        summary.ran += 1;
        progress(seed, failed);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ToJson;

    #[test]
    fn generator_is_deterministic() {
        for seed in [1, 7, 0xdead_beef] {
            assert_eq!(plan(seed), plan(seed));
            assert_eq!(program_for_seed(seed), program_for_seed(seed));
        }
    }

    #[test]
    fn generated_programs_are_pinned() {
        // The canonical text of seeds 1..=500 folded into one digest: a
        // generator change that alters any program, its RNG draws, labels
        // or data segment included, shows here.
        let digest = (1..=500).fold(STREAM_DIGEST_INIT, |h, seed| {
            contopt_emu::fnv1a(h, asm_text::emit(&program_for_seed(seed)).as_bytes())
        });
        assert_eq!(digest, 0xf559_2960_d86a_098c);
    }

    #[test]
    fn generated_programs_are_bounded_and_varied() {
        let mut total = 0u64;
        let mut any_loop = false;
        let mut any_mem = false;
        for seed in 1..=20 {
            let ops = plan(seed);
            any_loop |= ops.iter().any(|o| matches!(o, GenOp::Loop { .. }));
            any_mem |= ops
                .iter()
                .any(|o| matches!(o, GenOp::Inst(Inst::Ld { .. } | Inst::St { .. })));
            let snap = reference(&Arc::new(build(&ops))).expect("terminates");
            assert!(snap.retired < MAX_DYN_INSTS);
            total += snap.retired;
        }
        assert!(any_loop && any_mem, "generator exercises loops and memory");
        assert!(total > 200, "programs do nontrivial work: {total}");
    }

    #[test]
    fn generated_programs_verify_fully_clean() {
        // The analyzer cross-checks the generator's by-construction
        // guarantees: no finding of any severity, and every loop proved.
        for seed in 1..=16 {
            let report = analysis::verify(&program_for_seed(seed));
            assert!(report.is_clean(), "seed {seed}: {report}");
            assert_eq!(
                report.proved_loops, report.loops,
                "seed {seed}: every counted loop proves bounded"
            );
        }
    }

    #[test]
    fn small_fuzz_campaign_passes() {
        // The bounded CI-sized differential sweep; `--fuzz N` scales it up.
        let summary = run(24, 1, |_, _| {});
        let details: Vec<&str> = summary.failures.iter().map(|f| f.detail.as_str()).collect();
        assert!(summary.failures.is_empty(), "divergences: {details:?}");
        assert_eq!(summary.ran, 24);
    }

    #[test]
    fn minimizer_reaches_a_one_minimal_plan() {
        // Synthetic oracle: "fails" whenever any store op is present.
        let has_store = |ops: &[GenOp]| -> bool {
            fn walk(ops: &[GenOp]) -> bool {
                ops.iter().any(|o| match o {
                    GenOp::Inst(Inst::St { .. }) => true,
                    GenOp::Skip { body, .. } | GenOp::Loop { body, .. } => walk(body),
                    _ => false,
                })
            }
            walk(ops)
        };
        let mut seed = 1;
        let ops = loop {
            let ops = plan(seed);
            if has_store(&ops) {
                break ops;
            }
            seed += 1;
        };
        let min = minimize_with(ops, &|cand| has_store(cand));
        assert_eq!(min.len(), 1, "exactly the store survives: {min:?}");
        assert!(matches!(min[0], GenOp::Inst(Inst::St { .. })));
    }

    #[test]
    fn parser_fuzz_campaign_finds_no_panics() {
        // The CI-sized campaign; `--fuzz-parsers N` scales it up.
        fuzz_parsers(200, 1).unwrap();
    }

    #[test]
    fn parser_corpus_is_well_formed() {
        // Mutation needs valid starting points: every corpus entry must
        // parse before any bytes are touched.
        for (kind, text) in parser_corpus() {
            match kind {
                ParserKind::Json => {
                    Scenario::parse(&text).unwrap();
                }
                ParserKind::Asm => {
                    asm_text::parse_and_verify(&text).unwrap();
                }
            }
        }
    }

    #[test]
    fn the_oracle_runs_fig9s_machines() {
        // Figure 9's three machines cover the three rename paths: the
        // plain renamer, the engine without CP/RA, and every pass.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let fig9 = Scenario::load(format!("{dir}/fig9.json")).unwrap();
        let labels = ["baseline", "feedback", "feedback+opt"];
        for (cfg, (label, (_, machine))) in fig9.configs.iter().zip(labels.iter().zip(machines())) {
            assert_eq!(cfg.label, *label);
            let key = |m: &MachineConfig| crate::CellKey::new(m, "k", None);
            assert_eq!(key(&cfg.machine), key(&machine), "{label}");
        }
    }

    #[test]
    fn conformance_scenario_round_trips_and_runs() {
        let fail = Failure {
            seed: 42,
            detail: "synthetic".to_string(),
            program: program_for_seed(42),
        };
        let sc = conformance_scenario(&fail).unwrap();
        // One machine per rename path, as the oracle runs them.
        let labels: Vec<&str> = sc.configs.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["baseline", "feedback", "optimized"]);
        let text = sc.to_json().pretty();
        let parsed = Scenario::parse(&text).unwrap();
        // JSON round-trip is byte-identical (a disabled optimizer block
        // normalizes on serialization, so compare the canonical text).
        assert_eq!(parsed.to_json().pretty(), text);
        assert_eq!(parsed.programs, sc.programs);
        // The shipped program resolves into runnable workloads.
        for cfg in &parsed.configs {
            let ws = parsed.workloads_for(cfg).unwrap();
            assert_eq!(ws.len(), 1);
            assert_eq!(ws[0].name, "fuzz_42");
        }
    }
}
