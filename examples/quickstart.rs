//! Quickstart: assemble a small program, run it on the baseline machine and
//! on the machine with continuous optimization, and compare — all through
//! the `SimSession` builder.
//!
//! ```text
//! cargo run --release -p contopt-sim --example quickstart
//! ```

use contopt_sim::isa::{r, Asm};
use contopt_sim::{OptimizerConfig, SimSession};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's §2.4 motivating example: a loop summing an array, with a
    // loop-carried array index and a decrementing counter.
    let n = 2000u64;
    let mut a = Asm::new();
    let arr = a.data_quads(&(0..n).map(|i| i * 3 + 1).collect::<Vec<_>>());
    let out = a.data_zeros(8);
    a.li(r(1), arr as i64); //          array pointer
    a.li(r(2), n as i64); //            loop counter
    a.li(r(3), 0); //                   sum
    a.label("loop");
    a.ldq(r(4), r(1), 0); //            ld  [r1] -> r4
    a.addq(r(3), r(4), r(3)); //        sum += r4
    a.lda(r(1), r(1), 8); //            r1 += 8        (reassociates)
    a.subq(r(2), 1, r(2)); //           r2 -= 1        (reassociates)
    a.bne(r(2), "loop"); //             resolves early once r2 is known
    a.li(r(5), out as i64);
    a.stq(r(3), r(5), 0);
    a.halt();
    let program = a.finish()?;

    // The baseline machine: no optimizer.
    let base = SimSession::builder()
        .program(program.clone())
        .build()?
        .run();
    // The paper's default optimizer: all four passes.
    let opt = SimSession::builder()
        .program(program)
        .optimizer(OptimizerConfig::default())
        .build()?
        .run();

    println!(
        "baseline : {:>8} cycles, IPC {:.3}",
        base.pipeline.cycles,
        base.ipc()
    );
    println!(
        "optimized: {:>8} cycles, IPC {:.3}",
        opt.pipeline.cycles,
        opt.ipc()
    );
    println!("speedup  : {:.3}x", opt.speedup_over(&base)?);
    println!();
    println!(
        "executed early     : {:5.1}% of instructions",
        opt.optimizer.pct_executed_early()
    );
    println!(
        "addresses generated: {:5.1}% of memory ops",
        opt.optimizer.pct_mem_addr_generated()
    );
    println!(
        "branches resolved  : {} (of {} conditional-branch instances)",
        opt.optimizer.branches_resolved_early, base.predictor.cond_predictions
    );
    Ok(())
}
