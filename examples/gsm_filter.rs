//! Reproduces the paper's §5.2 analysis of `untoast` — the GSM
//! `Short_term_synthesis_filtering` loop over two 8-entry arrays. Because
//! both arrays fit trivially in the 128-entry Memory Bypass Cache, after
//! the first iteration all array accesses are eliminated and much of the
//! fixed-point arithmetic executes in the optimizer. This example also
//! shows how quickly the benefit collapses when the MBC shrinks — each
//! variant is the default optimizer with a different `mbc_entries` (or
//! without its RLE/SF pass at all).
//!
//! ```text
//! cargo run --release -p contopt-sim --example gsm_filter
//! ```

// Example code may panic on impossible conditions; the workspace
// unwrap/expect lints police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_sim::{OptimizerConfig, PassId, SimSession};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = contopt_sim::workloads::build("untst").expect("untst is in the suite");
    println!("workload: {} — {}", w.name, w.description);

    let base = SimSession::builder()
        .workload("untst")
        .insts(2_000_000)
        .build()?
        .run();
    println!();
    println!(
        "{:>12} {:>10} {:>12} {:>14}",
        "MBC entries", "speedup", "loads rem.", "exec early"
    );
    for entries in [0usize, 8, 32, 128, 512] {
        let optimizer = if entries == 0 {
            OptimizerConfig::default().without_passes(&[PassId::RleSf])
        } else {
            OptimizerConfig {
                mbc_entries: entries,
                ..OptimizerConfig::default()
            }
        };
        let r = SimSession::builder()
            .workload("untst")
            .optimizer(optimizer)
            .insts(2_000_000)
            .build()?
            .run();
        println!(
            "{:>12} {:>9.3}x {:>11.1}% {:>13.1}%",
            if entries == 0 {
                "off".to_string()
            } else {
                entries.to_string()
            },
            r.speedup_over(&base)?,
            r.optimizer.pct_loads_removed(),
            r.optimizer.pct_executed_early()
        );
    }
    Ok(())
}
