//! Regression test for the allocation-free simulation hot loop: steady-state
//! `Machine::run` must not allocate per cycle (the instruction window, the
//! completion calendar, the renamed-bundle buffer, and the completion-path
//! dependence lists are all sized once or reused). The test installs a
//! counting allocator and checks that total allocations grow sub-linearly
//! in the simulated instruction count.
//!
//! This file is its own test binary with exactly one test so no concurrent
//! test can perturb the global counter.

// Test harness code may panic freely; helper functions here sit outside
// clippy's in-test-function exemption for the workspace unwrap/expect
// lints, which police the library crates.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use contopt_sim::isa::{r, Asm, Program};
use contopt_sim::{MachineConfig, SimSession};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System`, only counting calls.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A loop whose body never touches new memory pages, so every allocation
/// past warm-up would have to come from the per-cycle simulation path.
/// Returns the program and its dynamic instruction count.
fn sum_loop(iters: i64) -> (Program, u64) {
    let mut a = Asm::new();
    let arr = a.data_quads(&[3, 5, 7, 9]);
    a.li(r(1), arr as i64);
    a.li(r(2), iters);
    a.li(r(3), 0);
    a.label("loop");
    a.ldq(r(4), r(1), 0);
    a.addq(r(3), r(4), r(3));
    a.stq(r(3), r(1), 8);
    a.subq(r(2), 1, r(2));
    a.bne(r(2), "loop");
    a.halt();
    (a.finish().unwrap(), 3 + iters as u64 * 5 + 1)
}

/// Bytes in the miss loop's buffer: twice the L2's 1 MB.
const MISS_BUFFER: u64 = 2 << 20;

/// A loop whose every load misses to memory: it strides a buffer larger
/// than the L2 by the L2's 128-byte line, so its completions spread over
/// the whole completion calendar. Declared data is mapped when the
/// emulator is built, so the loop maps no new page either.
fn miss_loop(iters: i64) -> (Program, u64) {
    let mut a = Asm::new();
    let buf = a.data_zeros(MISS_BUFFER);
    a.li(r(1), buf as i64);
    a.li(r(2), iters);
    a.li(r(3), 0);
    a.li(r(5), 0);
    a.label("loop");
    a.addq(r(1), r(5), r(6));
    a.ldq(r(4), r(6), 0);
    a.addq(r(3), r(4), r(3));
    a.lda(r(5), r(5), 128);
    a.and(r(5), (MISS_BUFFER - 1) as i64, r(5));
    a.subq(r(2), 1, r(2));
    a.bne(r(2), "loop");
    a.halt();
    (a.finish().unwrap(), 4 + iters as u64 * 7 + 1)
}

fn allocs_during_run(kernel: fn(i64) -> (Program, u64), iters: i64, cfg: MachineConfig) -> u64 {
    let (program, insts) = kernel(iters);
    let session = SimSession::builder()
        .machine(cfg)
        .program(program)
        .insts(10_000_000)
        .build()
        .unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = session.run();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(report.pipeline.retired, insts);
    after - before
}

#[test]
fn steady_state_simulation_does_not_allocate_per_cycle() {
    for (name, kernel) in [
        ("all-hit", sum_loop as fn(i64) -> (Program, u64)),
        ("memory-miss", miss_loop),
    ] {
        for cfg in [
            MachineConfig::default_paper(),
            MachineConfig::default_with_optimizer(),
        ] {
            // Warm up lazy one-time state so both measurements start equal.
            allocs_during_run(kernel, 10, cfg);
            let short = allocs_during_run(kernel, 1_000, cfg);
            let long = allocs_during_run(kernel, 50_000, cfg);
            // 49,000 extra loop iterations are ~245,000–343,000 extra
            // instructions and several hundred thousand extra cycles.
            // Anything that allocates per cycle (or per instruction) would
            // add that many allocations. The window, the completion
            // calendar and the scratch buffers are sized when the machine
            // is built; the only growth allowed is amortized capacity
            // doubling in the schedulers and the emulator's page map,
            // which is logarithmic.
            assert!(
                long < short + 200,
                "per-cycle allocation detected ({name}, opt={}): {short} allocs \
                 for 1k iterations vs {long} for 50k",
                cfg.optimizer.enabled
            );
        }
    }
}
