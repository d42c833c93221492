//! An allocation budget for the simulated fault path.
//!
//! The forward loop's per-fault work — the zone analysis, the request,
//! the deputy's replies, the in-flight set, installs, evictions and
//! writeback batches — reuses storage the loop, the transport, the
//! prefetcher and the writeback engine own, so a fault allocates nothing
//! once that storage has grown. What a run allocates is its set-up and
//! that growth: 48–72 allocations a cell. This binary counts every heap
//! allocation (and reallocation) a run makes, set-up included, with its
//! own global allocator, and holds each cell to at most half of one per
//! simulated fault (0.01–0.36 measured; 1.4–2.3 while the prefetch list,
//! the queued pages and each writeback batch's pending copy were fresh
//! `Vec`s).
//!
//! The cells are perfbench's: the `sim-paper` mix (the smallest Table 1
//! size of each HPCC kernel under AMPoM) and two `sim-scatter` specs (a
//! 2 MB RAM cap with background writeback), all at 1/16 size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ampom_core::experiment::WorkloadSpec;
use ampom_core::lifecycle::WritebackSpec;
use ampom_core::migration::Scheme;
use ampom_core::runner::{try_run_workload, RunConfig};
use ampom_workloads::sizes::sizes_for;
use ampom_workloads::{Kernel, ProblemSize};

/// Counts the calling thread's allocations, so tests running in parallel
/// do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; nothing to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: each method forwards its caller's arguments unchanged to
// `System`, which meets `GlobalAlloc`'s contract, so the caller's
// guarantees (a non-zero size, the layout a block was allocated with)
// hold for `System` too. Counting touches only a thread-local `Cell`
// with a const initialiser, which never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most heap allocations a simulated fault may cost, set-up included.
const BUDGET_PER_FAULT: f64 = 0.5;

/// Size divisor: perfbench's self-test scale.
const DIV: u64 = 16;

const SEED: u64 = 1;

/// Runs `spec` under `cfg` and returns (allocations, faults); the
/// workload is built before the count starts.
fn allocations_per_run(spec: &WorkloadSpec, cfg: &RunConfig) -> (u64, u64) {
    let mut workload = spec.build(SEED).expect("valid workload");
    let cfg = cfg.clone().with_seed(SEED);
    let before = allocations();
    let report = try_run_workload(workload.as_mut(), &cfg).expect("valid run");
    let allocated = allocations() - before;
    (allocated, report.faults_total)
}

fn check(cells: &[(WorkloadSpec, RunConfig)]) {
    let mut over = Vec::new();
    for (spec, cfg) in cells {
        let (allocated, faults) = allocations_per_run(spec, cfg);
        assert!(faults > 0, "{}: no faults", spec.label());
        let per_fault = allocated as f64 / faults as f64;
        eprintln!(
            "{}: {allocated} allocations over {faults} faults, {per_fault:.2} per fault",
            spec.label()
        );
        if per_fault > BUDGET_PER_FAULT {
            over.push(format!("{}: {per_fault:.2}", spec.label()));
        }
    }
    assert!(
        over.is_empty(),
        "over {BUDGET_PER_FAULT} allocations per fault: {over:?}"
    );
}

#[test]
fn sim_paper_cells_stay_within_the_budget() {
    let cells: Vec<_> = Kernel::ALL
        .iter()
        .map(|&k| {
            let smallest = sizes_for(k)[0];
            let size = ProblemSize {
                memory_mb: (smallest.memory_mb / DIV).max(1),
                ..smallest
            };
            (WorkloadSpec::kernel(k, size), RunConfig::new(Scheme::Ampom))
        })
        .collect();
    check(&cells);
}

#[test]
fn sim_scatter_cells_stay_within_the_budget() {
    // A 64 MB heap at bake-off scale 16, half of it fitting at the
    // destination, with background writeback; each divided by 16.
    let (heap_mb, scale) = (64 / DIV, 16 / DIV);
    let cfg = RunConfig::new(Scheme::Ampom)
        .with_resident_limit_mb(32 / DIV)
        .with_writeback(WritebackSpec::default());
    let cells = [
        WorkloadSpec::kernel(
            Kernel::RandomAccess,
            ProblemSize {
                problem: 0,
                memory_mb: heap_mb,
            },
        ),
        WorkloadSpec::ZipfianKv {
            data_bytes: heap_mb << 20,
            keys: 256 * scale,
            exponent: 0.9,
            ops: 6_000 * scale,
        },
    ];
    check(&cells.map(|spec| (spec, cfg.clone())));
}
