//! An allocation budget for the simulated fault path.
//!
//! The forward loop's per-fault work — the zone analysis, the request,
//! the deputy's replies, the in-flight set, installs, evictions and
//! writeback batches — reuses storage the loop, the transport, the
//! prefetcher and the writeback engine own, so a fault allocates nothing
//! once that storage has grown. What a run allocates is its set-up and
//! that growth. This binary counts every heap allocation (and
//! reallocation) a run makes, set-up included, with its own global
//! allocator, and holds each cell to two bounds: at most half an
//! allocation per simulated fault at 1/16 size (three quarters for a
//! multi-run, see [`MULTI_BUDGET_PER_FAULT`]), and at most
//! [`STEADY_STATE_SLACK`] more allocations at 1/8 size than at 1/16,
//! though the larger run takes about twice the faults. The second bound
//! says "none in steady state" directly: one allocation per fault put
//! back fails it by hundreds.
//!
//! The cells are perfbench's: the `sim-paper` mix (the smallest Table 1
//! size of each HPCC kernel under AMPoM) and two `sim-scatter` specs (a
//! 2 MB RAM cap with background writeback), plus the `sim-paper` mix as
//! one-migrant multi-runs, whose member transport keeps its own
//! in-flight set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ampom_core::experiment::WorkloadSpec;
use ampom_core::lifecycle::WritebackSpec;
use ampom_core::migration::Scheme;
use ampom_core::multirun::{run_multi, MultiRunSpec};
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

/// The most heap allocations a simulated fault may cost, set-up
/// included, on the solo loop.
const BUDGET_PER_FAULT: f64 = 0.5;

/// The same for a one-migrant multi-run, which builds its workload and
/// its coordinator inside the count: RandomAccess's 133 faults at 1/16
/// size come with 77 set-up allocations (0.58 a fault), and 78 at 1/8
/// size with 291 faults, so none of them is per request.
const MULTI_BUDGET_PER_FAULT: f64 = 0.75;

/// The most allocations a run at 1/8 size may make beyond the same cell
/// at 1/16 size: growth of buffers that double, never work per fault.
const STEADY_STATE_SLACK: u64 = 8;

const SEED: u64 = 1;

/// How a cell runs.
#[derive(Clone, Copy)]
enum Driver {
    /// The solo loop over a simulated transport.
    Solo,
    /// A one-migrant multi-run.
    Multi,
}

impl Driver {
    fn budget_per_fault(self) -> f64 {
        match self {
            Driver::Solo => BUDGET_PER_FAULT,
            Driver::Multi => MULTI_BUDGET_PER_FAULT,
        }
    }
}

/// One cell: its workload and its config at a size divisor, and its
/// driver.
type Case = (fn(u64) -> WorkloadSpec, fn(u64) -> RunConfig, Driver);

/// Runs `spec` under `cfg` and returns (allocations, faults). A solo
/// run's workload is built before the count starts; a multi-run builds
/// its own, inside the count.
fn allocations_per_run(spec: &WorkloadSpec, cfg: &RunConfig, driver: Driver) -> (u64, u64) {
    let cfg = cfg.clone().with_seed(SEED);
    match driver {
        Driver::Solo => {
            let mut workload = spec.build(SEED).expect("valid workload");
            let before = allocations();
            let report = try_run_workload(workload.as_mut(), &cfg).expect("valid run");
            (allocations() - before, report.faults_total)
        }
        Driver::Multi => {
            let multi = MultiRunSpec::homogeneous(cfg, spec.clone(), SEED, 1);
            let before = allocations();
            let report = run_multi(&multi).expect("valid multi-run");
            (allocations() - before, report.reports[0].faults_total)
        }
    }
}

fn check(cells: &[Case]) {
    let mut over = Vec::new();
    for &(spec_at, cfg_at, driver) in cells {
        let small = spec_at(16);
        let (allocated, faults) = allocations_per_run(&small, &cfg_at(16), driver);
        let (allocated_large, faults_large) = allocations_per_run(&spec_at(8), &cfg_at(8), driver);
        assert!(faults > 0, "{}: no faults", small.label());
        let per_fault = allocated as f64 / faults as f64;
        eprintln!(
            "{}: {allocated} allocations over {faults} faults, {per_fault:.2} per fault; \
             {allocated_large} over {faults_large} at 1/8 size",
            small.label()
        );
        if per_fault > driver.budget_per_fault() {
            over.push(format!("{}: {per_fault:.2} per fault", small.label()));
        }
        if allocated_large > allocated + STEADY_STATE_SLACK {
            over.push(format!(
                "{}: {allocated} at 1/16 size, {allocated_large} at 1/8",
                small.label()
            ));
        }
    }
    assert!(
        over.is_empty(),
        "over the allocations per fault or {STEADY_STATE_SLACK} more at twice the size: \
         {over:?}"
    );
}

/// The `sim-paper` mix at size divisor `div`.
fn paper_cells(driver: Driver) -> Vec<Case> {
    fn kernel_at<const K: usize>(div: u64) -> WorkloadSpec {
        let k = Kernel::ALL[K];
        let smallest = sizes_for(k)[0];
        let size = ProblemSize {
            memory_mb: (smallest.memory_mb / div).max(1),
            ..smallest
        };
        WorkloadSpec::kernel(k, size)
    }
    let at: [fn(u64) -> WorkloadSpec; 4] = [
        kernel_at::<0>,
        kernel_at::<1>,
        kernel_at::<2>,
        kernel_at::<3>,
    ];
    assert_eq!(Kernel::ALL.len(), at.len());
    at.map(|spec_at| -> Case { (spec_at, |_| RunConfig::new(Scheme::Ampom), driver) })
        .to_vec()
}

#[test]
fn sim_paper_cells_stay_within_the_budget() {
    check(&paper_cells(Driver::Solo));
}

#[test]
fn one_migrant_multi_runs_stay_within_the_budget() {
    check(&paper_cells(Driver::Multi));
}

#[test]
fn sim_scatter_cells_stay_within_the_budget() {
    // A 64 MB heap at bake-off scale 16, half of it fitting at the
    // destination, with background writeback; each divided by `div`.
    fn random_access(div: u64) -> WorkloadSpec {
        WorkloadSpec::kernel(
            Kernel::RandomAccess,
            ProblemSize {
                problem: 0,
                memory_mb: 64 / div,
            },
        )
    }
    fn zipfian_kv(div: u64) -> WorkloadSpec {
        let scale = 16 / div;
        WorkloadSpec::ZipfianKv {
            data_bytes: (64 / div) << 20,
            keys: 256 * scale,
            exponent: 0.9,
            ops: 6_000 * scale,
        }
    }
    // The RAM cap is half the heap at either size.
    fn capped(div: u64) -> RunConfig {
        RunConfig::new(Scheme::Ampom)
            .with_resident_limit_mb(32 / div)
            .with_writeback(WritebackSpec::default())
    }
    check(&[
        (random_access, capped, Driver::Solo),
        (zipfian_kv, capped, Driver::Solo),
    ]);
}
