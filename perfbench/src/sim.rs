//! `sim-paper` and `sim-scatter`: the simulated migrant loop.
//!
//! A pass runs every cell of the mix once, single-threaded, through the
//! runner's public entry point (`WorkloadSpec::build` then
//! `runner::try_run_workload`, the pair `Experiment::run` calls). Passes
//! repeat until the time budget is spent; host throughput is simulated
//! faults per thread-CPU second, each cell timed by its fastest pass.
//!
//! The traced run alternates plain passes with passes that put a span
//! around each cell (and, on sim-paper, passes with `RunConfig::trace`
//! on), which gives the tracing overheads. After the loop it replays each
//! cell's inputs through one layer at a time from outside: the reference
//! generator alone, an `AddressSpace` alone, and the AMPoM analysis
//! alone. What the cell took beyond those replays is the runner's own
//! bookkeeping.

use ampom_core::error::AmpomError;
use ampom_core::experiment::WorkloadSpec;
use ampom_core::lifecycle::WritebackSpec;
use ampom_core::metrics::RunReport;
use ampom_core::migration::Scheme;
use ampom_core::prefetcher::{AmpomConfig, AmpomPrefetcher, NetEstimates, PrefetchStats};
use ampom_core::runner::{try_run_workload, RunConfig};
use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_mem::space::{AddressSpace, TouchOutcome};
use ampom_net::calibration::fast_ethernet;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_workloads::memref::MemRef;
use ampom_workloads::sizes::{sizes_for, Kernel, ProblemSize};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::clock::{geomean, median, peak_rss_mb, thread_cpu};
use crate::metrics::Outcome;
use crate::{Ctx, Setups};

/// Which cell mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Table 1's smallest size of each HPCC kernel on Fast Ethernet.
    Paper,
    /// RandomAccess plus the locality-breaking specs under a RAM cap
    /// with background writeback.
    Scatter,
}

/// The seed whose outputs are pinned below.
pub const PINNED_SEED: u64 = 1;

/// Per-cell `RunReport::fingerprint` of every cell at [`PINNED_SEED`],
/// indexed by (mix, tiny size). A change to the simulated model moves
/// these.
fn pinned(mix: Mix, tiny: bool) -> &'static [u64] {
    match (mix, tiny) {
        (Mix::Paper, false) => &[
            0x4712_b35d_86db_1aa4,
            0xf286_ea3f_e88f_d869,
            0xc0b6_6895_1782_acf6,
            0x6ad7_8fed_c759_cc38,
        ],
        (Mix::Paper, true) => &[
            0x85cf_d540_b83f_b2fd,
            0x74e9_2950_09e5_78f1,
            0xd8f4_bdaa_26f9_d404,
            0x95cc_291f_5a81_72b1,
        ],
        (Mix::Scatter, false) => &[
            0x2092_07a3_0dc9_18f0,
            0x5976_1c7d_e273_8d5d,
            0xea53_d6e0_ba22_0094,
            0x6cf6_9ca4_0a22_93d3,
        ],
        (Mix::Scatter, true) => &[
            0xf620_b9fc_d0be_d1b6,
            0xca9e_c51a_8dd5_b77d,
            0x2313_fcd2_a00e_fd5c,
            0x4a08_0156_4bd6_e17a,
        ],
    }
}

/// One (workload, configuration) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The reference stream.
    pub spec: WorkloadSpec,
    /// Runner configuration (seed applied per run).
    pub cfg: RunConfig,
}

/// The cells of `mix`, every size divided by `div` (1 is the full
/// size; the self-tests run at 1/16, and set-up warms up at half the
/// run's size).
pub fn cells(mix: Mix, div: u64) -> Vec<Cell> {
    let shrink = |v: u64| (v / div).max(1);
    match mix {
        Mix::Paper => Kernel::ALL
            .iter()
            .map(|&k| {
                let size = ProblemSize {
                    memory_mb: shrink(sizes_for(k)[0].memory_mb),
                    ..sizes_for(k)[0]
                };
                Cell {
                    spec: WorkloadSpec::kernel(k, size),
                    cfg: RunConfig::new(Scheme::Ampom),
                }
            })
            .collect(),
        Mix::Scatter => {
            // The bake-off's locality-breaking panel at scale 16 on a
            // 64 MB heap, with half the heap fitting at the destination.
            let (mb, scale) = (shrink(64), shrink(16));
            let heap = mb << 20;
            let cfg = RunConfig::new(Scheme::Ampom)
                .with_resident_limit_mb(shrink(32))
                .with_writeback(WritebackSpec::default());
            [
                WorkloadSpec::kernel(
                    Kernel::RandomAccess,
                    ProblemSize {
                        problem: 0,
                        memory_mb: mb,
                    },
                ),
                WorkloadSpec::PointerChase {
                    data_bytes: heap,
                    hops: 3_000 * scale,
                },
                WorkloadSpec::ZipfianKv {
                    data_bytes: heap,
                    keys: 256 * scale,
                    exponent: 0.9,
                    ops: 6_000 * scale,
                },
                WorkloadSpec::BurstyChurn {
                    data_bytes: heap,
                    epochs: 6,
                    hot_pages: 48 * scale,
                    touches_per_epoch: 800 * scale,
                    churn_pct: 40,
                },
            ]
            .into_iter()
            .map(|spec| Cell {
                spec,
                cfg: cfg.clone(),
            })
            .collect()
        }
    }
}

fn run_cell(cell: &Cell, seed: u64, trace: bool) -> Result<RunReport, AmpomError> {
    let mut workload = cell.spec.build(seed)?;
    let mut cfg = cell.cfg.clone().with_seed(seed);
    cfg.trace = trace;
    try_run_workload(workload.as_mut(), &cfg)
}

/// Set-up: validates every cell and builds its inputs, draining each
/// reference generator once (the streams every pass replays), then warms
/// the runner with one pass over the cells at half their size.
fn setup(mix: Mix, div: u64, seed: u64) -> Result<(Vec<Cell>, Vec<u64>), AmpomError> {
    let cells = cells(mix, div);
    let mut refs = Vec::with_capacity(cells.len());
    for cell in &cells {
        cell.cfg.validate()?;
        let n = cell.spec.build(seed)?.map(black_box).count() as u64;
        refs.push(n);
    }
    for cell in &self::cells(mix, div * 2) {
        black_box(run_cell(cell, seed, false)?);
    }
    Ok((cells, refs))
}

/// Host-time replays of one cell's inputs through single layers.
#[derive(Debug, Default)]
struct Replay {
    refs: u64,
    gen_ns: u64,
    touch_ns: u64,
    on_fault_calls: u64,
    on_fault_ns: u64,
}

/// Thread-CPU nanoseconds since `since`.
fn cpu_ns_since(since: Duration) -> u64 {
    (thread_cpu() - since).as_nanos() as u64
}

fn replay(ctx: &mut Ctx, cell: &Cell, id: u64) -> Result<Replay, AmpomError> {
    let mut out = Replay::default();

    // workloads: drain the generator alone.
    let span = ctx.spans.open("workloads.gen", id);
    let t = thread_cpu();
    let mut workload = cell.spec.build(ctx.seed)?;
    let mut stream: Vec<MemRef> = Vec::with_capacity(workload.total_refs_hint() as usize);
    stream.extend(&mut workload);
    out.gen_ns = cpu_ns_since(t);
    ctx.spans.close(span);
    out.refs = stream.len() as u64;

    // mem: the same references through a fresh post-migration address
    // space, installing every remote fault at once.
    let layout = workload.layout().clone();
    let total = layout.total_pages();
    let mut space = AddressSpace::new(layout);
    let mut remote = vec![false; total as usize];
    for p in workload.allocation_pages() {
        space.mark_remote(p);
        remote[p.index() as usize] = true;
    }
    let mut faults: Vec<(PageId, SimTime)> = Vec::new();
    let span = ctx.spans.open("mem.touch", id);
    let t = thread_cpu();
    let mut now = SimTime::ZERO;
    for r in &stream {
        now += r.cpu;
        if space.touch(r.page, r.write) == TouchOutcome::RemoteFault {
            space.install(r.page);
            faults.push((r.page, now));
        }
    }
    out.touch_ns = cpu_ns_since(t);
    ctx.spans.close(span);
    drop(stream);

    // core: the fault sequence through the AMPoM analysis, refusing pages
    // already issued (a page the zone fetched never faults again).
    let link = fast_ethernet();
    let est = NetEstimates {
        t0: link.latency,
        td: link.serialization_time(PAGE_SIZE),
    };
    let limit = PageId(total);
    let mut pf = AmpomPrefetcher::new(AmpomConfig::default());
    let mut issued = vec![false; total as usize];
    let span = ctx.spans.open("core.on_fault", id);
    let t = thread_cpu();
    for &(page, at) in &faults {
        if issued[page.index() as usize] {
            continue;
        }
        issued[page.index() as usize] = true;
        let decision = pf.on_fault(page, at, 1.0, est, limit, |p| {
            let i = p.index() as usize;
            remote[i] && !issued[i]
        });
        for p in decision.prefetch {
            issued[p.index() as usize] = true;
        }
        out.on_fault_calls += 1;
    }
    out.on_fault_ns = cpu_ns_since(t);
    ctx.spans.close(span);
    Ok(out)
}

/// How one pass of the timed loop runs its cells. The untraced run makes
/// plain passes only; the traced run cycles through its modes pass by
/// pass, so each is timed under the same host conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No spans, `RunConfig::trace` off.
    Plain,
    /// A span around each cell.
    Spanned,
    /// `RunConfig::trace` on.
    TraceOn,
}

/// Rounds of single-layer replays in the traced run; each layer is timed
/// by its fastest round.
const REPLAYS: usize = 3;

/// Runs the mix for the time budget.
pub fn run(ctx: &mut Ctx, mix: Mix) -> Result<Outcome, AmpomError> {
    let seed = ctx.seed;
    let tiny = ctx.tiny;
    let div = if tiny { 16 } else { 1 };
    let mut setups = Setups::new(thread_cpu);
    let (cells, setup_refs) = setups.time(|| setup(mix, div, seed))?;
    let pins = (seed == PINNED_SEED).then(|| pinned(mix, tiny));
    let modes: &[Mode] = match (ctx.traced, mix) {
        (false, _) => &[Mode::Plain],
        (true, Mix::Paper) => &[Mode::Plain, Mode::Spanned, Mode::TraceOn],
        (true, Mix::Scatter) => &[Mode::Plain, Mode::Spanned],
    };
    let mut out = Outcome::default();

    // Interference from other tenants of a shared host only ever adds
    // time, and it comes in bursts that can slow one pass by a third, so
    // each cell is timed, per mode, by its fastest pass.
    let mut best = vec![vec![f64::INFINITY; cells.len()]; modes.len()];
    let mut first: Option<Vec<RunReport>> = None;
    let mut passes = 0;
    let start = Instant::now();
    while passes < modes.len() || setups.measured_since(start) < ctx.seconds {
        if setups.due(start, ctx.seconds) {
            setups.time(|| setup(mix, div, seed))?;
        }
        let m = passes % modes.len();
        ctx.spans.set_enabled(modes[m] == Mode::Spanned);
        let mut reports = Vec::with_capacity(cells.len());
        for (i, cell) in cells.iter().enumerate() {
            let id = (passes * cells.len() + i) as u64;
            // The clock encloses the span, so a spanned pass pays for it.
            let c0 = thread_cpu();
            let span = ctx.spans.open("sim.cell", id);
            let report = run_cell(cell, seed, modes[m] == Mode::TraceOn)?;
            ctx.spans.close(span);
            best[m][i] = best[m][i].min((thread_cpu() - c0).as_secs_f64());

            let reference = first.as_ref().map(|f| f[i].fingerprint());
            let pin = pins.map(|p| p[i]);
            check_cell(&mut out, cell, &report, setup_refs[i], reference, pin, id);
            reports.push(report);
        }
        first.get_or_insert(reports);
        passes += 1;
    }
    ctx.spans.set_enabled(ctx.traced);
    while setups.pending() {
        setups.time(|| setup(mix, div, seed))?;
    }
    let reports = first.expect("at least one pass");

    let plain = &best[0];
    let faults: Vec<u64> = reports.iter().map(|r| r.faults_total).collect();
    let faults_per_s = faults.iter().sum::<u64>() as f64 / plain.iter().sum::<f64>();
    let us_per_fault: Vec<f64> = plain
        .iter()
        .zip(&faults)
        .map(|(cpu, &f)| cpu * 1e6 / f as f64)
        .collect();
    let slowdowns: Vec<f64> = reports
        .iter()
        .map(|r| r.total_time.as_secs_f64() / r.compute_time.as_secs_f64())
        .collect();
    let migrant_slowdown = geomean(&slowdowns);
    let basis = format!(
        "{} cells, each timed by the fastest of {} passes",
        cells.len(),
        passes.div_ceil(modes.len())
    );
    out.set("setup_s", setups.median());
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("throughput_per_s", faults_per_s);
    out.set("op_p50_us", median(&us_per_fault));
    out.set("slowdown", migrant_slowdown);
    out.name("faults_per_s", faults_per_s, "1/s", "higher", basis.clone());
    out.name(
        "migrant_slowdown",
        migrant_slowdown,
        "ratio",
        "lower",
        format!("geometric mean over {} cells, simulated", cells.len()),
    );

    if ctx.traced {
        let total = |mode: Mode| {
            let m = modes.iter().position(|&x| x == mode).expect("mode runs");
            best[m].iter().sum::<f64>()
        };
        out.set(
            "bench.tracing_overhead",
            total(Mode::Spanned) / total(Mode::Plain) - 1.0,
        );
        if mix == Mix::Paper {
            out.set(
                "obs.trace_on_overhead",
                total(Mode::TraceOn) / total(Mode::Plain) - 1.0,
            );
        }
        layer_counts(&mut out, &reports, &setup_refs);
        layer_times(ctx, &mut out, &cells, &reports, plain)?;
    }
    Ok(out)
}

/// Host time per layer: each cell's inputs replayed through one layer at
/// a time, and what the cell's fastest plain pass took beyond those
/// replays (the runner's own dispatch, in-flight and install
/// bookkeeping).
fn layer_times(
    ctx: &mut Ctx,
    out: &mut Outcome,
    cells: &[Cell],
    reports: &[RunReport],
    cell_cpu_s: &[f64],
) -> Result<(), AmpomError> {
    let (mut refs, mut calls, mut faults) = (0u64, 0u64, 0u64);
    let (mut gen, mut touch, mut on_fault, mut runner) = (0.0, 0.0, 0.0, 0.0);
    for (i, cell) in cells.iter().enumerate() {
        let rounds = (0..REPLAYS)
            .map(|_| replay(ctx, cell, i as u64))
            .collect::<Result<Vec<_>, _>>()?;
        let fastest = |f: fn(&Replay) -> u64| rounds.iter().map(f).min().unwrap_or(0) as f64;
        let (g, t, f) = (
            fastest(|r| r.gen_ns),
            fastest(|r| r.touch_ns),
            fastest(|r| r.on_fault_ns),
        );
        let per_call = f / rounds[0].on_fault_calls.max(1) as f64;
        let analyses = reports[i].prefetch_stats.analyses as f64;
        runner += cell_cpu_s[i] * 1e9 - g - t - analyses * per_call;
        refs += rounds[0].refs;
        calls += rounds[0].on_fault_calls;
        faults += reports[i].faults_total;
        (gen, touch, on_fault) = (gen + g, touch + t, on_fault + f);
    }
    out.set("workloads.gen_ns_per_ref", gen / refs as f64);
    out.set("mem.touch_ns_per_ref", touch / refs as f64);
    out.set("core.on_fault_ns", on_fault / calls.max(1) as f64);
    out.set("core.runner_ns_per_fault", runner / faults as f64);
    Ok(())
}

fn check_cell(
    out: &mut Outcome,
    cell: &Cell,
    r: &RunReport,
    refs: u64,
    reference: Option<u64>,
    pin: Option<u64>,
    id: u64,
) {
    let fp = r.fingerprint();
    let label = cell.spec.label();
    let phases_exact = r.phases.total() == r.total_time;
    let used_ok = r.prefetched_pages_used <= r.pages_prefetched;
    let repeats = reference.is_none_or(|f| f == fp);
    let pinned = pin.is_none_or(|p| p == fp);
    out.check(
        phases_exact && used_ok && repeats && pinned && refs > 0,
        || {
            format!(
                "cell {id} {label}: phases sum exactly {phases_exact}, used <= prefetched \
                 {used_ok}, repeats pass 0 {repeats}, matches pin {pinned} \
                 (fingerprint {fp:#018x})"
            )
        },
    );
}

/// Deterministic per-layer counts of one pass (every pass is identical).
fn layer_counts(out: &mut Outcome, reports: &[RunReport], refs: &[u64]) {
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let secs = |f: &dyn Fn(&RunReport) -> SimDuration| {
        reports.iter().map(|r| f(r).as_secs_f64()).sum::<f64>()
    };
    let mut stats = PrefetchStats::default();
    for r in reports {
        stats.merge(&r.prefetch_stats);
    }
    let faults = sum(&|r| r.faults_total);
    let requests = sum(&|r| r.fault_requests + r.prefetch_only_requests);
    let prefetched = sum(&|r| r.pages_prefetched);
    out.set("workloads.refs", refs.iter().sum::<u64>() as f64);
    out.set("core.zone_budget_mean", stats.budgets.mean());
    out.set("core.faults", faults);
    out.set("core.fault_requests", sum(&|r| r.fault_requests));
    out.set("core.requests_per_fault", requests / faults);
    out.set("core.pages_prefetched", prefetched);
    out.set(
        "core.prefetch_accuracy",
        sum(&|r| r.prefetched_pages_used) / prefetched.max(1.0),
    );
    out.set(
        "core.fallback_share",
        stats.fallbacks as f64 / stats.analyses.max(1) as f64,
    );
    out.set("core.deputy_busy_s", secs(&|r| r.deputy.busy_time));
    out.set("core.phase.freeze_s", secs(&|r| r.phases.freeze));
    out.set("core.phase.compute_s", secs(&|r| r.phases.compute));
    out.set("core.phase.minor_fault_s", secs(&|r| r.phases.minor_fault));
    out.set("core.phase.analysis_s", secs(&|r| r.phases.analysis));
    out.set("core.phase.install_s", secs(&|r| r.phases.install));
    out.set("core.phase.fault_stall_s", secs(&|r| r.phases.fault_stall));
    out.set("core.phase.recovery_s", secs(&|r| r.phases.recovery));
    out.set("core.phase.syscall_s", secs(&|r| r.phases.syscall));
    out.set(
        "core.phase.prefetch_overlap_s",
        secs(&|r| r.phases.prefetch_overlap),
    );
    out.set("net.bytes_to_dest", sum(&|r| r.bytes_to_dest));
    out.set("net.bytes_from_dest", sum(&|r| r.bytes_from_dest));
    out.set("net.mpt_bytes", sum(&|r| r.mpt_bytes));
    out.set("mem.pages_evicted", sum(&|r| r.pages_evicted));
    out.set(
        "mem.writeback_pages",
        sum(&|r| r.writeback.pages_written_back),
    );
    out.set("mem.writeback_batches", sum(&|r| r.writeback.batches_sent));
}
