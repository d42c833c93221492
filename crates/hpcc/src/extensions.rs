//! Extension experiments beyond the paper's evaluation.
//!
//! These quantify the paper's §7 future-work directions and the documented
//! limits of the algorithm:
//!
//! * [`ext_vm`] — VM migration: shared-window vs per-process analysis,
//! * [`ext_cluster`] — cluster-wide load balancing: policy × mechanism,
//! * [`ext_ptrans`] — the transpose pattern that defeats `dmax = 4`,
//! * [`ext_interactive`] — the §5.6 interactive application made concrete,
//! * [`ext_accuracy`] — prefetch accuracy (wasted-prefetch check),
//! * [`sweep`] — sensitivity of AMPoM's knobs on STREAM and RandomAccess.

use ampom_cluster::{run_cluster_life, BalancePolicy, LifeConfig, LifeOutcome};
use ampom_core::experiment::Experiment;
use ampom_core::lifecycle::{run_lifecycle, LifecycleConfig};
use ampom_core::migration::Scheme;
use ampom_core::prefetcher::AmpomConfig;
use ampom_core::runner::SyscallProfile;
use ampom_core::vm::{run_vm, VmAnalysis, VmWorkload};
use ampom_sim::rng::SimRng;
use ampom_sim::time::SimDuration;
use ampom_workloads::hpl::Hpl;
use ampom_workloads::interactive::Interactive;
use ampom_workloads::ptrans::Ptrans;
use ampom_workloads::sizes::ProblemSize;
use ampom_workloads::stream_kernel::StreamKernel;
use ampom_workloads::synthetic::Sequential;
use ampom_workloads::{build_kernel, Kernel, Workload};

use crate::matrix::{par_map, MATRIX_SEED};
use crate::report::{pct, secs, AsciiTable};

/// Extension 1: VM migration with multi-process access streams (§7).
pub fn ext_vm(quick: bool) -> AsciiTable {
    let (pages_each, guest_counts): (u64, Vec<usize>) = if quick {
        (200, vec![2, 6])
    } else {
        (1500, vec![2, 4, 6, 8])
    };
    let mut specs = Vec::new();
    for &guests in &guest_counts {
        for mode in [
            VmAnalysis::SharedWindow,
            VmAnalysis::PerProcess,
            VmAnalysis::NoPrefetch,
        ] {
            specs.push((guests, mode));
        }
    }
    let results = par_map(specs, move |(guests, mode)| {
        let procs: Vec<Box<dyn Workload>> = (0..guests)
            .map(|_| {
                Box::new(Sequential::new(pages_each, SimDuration::from_micros(15)))
                    as Box<dyn Workload>
            })
            .collect();
        let vm = VmWorkload::new(procs, 1);
        // Pure Eq. 3 (no read-ahead floor) isolates the windowing effect.
        let cfg = Experiment::new(Scheme::Ampom)
            .ampom(AmpomConfig {
                baseline_readahead: 0,
                ..AmpomConfig::default()
            })
            .config()
            .clone();
        let out = run_vm(vm, &cfg, mode);
        (guests, mode, out)
    });
    let mut t = AsciiTable::new(
        "Extension: VM migration — shared vs per-process windows (pure Eq. 3)",
        &[
            "guests",
            "analysis",
            "fault requests",
            "prefetched",
            "mean S",
            "total (s)",
        ],
    );
    for (guests, mode, out) in &results {
        t.row(vec![
            guests.to_string(),
            mode.name().into(),
            out.report.fault_requests.to_string(),
            out.report.pages_prefetched.to_string(),
            format!("{:.3}", out.mean_score),
            secs(out.report.total_time.as_secs_f64()),
        ]);
    }
    t
}

/// The batch size of the cluster tables: `(nodes, jobs)`.
fn cluster_batch(quick: bool) -> (usize, u64) {
    if quick {
        (8, 30)
    } else {
        (16, 120)
    }
}

/// Runs a [`LifeConfig::batch`] to the end of its batch.
///
/// # Panics
/// Panics if a job is still running at the horizon or failed: the tables
/// report completed batches.
fn run_batch(cfg: &LifeConfig) -> LifeOutcome {
    let out = run_cluster_life(cfg);
    assert_eq!(out.running_at_horizon, 0, "the batch outlasted the horizon");
    assert_eq!(out.failed, 0, "a batch job failed");
    out
}

/// The outcome columns both cluster tables share.
const BATCH_COLUMNS: [&str; 5] = [
    "mean slowdown",
    "max slowdown",
    "migrations",
    "home-returns",
    "freeze paid (s)",
];

fn batch_cells(out: &LifeOutcome) -> [String; 5] {
    [
        format!("{:.2}", out.slowdown.mean()),
        format!("{:.1}", out.slowdown.max().unwrap_or(0.0)),
        out.migrations.to_string(),
        out.returns_home.to_string(),
        secs(out.freeze_paid.as_secs_f64()),
    ]
}

/// Extension 2: cluster-wide load balancing (§1 motivation + §7 claim).
pub fn ext_cluster(quick: bool) -> AsciiTable {
    let (nodes, jobs) = cluster_batch(quick);
    let threshold = BalancePolicy::LifetimeThreshold(SimDuration::from_secs(30));
    let mut specs = Vec::new();
    for policy in [threshold, BalancePolicy::Aggressive] {
        for scheme in [Scheme::OpenMosix, Scheme::Ampom] {
            specs.push((policy, scheme));
        }
    }
    let results = par_map(specs, move |(policy, scheme)| {
        let mut cfg = LifeConfig::batch(nodes, jobs, scheme);
        cfg.policy = policy;
        (policy, scheme, run_batch(&cfg))
    });
    let mut headers = vec!["policy", "migration"];
    headers.extend(BATCH_COLUMNS);
    let mut t = AsciiTable::new("Extension: gossip-based cluster load balancing", &headers);
    for (policy, scheme, out) in &results {
        let mut row = vec![policy.name().to_string(), scheme.name().to_string()];
        row.extend(batch_cells(out));
        t.row(row);
    }
    t
}

/// Extension 3: PTRANS — the stride pattern beyond `dmax`.
pub fn ext_ptrans(quick: bool) -> AsciiTable {
    let mb = if quick { 4 } else { 64 };
    let results = par_map(
        vec![Scheme::OpenMosix, Scheme::NoPrefetch, Scheme::Ampom],
        move |scheme| {
            let mut w = Ptrans::new(mb * 1024 * 1024);
            let r = Experiment::new(scheme)
                .run_on(&mut w)
                .expect("ptrans experiment is valid");
            (scheme, r)
        },
    );
    // Reference: STREAM at the same size (fully detectable pattern).
    let stream_ref = {
        let mut w = StreamKernel::new(mb * 1024 * 1024);
        let ampom = Experiment::new(Scheme::Ampom)
            .run_on(&mut w)
            .expect("stream reference is valid");
        let mut w = StreamKernel::new(mb * 1024 * 1024);
        let nopf = Experiment::new(Scheme::NoPrefetch)
            .run_on(&mut w)
            .expect("stream reference is valid");
        ampom.fault_prevention_vs(&nopf)
    };
    let mut t = AsciiTable::new(
        format!("Extension: PTRANS {mb} MB — a write lane with stride > dmax"),
        &[
            "scheme",
            "total (s)",
            "fault requests",
            "prevented",
            "mean S",
        ],
    );
    let nopf_requests = results
        .iter()
        .find(|(s, _)| *s == Scheme::NoPrefetch)
        .map(|(_, r)| r.fault_requests)
        .unwrap_or(0);
    for (scheme, r) in &results {
        let prevented = if *scheme == Scheme::Ampom && nopf_requests > 0 {
            pct((1.0 - r.fault_requests as f64 / nopf_requests as f64) * 100.0)
        } else {
            "-".into()
        };
        t.row(vec![
            scheme.name().into(),
            secs(r.total_time.as_secs_f64()),
            r.fault_requests.to_string(),
            prevented,
            format!("{:.3}", r.prefetch_stats.scores.mean()),
        ]);
    }
    t.row(vec![
        "(STREAM ref)".into(),
        "-".into(),
        "-".into(),
        pct(stream_ref * 100.0),
        "-".into(),
    ]);
    t
}

/// Extension 4: the §5.6 interactive application.
pub fn ext_interactive(quick: bool) -> AsciiTable {
    let (mb, bursts) = if quick { (16, 4) } else { (256, 12) };
    let results = par_map(vec![Scheme::OpenMosix, Scheme::Ampom], move |scheme| {
        let mut w = Interactive::new(
            mb * 1024 * 1024,
            bursts,
            64,
            SimDuration::from_millis(300),
            SimRng::seed_from_u64(MATRIX_SEED),
        );
        let r = Experiment::new(scheme)
            .run_on(&mut w)
            .expect("interactive experiment is valid");
        (scheme, r)
    });
    let mut t = AsciiTable::new(
        format!("Extension: interactive app ({mb} MB allocated, {bursts} bursts of 64 pages)"),
        &["scheme", "freeze (s)", "total (s)", "bytes moved (MB)"],
    );
    for (scheme, r) in &results {
        t.row(vec![
            scheme.name().into(),
            secs(r.freeze_time.as_secs_f64()),
            secs(r.total_time.as_secs_f64()),
            format!("{:.1}", r.bytes_to_dest as f64 / (1024.0 * 1024.0)),
        ]);
    }
    t
}

/// Extension 5: prefetch accuracy (the "no excessive prefetching" claim).
pub fn ext_accuracy(quick: bool) -> AsciiTable {
    let mb = if quick { 4 } else { 32 };
    let results = par_map(Kernel::ALL.to_vec(), move |kernel| {
        let size = ProblemSize {
            problem: 0,
            memory_mb: mb,
        };
        let r = Experiment::new(Scheme::Ampom)
            .kernel(kernel, size)
            .workload_seed(MATRIX_SEED)
            .run()
            .expect("accuracy experiment is valid");
        (kernel, r)
    });
    let mut t = AsciiTable::new(
        format!("Extension: prefetch accuracy at {mb} MB (used / prefetched)"),
        &["kernel", "prefetched", "used", "accuracy"],
    );
    for (kernel, r) in &results {
        t.row(vec![
            kernel.name().into(),
            r.pages_prefetched.to_string(),
            r.prefetched_pages_used.to_string(),
            pct(r.prefetch_accuracy() * 100.0),
        ]);
    }
    t
}

/// Extension 6: round-trip migration — out under load, back when the
/// remote node is reclaimed (§1's "migrated again" scenario).
pub fn ext_roundtrip(quick: bool) -> AsciiTable {
    let pages = if quick { 512 } else { 8192 };
    let mut specs = Vec::new();
    for frac in [0.2f64, 0.5, 0.8] {
        for scheme in [Scheme::OpenMosix, Scheme::Ampom] {
            specs.push((frac, scheme));
        }
    }
    let results = par_map(specs, move |(frac, scheme)| {
        let mut w = Sequential::new(pages, SimDuration::from_micros(15));
        let cfg = Experiment::new(scheme).config().clone();
        // Writeback off: nothing flows home before the return.
        let lifecycle = LifecycleConfig::new(frac).without_writeback();
        (frac, scheme, run_lifecycle(&mut w, &cfg, &lifecycle))
    });
    let mut t = AsciiTable::new(
        format!("Extension: round-trip migration ({pages}-page sequential migrant)"),
        &[
            "time away",
            "scheme",
            "outbound freeze",
            "return freeze",
            "pages returned",
            "total (s)",
        ],
    );
    for (frac, scheme, r) in &results {
        t.row(vec![
            format!("{:.0}%", frac * 100.0),
            scheme.name().into(),
            secs(r.outbound_freeze.as_secs_f64()),
            secs(r.return_freeze.as_secs_f64()),
            r.pages_returned.to_string(),
            secs(r.total_time.as_secs_f64()),
        ]);
    }
    t
}

/// Extension 7: the home dependency — forwarded system calls (§7).
pub fn ext_syscall(quick: bool) -> AsciiTable {
    let mb = if quick { 4 } else { 32 };
    let mut specs = Vec::new();
    for every in [0u64, 256, 64, 16] {
        for scheme in [Scheme::OpenMosix, Scheme::Ampom] {
            specs.push((every, scheme));
        }
    }
    let results = par_map(specs, move |(every, scheme)| {
        let size = ProblemSize {
            problem: 0,
            memory_mb: mb,
        };
        let mut exp = Experiment::new(scheme)
            .kernel(Kernel::Stream, size)
            .workload_seed(MATRIX_SEED);
        if every > 0 {
            exp = exp.syscalls(SyscallProfile {
                every_refs: every,
                work: SimDuration::from_micros(50),
            });
        }
        (
            every,
            scheme,
            exp.run().expect("syscall experiment is valid"),
        )
    });
    let mut t = AsciiTable::new(
        format!("Extension: home dependency — forwarded syscalls (STREAM {mb} MB)"),
        &[
            "syscall every",
            "scheme",
            "syscalls",
            "syscall time (s)",
            "total (s)",
        ],
    );
    for (every, scheme, r) in &results {
        t.row(vec![
            if *every == 0 {
                "never".into()
            } else {
                format!("{every} refs")
            },
            scheme.name().into(),
            r.syscalls_forwarded.to_string(),
            secs(r.syscall_time.as_secs_f64()),
            secs(r.total_time.as_secs_f64()),
        ]);
    }
    t
}

/// Extension 8: memory pressure — migrating into a node whose RAM cannot
/// hold the migrant (the testbed's 512 MB nodes vs 575 MB processes).
pub fn ext_pressure(quick: bool) -> AsciiTable {
    let (mb, limits): (u64, Vec<Option<u64>>) = if quick {
        (8, vec![None, Some(4)])
    } else {
        (64, vec![None, Some(48), Some(32), Some(16)])
    };
    let mut specs = Vec::new();
    for &limit in &limits {
        for scheme in [Scheme::OpenMosix, Scheme::Ampom] {
            specs.push((limit, scheme));
        }
    }
    let results = par_map(specs, move |(limit, scheme)| {
        let size = ProblemSize {
            problem: 0,
            memory_mb: mb,
        };
        let mut exp = Experiment::new(scheme)
            .kernel(Kernel::Dgemm, size)
            .workload_seed(MATRIX_SEED);
        if let Some(l) = limit {
            exp = exp.resident_limit_mb(l);
        }
        (
            limit,
            scheme,
            exp.run().expect("pressure experiment is valid"),
        )
    });
    let mut t = AsciiTable::new(
        format!("Extension: memory pressure (DGEMM {mb} MB migrant)"),
        &[
            "node RAM",
            "scheme",
            "total (s)",
            "evictions",
            "pages re-fetched",
        ],
    );
    for (limit, scheme, r) in &results {
        let refetch =
            (r.pages_demand_fetched + r.pages_prefetched).saturating_sub(mb * 1024 * 1024 / 4096);
        t.row(vec![
            limit.map_or("unlimited".into(), |l| format!("{l} MB")),
            scheme.name().into(),
            secs(r.total_time.as_secs_f64()),
            r.pages_evicted.to_string(),
            refetch.to_string(),
        ]);
    }
    t
}

/// Extension: gossip-staleness ablation — how stale load views degrade
/// balancing quality. openMosix nodes decide from gossiped, aging load
/// vectors; distrusting entries too young starves the balancer of
/// options, trusting them too long causes migrations toward nodes that
/// are no longer idle.
pub fn ext_gossip(quick: bool) -> AsciiTable {
    let (nodes, jobs) = cluster_batch(quick);
    let ages: Vec<u64> = vec![1, 4, 8, 32, 3600];
    let results = par_map(ages, move |age| {
        let mut cfg = LifeConfig::batch(nodes, jobs, Scheme::Ampom);
        cfg.max_age = SimDuration::from_secs(age);
        (age, run_batch(&cfg))
    });
    let mut headers = vec!["max entry age (s)"];
    headers.extend(BATCH_COLUMNS);
    let mut t = AsciiTable::new(
        "Extension: gossip staleness (AMPoM migration, aggressive policy)",
        &headers,
    );
    for (age, out) in &results {
        let mut row = vec![age.to_string()];
        row.extend(batch_cells(out));
        t.row(row);
    }
    t
}

/// Extension: migration-timing sensitivity — migrate the process at
/// different points of its execution instead of right after allocation
/// (the paper's §5.1 protocol). Late migrations leave less remaining work
/// to amortise an expensive freeze, which is the amortisation argument
/// behind lifetime-threshold policies; AMPoM's constant tiny freeze makes
/// the timing nearly irrelevant.
pub fn ext_timing(quick: bool) -> AsciiTable {
    use ampom_workloads::compose::Skip;
    use ampom_workloads::stream_kernel::StreamKernel;
    let mb = if quick { 4 } else { 64 };
    let mut specs = Vec::new();
    for frac in [0.0f64, 0.25, 0.5, 0.75] {
        for scheme in [Scheme::OpenMosix, Scheme::Ampom] {
            specs.push((frac, scheme));
        }
    }
    let results = par_map(specs, move |(frac, scheme)| {
        let inner = Box::new(StreamKernel::new(mb * 1024 * 1024));
        let skip = (inner.total_refs_hint() as f64 * frac) as u64;
        let mut w = Skip::new(inner, skip);
        let home_time = w.skipped_cpu();
        let r = Experiment::new(scheme)
            .run_on(&mut w)
            .expect("timing experiment is valid");
        (frac, scheme, home_time + r.total_time, r.freeze_time)
    });
    let mut t = AsciiTable::new(
        format!("Extension: migration timing (STREAM {mb} MB, migrate mid-run)"),
        &[
            "migrate at",
            "scheme",
            "freeze (s)",
            "job total (s)",
            "freeze/remaining",
        ],
    );
    for (frac, scheme, total, freeze) in &results {
        // How much of the job's post-migration wall time the freeze eats —
        // the amortisation ratio behind lifetime-threshold policies: a
        // late eager migration pays its full freeze for little remaining
        // work, while AMPoM's is negligible at any point.
        let remaining = total.as_secs_f64() * (1.0 - frac);
        let ratio = if remaining > 0.0 {
            freeze.as_secs_f64() / remaining * 100.0
        } else {
            0.0
        };
        t.row(vec![
            format!("{:.0}%", frac * 100.0),
            scheme.name().into(),
            secs(freeze.as_secs_f64()),
            secs(total.as_secs_f64()),
            pct(ratio),
        ]);
    }
    t
}

/// Extension: measured locality of every workload in the suite — the
/// Figure 4 axes extended to the non-paper workloads.
pub fn ext_locality(quick: bool) -> AsciiTable {
    use ampom_workloads::locality::analyze;
    let mb = if quick { 2 } else { 16 };
    let bytes = mb * 1024 * 1024;
    type Named = (&'static str, Box<dyn Workload>);
    let mut workloads: Vec<Named> = Vec::new();
    for kernel in Kernel::ALL {
        let size = ProblemSize {
            problem: 0,
            memory_mb: mb,
        };
        workloads.push((kernel.name(), build_kernel(kernel, &size, MATRIX_SEED)));
    }
    workloads.push(("PTRANS", Box::new(Ptrans::new(bytes))));
    workloads.push(("HPL", Box::new(Hpl::new(bytes))));
    workloads.push((
        "Interactive",
        Box::new(Interactive::new(
            bytes,
            6,
            32,
            SimDuration::from_millis(100),
            SimRng::seed_from_u64(MATRIX_SEED),
        )),
    ));
    // Trait objects are not Send; the analysis is cheap, so run serially.
    let rows: Vec<_> = workloads
        .into_iter()
        .map(|(name, w)| (name, analyze(w)))
        .collect();
    let mut t = AsciiTable::new(
        format!("Extension: measured locality of all workloads ({mb} MB)"),
        &[
            "workload",
            "spatial (successor)",
            "temporal (reuse)",
            "mean seq run",
        ],
    );
    for (name, a) in rows {
        t.row(vec![
            name.into(),
            format!("{:.3}", a.successor_fraction),
            format!("{:.3}", a.reuse_fraction),
            format!("{:.1}", a.mean_sequential_run),
        ]);
    }
    t
}

/// Extension 9: HPL (LU factorisation) — a drifting working set the
/// paper's evaluation never exercises.
pub fn ext_hpl(quick: bool) -> AsciiTable {
    let mb = if quick { 4 } else { 64 };
    let results = par_map(
        vec![Scheme::OpenMosix, Scheme::NoPrefetch, Scheme::Ampom],
        move |scheme| {
            let mut w = Hpl::new(mb * 1024 * 1024);
            let r = Experiment::new(scheme)
                .run_on(&mut w)
                .expect("hpl experiment is valid");
            (scheme, r)
        },
    );
    let nopf_requests = results
        .iter()
        .find(|(s, _)| *s == Scheme::NoPrefetch)
        .map(|(_, r)| r.fault_requests)
        .unwrap_or(0);
    let mut t = AsciiTable::new(
        format!("Extension: HPL {mb} MB — LU factorisation, shrinking working set"),
        &[
            "scheme",
            "freeze (s)",
            "total (s)",
            "fault requests",
            "prevented",
        ],
    );
    for (scheme, r) in &results {
        let prevented = if *scheme == Scheme::Ampom && nopf_requests > 0 {
            pct((1.0 - r.fault_requests as f64 / nopf_requests as f64) * 100.0)
        } else {
            "-".into()
        };
        t.row(vec![
            scheme.name().into(),
            secs(r.freeze_time.as_secs_f64()),
            secs(r.total_time.as_secs_f64()),
            r.fault_requests.to_string(),
            prevented,
        ]);
    }
    t
}

/// Timeline: sampled run dynamics for one kernel under AMPoM — how the
/// in-flight pipeline, resident set, mean zone budget and link
/// utilisation evolve over the run. Useful for plotting the transfer
/// phase vs the compute phase.
pub fn timeline(quick: bool) -> AsciiTable {
    let mb = if quick { 4 } else { 64 };
    let size = ProblemSize {
        problem: 0,
        memory_mb: mb,
    };
    let r = Experiment::new(Scheme::Ampom)
        .kernel(Kernel::Stream, size)
        .workload_seed(MATRIX_SEED)
        .sample_series(if quick { 20 } else { 500 })
        .run()
        .expect("timeline experiment is valid");
    let series = r.series.expect("sampling enabled");
    let mut t = AsciiTable::new(
        format!("Timeline: STREAM {mb} MB under AMPoM (sampled at faults)"),
        &["t (s)", "in flight", "resident", "mean budget", "link util"],
    );
    let n = series.in_flight.len();
    for i in 0..n {
        let (ts, infl) = series.in_flight.samples()[i];
        let resident = series.resident.samples().get(i).map_or(0.0, |&(_, v)| v);
        let budget = series.zone_budget.samples().get(i).map_or(0.0, |&(_, v)| v);
        let util = series
            .link_utilization
            .samples()
            .get(i)
            .map_or(0.0, |&(_, v)| v);
        t.row(vec![
            format!("{:.3}", ts.as_secs_f64()),
            format!("{infl:.0}"),
            format!("{resident:.0}"),
            format!("{budget:.1}"),
            format!("{util:.2}"),
        ]);
    }
    t
}

/// Sensitivity sweep of AMPoM's tunables on STREAM and RandomAccess.
pub fn sweep(quick: bool) -> Vec<AsciiTable> {
    let mb = if quick { 4 } else { 16 };
    let run = move |kernel: Kernel, ampom: AmpomConfig| {
        let size = ProblemSize {
            problem: 0,
            memory_mb: mb,
        };
        Experiment::new(Scheme::Ampom)
            .kernel(kernel, size)
            .workload_seed(MATRIX_SEED)
            .ampom(ampom)
            .run()
            .expect("sweep experiment is valid")
    };

    let mut out = Vec::new();

    let mut t = AsciiTable::new(
        format!("Sweep: lookback window length l (STREAM {mb} MB)"),
        &["l", "fault requests", "total (s)", "overhead"],
    );
    for l in [8usize, 12, 20, 40, 80] {
        let r = run(
            Kernel::Stream,
            AmpomConfig {
                window_len: l,
                ..AmpomConfig::default()
            },
        );
        t.row(vec![
            l.to_string(),
            r.fault_requests.to_string(),
            secs(r.total_time.as_secs_f64()),
            pct(r.analysis_overhead_fraction() * 100.0),
        ]);
    }
    out.push(t);

    // The dmax knife edge needs a workload whose *fault* stream keeps the
    // positional interleave (three lanes, pure Eq. 3): STREAM's fault
    // stream linearises once batching kicks in, hiding the effect.
    let mut t = AsciiTable::new(
        "Sweep: max stride dmax (3 interleaved lanes, no read-ahead floor)",
        &["dmax", "fault requests", "prefetched", "mean S"],
    );
    for dmax in [1usize, 2, 3, 4, 6] {
        use ampom_core::experiment::WorkloadSpec;
        let r = Experiment::new(Scheme::Ampom)
            .workload(WorkloadSpec::Interleaved {
                streams: 3,
                stream_pages: if quick { 100 } else { 1000 },
                cpu: SimDuration::from_micros(15),
            })
            .ampom(AmpomConfig {
                dmax,
                baseline_readahead: 0,
                ..AmpomConfig::default()
            })
            .run()
            .expect("dmax sweep experiment is valid");
        t.row(vec![
            dmax.to_string(),
            r.fault_requests.to_string(),
            r.pages_prefetched.to_string(),
            format!("{:.3}", r.prefetch_stats.scores.mean()),
        ]);
    }
    out.push(t);

    let mut t = AsciiTable::new(
        format!("Sweep: baseline read-ahead (RandomAccess {mb} MB)"),
        &[
            "baseline",
            "fault requests",
            "prefetched",
            "accuracy",
            "total (s)",
        ],
    );
    for baseline in [0u64, 4, 8, 16, 32, 64] {
        let r = run(
            Kernel::RandomAccess,
            AmpomConfig {
                baseline_readahead: baseline,
                ..AmpomConfig::default()
            },
        );
        t.row(vec![
            baseline.to_string(),
            r.fault_requests.to_string(),
            r.pages_prefetched.to_string(),
            pct(r.prefetch_accuracy() * 100.0),
            secs(r.total_time.as_secs_f64()),
        ]);
    }
    out.push(t);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_vm_quick_renders() {
        let t = ext_vm(true);
        assert_eq!(t.len(), 6);
        let s = t.render();
        assert!(s.contains("per-process"));
    }

    #[test]
    fn ext_cluster_quick_renders() {
        let t = ext_cluster(true);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn ext_ptrans_shows_partial_prevention() {
        let t = ext_ptrans(true);
        assert_eq!(t.len(), 4);
        assert!(t.render().contains("STREAM ref"));
    }

    #[test]
    fn ext_interactive_quick_renders() {
        let t = ext_interactive(true);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ext_accuracy_quick_renders() {
        let t = ext_accuracy(true);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn ext_roundtrip_quick_renders() {
        let t = ext_roundtrip(true);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn ext_syscall_quick_renders() {
        let t = ext_syscall(true);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn ext_gossip_quick_renders() {
        let t = ext_gossip(true);
        assert_eq!(t.len(), 5);
    }

    /// The committed cluster tables regenerate byte for byte from the
    /// engine, through the CSV writer `hpcc-repro --csv` uses.
    #[test]
    fn cluster_csvs_reproduce() {
        let dir = std::env::temp_dir().join(format!("ampom-cluster-csvs-{}", std::process::id()));
        for (table, name) in [
            (ext_cluster(false), "ext_cluster"),
            (ext_gossip(false), "ext_gossip"),
        ] {
            table.write_csv(&dir, name).unwrap();
            let fresh = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
            let path = format!("{}/../../results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
            let committed = std::fs::read_to_string(&path).expect("committed results CSV");
            assert_eq!(
                committed, fresh,
                "results/{name}.csv no longer reproduces; regenerate it with \
                 `hpcc-repro all --csv results`"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ext_timing_quick_renders() {
        let t = ext_timing(true);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn ext_locality_quick_renders() {
        let t = ext_locality(true);
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn ext_hpl_quick_renders() {
        let t = ext_hpl(true);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn timeline_quick_renders() {
        let t = timeline(true);
        assert!(t.len() > 3);
    }

    #[test]
    fn ext_pressure_quick_renders() {
        let t = ext_pressure(true);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn sweep_quick_renders() {
        let tables = sweep(true);
        assert_eq!(tables.len(), 3);
        assert!(tables.iter().all(|t| !t.is_empty()));
    }
}
