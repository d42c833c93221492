//! Differential golden harness for the multi-migrant deputy.
//!
//! Captured *before* the multi-migrant refactor: the fingerprints below
//! are what `run_with_transport` over a [`SimulatedTransport`] produced
//! for every HPCC kernel × transport-supported scheme at the quick
//! 4 MB size (workload seed 42, stock link). Two assertions pin them:
//!
//! 1. The single-migrant path still reproduces them after the refactor.
//! 2. The N=1 multi-migrant path (`run_multi` with one migrant — the
//!    full turn-taking/shard machinery, not a special-cased shortcut)
//!    reproduces them bit-identically.
//!
//! A second table pins 18 runs at N>1, folded per run into one digest of
//! every migrant's fingerprint and the shared deputy's counters. It was
//! captured with the thread-per-migrant coordinator that `run_multi` used
//! before its migrants became futures polled on one thread.
//!
//! To re-capture after an *intentional* semantic change:
//! `cargo test -p ampom-core --test multi_identity -- --ignored --nocapture`

use ampom_core::chaos::{scenario, standard_workload};
use ampom_core::deputy::AdmissionConfig;
use ampom_core::experiment::WorkloadSpec;
use ampom_core::lifecycle::WritebackSpec;
use ampom_core::multirun::{
    derive_member_seed, run_multi, MigrantSpec, MultiRunReport, MultiRunSpec,
};
use ampom_core::runner::{RunConfig, SyscallProfile};
use ampom_core::transport::{run_with_transport, SimulatedTransport};
use ampom_core::Scheme;
use ampom_sim::time::SimDuration;
use ampom_workloads::sizes::{Kernel, ProblemSize};

/// The `hpcc` matrix seed: every scheme sees the same reference stream.
const SEED: u64 = 42;

/// The quick 4 MB size used by smoke runs.
const QUICK: ProblemSize = ProblemSize {
    problem: 0,
    memory_mb: 4,
};

/// Schemes the transport loop supports (FFA pages from the file server).
const SCHEMES: [Scheme; 3] = [Scheme::Ampom, Scheme::NoPrefetch, Scheme::OpenMosix];

/// Pre-refactor golden fingerprints, in `Kernel::ALL` × `SCHEMES` order.
const GOLDENS: [(Kernel, Scheme, u64); 12] = [
    (Kernel::Dgemm, Scheme::Ampom, 0x88fbf10bfb8e1f97),
    (Kernel::Dgemm, Scheme::NoPrefetch, 0x3722ae905f44322e),
    (Kernel::Dgemm, Scheme::OpenMosix, 0x870b266e66ae3e69),
    (Kernel::Stream, Scheme::Ampom, 0x4d941b9d030acd1d),
    (Kernel::Stream, Scheme::NoPrefetch, 0x871d0ec60a0221b6),
    (Kernel::Stream, Scheme::OpenMosix, 0x577596eac700554e),
    (Kernel::RandomAccess, Scheme::Ampom, 0xb584e9e36c4d60e3),
    (Kernel::RandomAccess, Scheme::NoPrefetch, 0x53b8eba36e08173e),
    (Kernel::RandomAccess, Scheme::OpenMosix, 0x6c446c83958c2662),
    (Kernel::Fft, Scheme::Ampom, 0x95cc291f5a8172b1),
    (Kernel::Fft, Scheme::NoPrefetch, 0xba1d1e8746d27b9c),
    (Kernel::Fft, Scheme::OpenMosix, 0xb784448113d03781),
];

fn single_fp(kernel: Kernel, scheme: Scheme) -> u64 {
    let cfg = RunConfig::new(scheme);
    let mut w = WorkloadSpec::kernel(kernel, QUICK)
        .build(SEED)
        .expect("valid kernel spec");
    let mut t = SimulatedTransport::new(&cfg);
    run_with_transport(w.as_mut(), &cfg, &mut t)
        .expect("transport-compatible config")
        .fingerprint()
}

#[test]
#[ignore = "capture helper: prints the golden table for this tree"]
fn capture_golden_fingerprints() {
    for kernel in Kernel::ALL {
        for scheme in SCHEMES {
            println!(
                "    (Kernel::{kernel:?}, Scheme::{scheme:?}, {:#018x}),",
                single_fp(kernel, scheme)
            );
        }
    }
}

#[test]
fn single_migrant_path_matches_pre_refactor_goldens() {
    for (kernel, scheme, golden) in GOLDENS {
        assert_eq!(
            single_fp(kernel, scheme),
            golden,
            "single-migrant {kernel:?}/{scheme:?} drifted from its pre-refactor fingerprint"
        );
    }
}

/// The differential half of the harness: an N=1 *multi-migrant* run —
/// the full sharded deputy, DRR scheduler, turn order and delivery
/// batching, not a special-cased shortcut — must reproduce the
/// pre-refactor single-migrant fingerprints bit-identically.
#[test]
fn n1_multi_migrant_path_matches_pre_refactor_goldens() {
    for (kernel, scheme, golden) in GOLDENS {
        let cfg = RunConfig::new(scheme);
        let spec = MultiRunSpec::homogeneous(
            cfg,
            WorkloadSpec::Kernel {
                kernel,
                size: QUICK,
            },
            SEED,
            1,
        );
        let report = run_multi(&spec).expect("N=1 multi-run succeeds");
        assert_eq!(
            report.reports[0].fingerprint(),
            golden,
            "N=1 multi-migrant {kernel:?}/{scheme:?} drifted from its pre-refactor fingerprint"
        );
    }
}

/// The N>1 runs the multi-migrant table pins, in [`GOLDENS_MULTI`] order:
/// every kernel × scheme cell at N=4, the four kernels as one
/// heterogeneous N=4 run, N=3 with every optional loop feature on, three
/// chaos scenarios at N=8 under their own admission, and bounded
/// admission at N=6.
fn multi_cases() -> Vec<(String, MultiRunSpec)> {
    let mut cases = Vec::new();
    for kernel in Kernel::ALL {
        for scheme in SCHEMES {
            let spec = MultiRunSpec::homogeneous(
                RunConfig::new(scheme),
                WorkloadSpec::kernel(kernel, QUICK),
                SEED,
                4,
            );
            cases.push((format!("{kernel:?}/{scheme:?} x4"), spec));
        }
    }
    let mut mixed = MultiRunSpec::homogeneous(
        RunConfig::new(Scheme::Ampom),
        WorkloadSpec::kernel(Kernel::Dgemm, QUICK),
        SEED,
        1,
    );
    mixed.migrants = Kernel::ALL
        .into_iter()
        .zip(0..)
        .map(|(kernel, i)| MigrantSpec {
            workload: WorkloadSpec::kernel(kernel, QUICK),
            seed: derive_member_seed(SEED, i),
        })
        .collect();
    cases.push(("four kernels x4".into(), mixed));
    let featured = RunConfig::new(Scheme::Ampom)
        .with_syscalls(SyscallProfile {
            every_refs: 37,
            work: SimDuration::from_micros(3),
        })
        .with_sample_series(5)
        .with_trace()
        .with_writeback(WritebackSpec::default());
    cases.push((
        "syscalls+series+trace+writeback x3".into(),
        MultiRunSpec::homogeneous(
            featured,
            WorkloadSpec::kernel(Kernel::Stream, QUICK),
            SEED,
            3,
        ),
    ));
    for name in [
        "flaky-link-storm",
        "deputy-restart-midstorm",
        "partition-heal",
    ] {
        let s = scenario(name).expect("named scenario exists");
        let profile = s.profile().expect("a chaos scenario has a profile").clone();
        let spec = MultiRunSpec::homogeneous(
            RunConfig::new(Scheme::Ampom).with_seed(SEED),
            standard_workload(),
            SEED,
            8,
        )
        .with_admission(s.admission())
        .with_chaos(profile);
        cases.push((format!("{name} x8"), spec));
    }
    cases.push((
        "bounded(12) x6".into(),
        MultiRunSpec::homogeneous(RunConfig::new(Scheme::Ampom), standard_workload(), SEED, 6)
            .with_admission(AdmissionConfig::bounded(12)),
    ));
    cases
}

/// Folds everything a multi-run reports into one u64: each migrant's
/// fingerprint, the aggregate deputy counters, the service-share bits,
/// the coalesced-page counts and the makespan.
fn multi_fp(report: &MultiRunReport) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let d = &report.deputy;
    report
        .reports
        .iter()
        .map(|r| r.fingerprint())
        .chain([
            d.queued_requests,
            d.max_backlog.as_nanos(),
            d.busy_time.as_nanos(),
            d.prefetch_pages_shed,
            d.demand_pages_shed,
            d.shed_events,
            d.hellos_deferred,
        ])
        .chain(report.service_shares.iter().map(|s| s.to_bits()))
        .chain(report.pages_coalesced.iter().copied())
        .chain([report.makespan.as_nanos()])
        .fold(0x4D_55_4C_54, mix)
}

/// Multi-migrant fingerprints captured with the thread-per-migrant
/// coordinator, in [`multi_cases`] order.
const GOLDENS_MULTI: [u64; 18] = [
    0x7a00146b58512a9d, // Dgemm/Ampom x4
    0x49ea78b9d7a22e94, // Dgemm/NoPrefetch x4
    0xbd663871bf9978c0, // Dgemm/OpenMosix x4
    0x27f93d83b6540129, // Stream/Ampom x4
    0xc9c0aff0889f20f0, // Stream/NoPrefetch x4
    0xac28564e1c23c13e, // Stream/OpenMosix x4
    0xf937d282722496fd, // RandomAccess/Ampom x4
    0x1fc2bdf225aeb7e4, // RandomAccess/NoPrefetch x4
    0xdb22aeb244b772c9, // RandomAccess/OpenMosix x4
    0xdb7f7d0e25425fa3, // Fft/Ampom x4
    0x5404328392ea85d1, // Fft/NoPrefetch x4
    0xbea57cdf7862f26b, // Fft/OpenMosix x4
    0xde5f7f51152ba875, // four kernels x4
    0xb698c13233e12dd9, // syscalls+series+trace+writeback x3
    0xc85c3c931ebd7f7f, // flaky-link-storm x8
    0x674704d1f27338c0, // deputy-restart-midstorm x8
    0xb4444574091c7071, // partition-heal x8
    0xbe99cc5f4c7159fd, // bounded(12) x6
];

#[test]
#[ignore = "capture helper: prints the N>1 golden table for this tree"]
fn capture_multi_fingerprints() {
    for (name, spec) in multi_cases() {
        let report = run_multi(&spec).expect("multi-run succeeds");
        println!("    {:#018x}, // {name}", multi_fp(&report));
    }
}

#[test]
fn multi_migrant_runs_match_their_goldens() {
    let cases = multi_cases();
    assert_eq!(cases.len(), GOLDENS_MULTI.len());
    for ((name, spec), golden) in cases.into_iter().zip(GOLDENS_MULTI) {
        let report = run_multi(&spec).expect("multi-run succeeds");
        assert_eq!(multi_fp(&report), golden, "{name} drifted from its golden");
    }
}
