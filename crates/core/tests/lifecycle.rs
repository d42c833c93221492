//! Propcheck suite for the bidirectional page lifecycle.
//!
//! Three properties pin the subsystem:
//!
//! 1. **Dirty-page conservation** — across random workloads, away
//!    fractions and every chaos scenario (message loss, burst loss,
//!    deputy restarts mid-storm), the writeback protocol lands exactly
//!    the final version of every dirtied page at the home sink.
//! 2. **Forward-only identity** — a [`RunConfig`] without writeback is
//!    bit-identical to the pre-lifecycle goldens: the new subsystem is
//!    invisible unless asked for.
//! 3. **The config contract** — every [`RunConfig`] field, set alone,
//!    either moves the lifecycle report where it should or is refused.

use ampom_core::chaos;
use ampom_core::experiment::WorkloadSpec;
use ampom_core::lifecycle::{run_lifecycle, LifecycleReport, WritebackSpec};
use ampom_core::policy::PolicySpec;
use ampom_core::prefetcher::AmpomConfig;
use ampom_core::reliability::{FailurePolicy, FaultProfile};
use ampom_core::runner::{CrossTrafficSpec, RunConfig, SyscallProfile};
use ampom_core::transport::{run_with_transport, SimulatedTransport};
use ampom_core::{AmpomError, Scheme};
use ampom_net::calibration::broadband;
use ampom_sim::propcheck::forall;
use ampom_sim::time::SimDuration;
use ampom_workloads::sizes::{Kernel, ProblemSize};
use ampom_workloads::synthetic::{SequentialWrite, UniformRandom};

// ---------------------------------------------------------------------
// 1. Dirty-page conservation under chaos.
// ---------------------------------------------------------------------

/// The chaos scenarios the acceptance criteria name, plus the null
/// profile (a reliable link) as the control.
const STORMS: [Option<&str>; 3] = [
    None,
    Some("flaky-link-storm"),
    Some("deputy-restart-midstorm"),
];

fn lifecycle_cfg(storm: Option<&str>) -> RunConfig {
    let cfg = RunConfig::new(Scheme::Ampom).with_writeback(WritebackSpec::default());
    match storm {
        None => cfg,
        Some(name) => {
            let sc = chaos::scenario(name).expect("scenario exists");
            let profile = sc.profile().expect("storm scenarios carry a profile");
            cfg.with_faults(profile.clone())
        }
    }
}

#[test]
fn conservation_holds_for_sweeps_under_every_storm() {
    forall("lifecycle-conservation-sweep", 24, |g| {
        let storm = *g.choose(&STORMS);
        let pages = g.u64(64..1024);
        let frac = 0.2 + 0.6 * g.unit_f64();
        let mut w = SequentialWrite::new(pages, SimDuration::from_micros(15));
        let report = run_lifecycle(&mut w, &lifecycle_cfg(storm), frac).expect("valid lifecycle");
        report.check_conservation();
        assert!(
            report.pages_dirtied > 0,
            "a stores-only sweep must dirty pages ({storm:?})"
        );
    });
}

#[test]
fn conservation_holds_for_random_writers_under_every_storm() {
    forall("lifecycle-conservation-random", 24, |g| {
        let storm = *g.choose(&STORMS);
        let pages = g.u64(64..512);
        let touches = g.u64(200..2000);
        let frac = 0.2 + 0.6 * g.unit_f64();
        let rng = g.rng().fork(0x11fe);
        let mut w = UniformRandom::new(pages, touches, SimDuration::from_micros(15), rng);
        let report = run_lifecycle(&mut w, &lifecycle_cfg(storm), frac).expect("valid lifecycle");
        report.check_conservation();
    });
}

#[test]
fn deputy_restarts_are_survived_not_avoided() {
    // The restart scenario must actually exercise the replay path at
    // least once across the seeds, or the suite is vacuous.
    let mut restarts = 0;
    for seed in 0..8u64 {
        let pages = 256 + seed * 64;
        let mut w = SequentialWrite::new(pages, SimDuration::from_micros(15));
        let report = run_lifecycle(&mut w, &lifecycle_cfg(Some("deputy-restart-midstorm")), 0.7)
            .expect("valid lifecycle");
        report.check_conservation();
        restarts += report.sink_restarts;
    }
    assert!(restarts > 0, "the storm never restarted the deputy sink");
}

// ---------------------------------------------------------------------
// 2. Forward-only identity: writeback off ⇒ bit-identical to goldens.
// ---------------------------------------------------------------------

/// The pre-lifecycle fingerprints from the multi-migrant golden harness
/// (`multi_identity.rs`), duplicated here on purpose: if an intentional
/// re-capture ever touches one table but not the other, this suite
/// flags the drift.
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

const SEED: u64 = 42;
const QUICK: ProblemSize = ProblemSize {
    problem: 0,
    memory_mb: 4,
};

#[test]
fn forward_only_runs_match_the_pre_lifecycle_goldens() {
    for (kernel, scheme, golden) in GOLDENS {
        let cfg = RunConfig::new(scheme);
        assert!(
            cfg.writeback.is_none(),
            "writeback must stay opt-in: the default config carries none"
        );
        let mut w = WorkloadSpec::kernel(kernel, QUICK)
            .build(SEED)
            .expect("valid kernel spec");
        let mut t = SimulatedTransport::new(&cfg);
        let fp = run_with_transport(w.as_mut(), &cfg, &mut t)
            .expect("transport-compatible config")
            .fingerprint();
        assert_eq!(
            fp, golden,
            "forward-only {kernel:?}/{scheme:?} drifted from its golden \
             fingerprint — the lifecycle subsystem leaked into forward runs"
        );
    }
}

// ---------------------------------------------------------------------
// 3. The config contract: every field moves the report or is refused.
// ---------------------------------------------------------------------

/// What setting one field must do to the lifecycle.
enum Expect {
    /// Move this projection of the report.
    Moves(fn(&LifecycleReport) -> u64),
    /// Be refused at entry.
    Refused,
}

fn lifecycle_of(cfg: &RunConfig) -> Result<LifecycleReport, AmpomError> {
    let mut w = SequentialWrite::new(1024, SimDuration::from_micros(15));
    run_lifecycle(&mut w, cfg, 0.6)
}

#[test]
fn every_run_config_field_moves_the_lifecycle_or_is_refused() {
    let base = RunConfig::new(Scheme::Ampom);
    // Names every field, so a new one fails to compile here until it
    // has a row.
    let RunConfig {
        scheme: _,
        link: _,
        ampom: _,
        policy: _,
        trace: _,
        cross_traffic: _,
        syscalls: _,
        sample_series_every: _,
        resident_limit_mb: _,
        seed: _,
        faults: _,
        writeback: _,
    } = &base;
    let lossy = base.clone().with_faults(FaultProfile::lossy(0.05));
    // (field, the run it is compared against, the run with the field set,
    // what must happen).
    let rows: Vec<(&str, &RunConfig, RunConfig, Expect)> = vec![
        (
            "scheme",
            &base,
            RunConfig::new(Scheme::NoPrefetch),
            Expect::Moves(|r| r.fault_requests()),
        ),
        (
            "scheme",
            &base,
            RunConfig::new(Scheme::Ffa),
            Expect::Refused,
        ),
        (
            "link",
            &base,
            base.clone().with_link(broadband()),
            Expect::Moves(|r| r.total_time.as_nanos()),
        ),
        (
            "ampom",
            &base,
            base.clone().with_ampom(AmpomConfig {
                baseline_readahead: 0,
                ..AmpomConfig::default()
            }),
            Expect::Moves(|r| r.away.pages_prefetched + r.home.pages_prefetched),
        ),
        (
            "policy",
            &base,
            base.clone().with_policy(PolicySpec::all()[1].clone()),
            Expect::Moves(|r| r.away.pages_prefetched + r.home.pages_prefetched),
        ),
        (
            "trace",
            &base,
            base.clone().with_trace(),
            Expect::Moves(|r| {
                (r.away.trace.events().len() + r.trace.events().len() + r.home.trace.events().len())
                    as u64
            }),
        ),
        (
            "cross_traffic",
            &base,
            base.clone().with_cross_traffic(CrossTrafficSpec {
                bytes_per_sec: 6_000_000,
                burst_bytes: 1500,
            }),
            Expect::Moves(|r| r.total_time.as_nanos()),
        ),
        (
            "syscalls",
            &base,
            base.clone().with_syscalls(SyscallProfile {
                every_refs: 32,
                work: SimDuration::ZERO,
            }),
            Expect::Moves(|r| r.away.syscalls_forwarded + r.home.syscalls_forwarded),
        ),
        (
            "sample_series_every",
            &base,
            base.clone().with_sample_series(4),
            Expect::Moves(|r| u64::from(r.away.series.is_some() && r.home.series.is_some())),
        ),
        (
            "resident_limit_mb",
            &base,
            base.clone().with_resident_limit_mb(1),
            Expect::Moves(|r| r.away.pages_evicted),
        ),
        (
            "seed",
            &lossy,
            lossy.clone().with_seed(7),
            Expect::Moves(|r| r.away.fingerprint() ^ r.home.fingerprint()),
        ),
        (
            "faults",
            &base,
            lossy.clone(),
            Expect::Moves(|r| r.away.faults.messages_dropped + r.home.faults.messages_dropped),
        ),
        (
            "faults",
            &base,
            base.clone()
                .with_faults(FaultProfile::lossy(0.05).with_policy(FailurePolicy::Remigrate)),
            Expect::Refused,
        ),
        (
            "writeback",
            &base,
            base.clone().with_writeback(WritebackSpec::default()),
            Expect::Moves(|r| r.away.writeback.batches_sent),
        ),
    ];
    let mut failed = Vec::new();
    let mut fields: Vec<&str> = rows.iter().map(|r| r.0).collect();
    fields.dedup();
    assert_eq!(fields.len(), 12, "one row or more per field: {fields:?}");
    for (field, against, set, expect) in &rows {
        let got = lifecycle_of(set);
        let ok = match expect {
            Expect::Refused => matches!(got, Err(AmpomError::InvalidConfig(_))),
            Expect::Moves(project) => {
                let before = lifecycle_of(against).expect("the base lifecycle runs");
                got.is_ok_and(|r| project(&r) != project(&before))
            }
        };
        if !ok {
            failed.push(*field);
        }
    }
    assert!(
        failed.is_empty(),
        "fields neither honoured nor refused: {failed:?}"
    );
}
