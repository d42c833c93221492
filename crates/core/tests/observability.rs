//! The observability layer's two load-bearing guarantees (DESIGN.md §11):
//!
//! 1. **Zero perturbation** — enabling tracing/series sampling and
//!    exporting metrics must never change what a run *measures*. The
//!    fingerprint (an exact mix over every counter and nanosecond total)
//!    must be bit-identical with observability on or off, for every
//!    scheme and under fault injection. Golden values pin today's
//!    fingerprints so the guarantee holds against pre-observability
//!    `main`, not merely self-consistently.
//!
//! 2. **Exact phase attribution** — the per-phase breakdown is a
//!    *partition* of the run: the eight disjoint phases sum to the total
//!    simulated time exactly (the CLI's 1% tolerance is pure slack for
//!    wall-clock rounding on the live transport), recovery is carved out
//!    of stall time, and the prefetch-overlap diagnostic can never
//!    exceed compute.

use ampom_core::lifecycle::WritebackSpec;
use ampom_core::reliability::FaultProfile;
use ampom_core::runner::{run_workload, RunConfig, SyscallProfile};
use ampom_core::transport::{run_with_transport, SimulatedTransport};
use ampom_core::{RunReport, Scheme};
use ampom_sim::rng::SimRng;
use ampom_sim::time::SimDuration;
use ampom_workloads::memref::Workload;
use ampom_workloads::synthetic::{Scripted, Sequential, SequentialWrite, UniformRandom};

const CPU: SimDuration = SimDuration::from_micros(10);

/// A deferred workload constructor, so each sweep entry can be run
/// several times (base, traced, sampled) on fresh reference streams.
type MakeWorkload = Box<dyn Fn() -> Box<dyn Workload>>;

/// Golden fingerprints captured on `main` immediately before the
/// observability layer landed (release build). Any drift here means
/// instrumentation changed what a run measures.
const GOLD_SEQ512_OM: u64 = 0x9a276cbafa3a36d5;
const GOLD_SEQ512_NOPF: u64 = 0xc5f6a86a554a782a;
const GOLD_SEQ512_AMPOM: u64 = 0xef7c94edaf2703bf;
const GOLD_SEQ512_FFA: u64 = 0xeff6bb89b4c3d41e;
const GOLD_RAND_AMPOM: u64 = 0x0b7f6cffc5d27ea5;
const GOLD_PRESSURE: u64 = 0xb1835e304ae556ae;
const GOLD_FAULTY: u64 = 0x6b34c7e509aed884;

fn seq512() -> Sequential {
    Sequential::new(512, CPU)
}

fn rand512() -> UniformRandom {
    UniformRandom::new(512, 4096, CPU, SimRng::seed_from_u64(7))
}

fn pressure_workload() -> Scripted {
    let refs: Vec<u64> = (0..256).chain(0..256).collect();
    Scripted::new(256, &refs, CPU)
}

fn pressure_cfg() -> RunConfig {
    RunConfig::new(Scheme::Ampom).with_resident_limit_mb(1)
}

fn faulty_cfg() -> RunConfig {
    RunConfig::new(Scheme::Ampom)
        .with_faults(FaultProfile::lossy(0.05))
        .with_seed(1337)
}

/// Every configuration the invariance sweep covers: all schemes, a
/// random-access pattern, memory pressure, forwarded syscalls, a lossy
/// fault profile, and background writeback with and without a RAM cap.
fn sweep() -> Vec<(&'static str, MakeWorkload, RunConfig)> {
    let mk_seq = || -> Box<dyn Workload> { Box::new(seq512()) };
    vec![
        (
            "openmosix",
            Box::new(mk_seq) as MakeWorkload,
            RunConfig::new(Scheme::OpenMosix),
        ),
        (
            "noprefetch",
            Box::new(mk_seq),
            RunConfig::new(Scheme::NoPrefetch),
        ),
        ("ampom", Box::new(mk_seq), RunConfig::new(Scheme::Ampom)),
        ("ffa", Box::new(mk_seq), RunConfig::new(Scheme::Ffa)),
        (
            "ampom_rand",
            Box::new(|| -> Box<dyn Workload> { Box::new(rand512()) }),
            RunConfig::new(Scheme::Ampom),
        ),
        (
            "pressure",
            Box::new(|| -> Box<dyn Workload> { Box::new(pressure_workload()) }),
            pressure_cfg(),
        ),
        (
            "syscalls",
            Box::new(mk_seq),
            RunConfig::new(Scheme::Ampom).with_syscalls(SyscallProfile {
                every_refs: 32,
                work: SimDuration::from_micros(100),
            }),
        ),
        ("faulty", Box::new(mk_seq), faulty_cfg()),
        (
            "writeback",
            Box::new(|| -> Box<dyn Workload> { Box::new(SequentialWrite::new(512, CPU)) }),
            RunConfig::new(Scheme::Ampom).with_writeback(WritebackSpec::default()),
        ),
        (
            "writeback_pressure",
            Box::new(|| -> Box<dyn Workload> { Box::new(rand512()) }),
            RunConfig::new(Scheme::Ampom)
                .with_writeback(WritebackSpec::default())
                .with_resident_limit_mb(1),
        ),
    ]
}

fn run(mk: &dyn Fn() -> Box<dyn Workload>, cfg: &RunConfig) -> RunReport {
    let mut w = mk();
    run_workload(&mut *w, cfg)
}

#[test]
fn fingerprints_match_pre_observability_main() {
    assert_eq!(
        run_workload(&mut seq512(), &RunConfig::new(Scheme::OpenMosix)).fingerprint(),
        GOLD_SEQ512_OM
    );
    assert_eq!(
        run_workload(&mut seq512(), &RunConfig::new(Scheme::NoPrefetch)).fingerprint(),
        GOLD_SEQ512_NOPF
    );
    assert_eq!(
        run_workload(&mut seq512(), &RunConfig::new(Scheme::Ampom)).fingerprint(),
        GOLD_SEQ512_AMPOM
    );
    assert_eq!(
        run_workload(&mut seq512(), &RunConfig::new(Scheme::Ffa)).fingerprint(),
        GOLD_SEQ512_FFA
    );
    assert_eq!(
        run_workload(&mut rand512(), &RunConfig::new(Scheme::Ampom)).fingerprint(),
        GOLD_RAND_AMPOM
    );
    assert_eq!(
        run_workload(&mut pressure_workload(), &pressure_cfg()).fingerprint(),
        GOLD_PRESSURE
    );
    assert_eq!(
        run_workload(&mut seq512(), &faulty_cfg()).fingerprint(),
        GOLD_FAULTY
    );
}

/// The satellite property: enabling tracing (and series sampling, and a
/// post-run metrics export) never changes a fingerprint, across every
/// scheme and a faulty profile.
#[test]
fn observability_never_changes_fingerprints() {
    for (name, mk, cfg) in sweep() {
        let base = run(&*mk, &cfg).fingerprint();

        let traced_cfg = cfg.clone().with_trace();
        let traced = run(&*mk, &traced_cfg);
        assert!(
            !traced.trace.events().is_empty(),
            "{name}: tracing was enabled but recorded nothing"
        );
        assert_eq!(
            traced.fingerprint(),
            base,
            "{name}: enabling the trace changed the measurement"
        );

        let sampled_cfg = cfg.clone().with_trace().with_sample_series(4);
        let sampled = run(&*mk, &sampled_cfg);
        assert_eq!(
            sampled.fingerprint(),
            base,
            "{name}: series sampling changed the measurement"
        );

        // Exporting metrics is pull-based and post-run; it cannot feed
        // back, but pin that reading every gauge leaves the report's
        // fingerprint untouched.
        let mut reg = ampom_obs::MetricsRegistry::new();
        ampom_obs::MetricSource::export_metrics(&sampled, &mut reg);
        assert!(!reg.is_empty());
        assert_eq!(
            sampled.fingerprint(),
            base,
            "{name}: metrics export fed back"
        );
    }
}

/// The eight phases are a partition: they sum to the total *exactly* for
/// every simulated configuration, recovery never exceeds stall, and the
/// overlap diagnostic never exceeds compute.
#[test]
fn phase_breakdown_partitions_the_run_exactly() {
    for (name, mk, cfg) in sweep() {
        let r = run(&*mk, &cfg);
        assert_eq!(
            r.phases.total(),
            r.total_time,
            "{name}: phases do not partition the run"
        );
        assert_eq!(r.phases.freeze, r.freeze_time, "{name}: freeze mismatch");
        assert_eq!(r.phases.compute, r.compute_time, "{name}: compute mismatch");
        assert_eq!(r.phases.syscall, r.syscall_time, "{name}: syscall mismatch");
        assert_eq!(
            r.phases.fault_stall + r.phases.recovery,
            r.stall_time,
            "{name}: recovery is not carved out of stall"
        );
        assert!(
            r.phases.prefetch_overlap <= r.phases.compute,
            "{name}: overlap exceeds compute"
        );
    }
}

/// Both guarantees hold through the one loop for every configuration —
/// FFA, fault injection and the RAM cap included: `run_workload` and
/// `run_with_transport` over a [`SimulatedTransport`] agree on the
/// fingerprint and the phase attribution.
#[test]
fn transport_loop_reports_identical_phases() {
    for (name, mk, cfg) in sweep() {
        let direct = run(&*mk, &cfg);
        let mut w = mk();
        let mut t = SimulatedTransport::new(&cfg);
        let via_transport = run_with_transport(&mut *w, &cfg, &mut t).expect("valid config");
        assert_eq!(
            via_transport.fingerprint(),
            direct.fingerprint(),
            "{name}: transport fingerprint diverged"
        );
        assert_eq!(
            via_transport.phases, direct.phases,
            "{name}: transport phase attribution diverged"
        );
        assert_eq!(via_transport.phases.total(), via_transport.total_time);
    }
}
