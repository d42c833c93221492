//! Golden fingerprints of the one migrant loop.
//!
//! Every forward run — `run_workload`, `run_vm`, each migrant of a
//! multi-run, a live run — goes through `run_with_transport`. The
//! goldens below were captured from the runner before it was unified
//! into that loop (release build) and must hold through it unchanged:
//!
//! 1. the protocol paths (AMPoM, NoPrefetch, openMosix with forwarded
//!    syscalls, cross traffic) and the fault-recovery paths (a lossy
//!    link, a deputy outage under eager fallback and stall-reconnect);
//! 2. the features those leave unpinned (writeback, the RAM cap, fault
//!    recovery under the RAM cap), each with its phase split;
//! 3. `run_vm` per analysis mode.
//!
//! The fingerprint mixes every exact field of the report (times in
//! nanoseconds, all counters, fault and deputy stats), so equality here
//! is equality of the whole measurement record.

use ampom_core::experiment::Experiment;
use ampom_core::lifecycle::WritebackSpec;
use ampom_core::prefetcher::AmpomConfig;
use ampom_core::reliability::{FailurePolicy, FaultProfile, RetryPolicy};
use ampom_core::runner::{run_workload, CrossTrafficSpec, RunConfig, SyscallProfile};
use ampom_core::transport::{run_with_transport, SimulatedTransport};
use ampom_core::vm::{run_vm, VmAnalysis, VmWorkload};
use ampom_core::{RunReport, Scheme};
use ampom_net::fault::FaultSpec;
use ampom_sim::event::DowntimeSchedule;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_workloads::memref::Workload;
use ampom_workloads::synthetic::{Scripted, Sequential, SequentialWrite, UniformRandom};

const CPU: SimDuration = SimDuration::from_micros(10);

/// Golden fingerprints of the pre-transport runner (release build).
const AMPOM_SEQ512: u64 = 0xef7c94edaf2703bf;
const NOPF_SEQ512: u64 = 0xc5f6a86a554a782a;
const OM_SEQ256_SYSCALL: u64 = 0x9508299f16242982;
const AMPOM_RAND_CROSS: u64 = 0xeb16e00af8ed2b39;
const AMPOM_LOSSY2: u64 = 0x16ff32a3b7c12846;
const AMPOM_OUTAGE_FALLBACK: u64 = 0x071ebfb4e2e4c0e0;
const AMPOM_OUTAGE_STALL: u64 = 0xe7ebca8a831f66f6;

fn seq(pages: u64) -> Sequential {
    Sequential::new(pages, CPU)
}

fn rand_workload() -> UniformRandom {
    UniformRandom::new(512, 2048, CPU, SimRng::seed_from_u64(7))
}

fn syscall_cfg() -> RunConfig {
    RunConfig::new(Scheme::OpenMosix).with_syscalls(SyscallProfile {
        every_refs: 32,
        work: SimDuration::from_micros(100),
    })
}

fn cross_cfg() -> RunConfig {
    RunConfig::new(Scheme::Ampom).with_cross_traffic(CrossTrafficSpec {
        bytes_per_sec: 8_000_000,
        burst_bytes: 64 * 1024,
    })
}

/// One run through the loop over a fresh [`SimulatedTransport`].
fn run_loop(w: &mut dyn Workload, cfg: &RunConfig) -> RunReport {
    run_with_transport(w, cfg, &mut SimulatedTransport::new(cfg)).expect("valid config")
}

fn fp<W: Workload>(mut w: W, cfg: &RunConfig) -> u64 {
    run_loop(&mut w, cfg).fingerprint()
}

#[test]
fn protocol_paths_match_golden_fingerprints() {
    assert_eq!(fp(seq(512), &RunConfig::new(Scheme::Ampom)), AMPOM_SEQ512);
    assert_eq!(
        fp(seq(512), &RunConfig::new(Scheme::NoPrefetch)),
        NOPF_SEQ512
    );
    assert_eq!(fp(seq(256), &syscall_cfg()), OM_SEQ256_SYSCALL);
    assert_eq!(fp(rand_workload(), &cross_cfg()), AMPOM_RAND_CROSS);
}

#[test]
fn fault_paths_match_golden_fingerprints() {
    let cfg = RunConfig::new(Scheme::Ampom).with_faults(FaultProfile::lossy(0.02));
    assert_eq!(fp(seq(512), &cfg), AMPOM_LOSSY2);

    let fallback = RunConfig::new(Scheme::Ampom)
        .with_faults(outage(FaultSpec::lossy(0.02), FailurePolicy::EagerFallback));
    assert_eq!(fp(seq(512), &fallback), AMPOM_OUTAGE_FALLBACK);

    let stall = RunConfig::new(Scheme::Ampom).with_faults(outage(
        FaultSpec::lossy(0.05),
        FailurePolicy::StallReconnect,
    ));
    assert_eq!(fp(seq(512), &stall), AMPOM_OUTAGE_STALL);
}

#[test]
fn run_workload_is_the_transport_loop() {
    for cfg in [
        RunConfig::new(Scheme::Ampom),
        RunConfig::new(Scheme::Ffa),
        RunConfig::new(Scheme::Ampom).with_faults(FaultProfile::lossy(0.02)),
    ] {
        let direct = run_workload(&mut seq(512), &cfg);
        let via_loop = run_loop(&mut seq(512), &cfg);
        assert_eq!(direct.fingerprint(), via_loop.fingerprint());
        assert_eq!(direct.phases, via_loop.phases);
    }
}

#[test]
fn tracing_and_sampling_keep_the_golden() {
    // Sampling and tracing exercise the rest of the transport surface
    // (reply_utilization, in_flight_count); neither may move a number.
    let cfg = RunConfig::new(Scheme::Ampom)
        .with_trace()
        .with_sample_series(50);
    assert_eq!(fp(seq(512), &cfg), AMPOM_SEQ512);
}

/// A golden forward run: the report's fingerprint and its phase split in
/// ns (freeze, compute, minor_fault, analysis, install, fault_stall,
/// recovery, syscall, prefetch_overlap). The phases pin the fault path's
/// stall/recovery/install attribution, which the fingerprint only sees
/// as sums.
type Golden = (u64, [u64; 9]);

fn golden_of(r: &RunReport) -> Golden {
    let p = &r.phases;
    (
        r.fingerprint(),
        [
            p.freeze,
            p.compute,
            p.minor_fault,
            p.analysis,
            p.install,
            p.fault_stall,
            p.recovery,
            p.syscall,
            p.prefetch_overlap,
        ]
        .map(|d| d.as_nanos()),
    )
}

/// A deputy outage with a tight retry budget, so the failure policy
/// fires inside the run.
fn outage(faults: FaultSpec, policy: FailurePolicy) -> FaultProfile {
    FaultProfile {
        faults,
        downtime: DowntimeSchedule::single(
            SimTime::from_nanos(60_000_000),
            SimTime::from_nanos(250_000_000),
        ),
        retry: RetryPolicy {
            timeout_factor: 1,
            max_retries: 2,
        },
        policy,
    }
}

/// Two passes over 512 pages: under a 1 MB cap the second pass
/// re-fetches what the first evicted.
fn two_passes() -> Scripted {
    let refs: Vec<u64> = (0..512).chain(0..512).collect();
    Scripted::new(512, &refs, CPU)
}

/// The forward-run features the tables above leave unpinned: background
/// writeback, writeback under a RAM cap, the fault injector's recovery
/// paths under a RAM cap, and writeback over a lossy link.
fn feature_rows() -> Vec<(&'static str, Box<dyn Workload>, RunConfig, Golden)> {
    let ampom = || RunConfig::new(Scheme::Ampom);
    let wb = WritebackSpec::default();
    vec![
        (
            "writeback",
            Box::new(SequentialWrite::new(512, CPU)),
            ampom().with_writeback(wb),
            (
                0x67eb85666d0f0574,
                [
                    71_794_742,
                    5_120_000,
                    0,
                    1_022_000,
                    511_000,
                    194_255_357,
                    0,
                    0,
                    5_120_000,
                ],
            ),
        ),
        (
            "writeback_1mb",
            Box::new(UniformRandom::new(512, 2048, CPU, SimRng::seed_from_u64(7))),
            ampom().with_writeback(wb).with_resident_limit_mb(1),
            (
                0x7e566e9152997b05,
                [
                    71_794_742,
                    20_480_000,
                    0,
                    2_134_000,
                    11_860_000,
                    6_886_530_326,
                    0,
                    0,
                    19_740_000,
                ],
            ),
        ),
        (
            "lossy_1mb_stall",
            Box::new(two_passes()),
            ampom()
                .with_faults(outage(
                    FaultSpec::lossy(0.05),
                    FailurePolicy::StallReconnect,
                ))
                .with_resident_limit_mb(1),
            (
                0x0b1943ac4a6f2fc0,
                [
                    71_794_742,
                    10_240_000,
                    0,
                    878_000,
                    1_737_000,
                    808_269_710,
                    398_584_040,
                    0,
                    7_920_000,
                ],
            ),
        ),
        (
            "lossy_1mb_fallback",
            Box::new(two_passes()),
            ampom()
                .with_faults(outage(FaultSpec::lossy(0.02), FailurePolicy::EagerFallback))
                .with_resident_limit_mb(1),
            (
                0xa4f52670a9412d90,
                [
                    71_794_742,
                    10_240_000,
                    0,
                    670_000,
                    0,
                    1_483_212_500,
                    105_976_217_940,
                    0,
                    0,
                ],
            ),
        ),
        (
            "lossy_writeback",
            Box::new(SequentialWrite::new(512, CPU)),
            ampom()
                .with_faults(FaultProfile::lossy(0.02))
                .with_writeback(wb),
            (
                0xd0c64a554ebb44d0,
                [
                    71_794_742,
                    5_120_000,
                    0,
                    508_000,
                    511_000,
                    198_694_357,
                    0,
                    0,
                    5_120_000,
                ],
            ),
        ),
    ]
}

#[test]
fn feature_paths_match_golden_fingerprints_and_phases() {
    for (name, mut w, cfg, golden) in feature_rows() {
        assert_eq!(
            golden_of(&run_loop(&mut *w, &cfg)),
            golden,
            "{name} drifted"
        );
    }
}

/// `run_vm` per analysis mode under the `ext-vm --quick` configuration:
/// fault requests, pages prefetched, total and stall ns, bytes to and
/// from the destination, analysis count, and the mean score's bits.
const VM_QUICK: [(usize, VmAnalysis, [u64; 8]); 6] = [
    (
        2,
        VmAnalysis::SharedWindow,
        [
            20,
            410,
            246655131,
            168435989,
            1905992,
            5360,
            212,
            4606487051687741021,
        ],
    ),
    (
        2,
        VmAnalysis::PerProcess,
        [
            42,
            369,
            240666763,
            162462621,
            1822468,
            7064,
            220,
            4607094393898209709,
        ],
    ),
    (
        2,
        VmAnalysis::NoPrefetch,
        [399, 0, 356636414, 278872272, 1769652, 28728, 0, 0],
    ),
    (
        6,
        VmAnalysis::SharedWindow,
        [1199, 0, 934045386, 838014672, 5291316, 86392, 1199, 0],
    ),
    (
        6,
        VmAnalysis::PerProcess,
        [
            145,
            1058,
            584797574,
            490532860,
            5308900,
            22232,
            314,
            4606937159075087358,
        ],
    ),
    (
        6,
        VmAnalysis::NoPrefetch,
        [1199, 0, 931647386, 838014672, 5291252, 86328, 0, 0],
    ),
];

#[test]
fn vm_runs_match_golden_values() {
    let cfg = Experiment::new(Scheme::Ampom)
        .ampom(AmpomConfig {
            baseline_readahead: 0,
            ..AmpomConfig::default()
        })
        .config()
        .clone();
    for (guests, mode, golden) in VM_QUICK {
        let procs: Vec<Box<dyn Workload>> = (0..guests)
            .map(|_| {
                Box::new(Sequential::new(200, SimDuration::from_micros(15))) as Box<dyn Workload>
            })
            .collect();
        let out = run_vm(VmWorkload::new(procs, 1), &cfg, mode);
        let r = &out.report;
        let got = [
            r.fault_requests,
            r.pages_prefetched,
            r.total_time.as_nanos(),
            r.stall_time.as_nanos(),
            r.bytes_to_dest,
            r.bytes_from_dest,
            r.analysis_count,
            out.mean_score.to_bits(),
        ];
        assert_eq!(got, golden, "{guests} guests, {}", mode.name());
    }
}
