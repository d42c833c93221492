//! Integration tests of the extension subsystems through the public
//! facade: VM migration, cluster balancing, round trips, memory pressure
//! and syscall forwarding — composed end to end.

use ampom::cluster::{run_cluster_life, LifeConfig};
use ampom::core::prefetcher::AmpomConfig;
use ampom::core::runner::{run_workload, RunConfig, SyscallProfile};
use ampom::core::vm::{run_vm, VmAnalysis, VmWorkload};
use ampom::core::{run_lifecycle, LifecycleConfig, Scheme};
use ampom::sim::time::SimDuration;
use ampom::workloads::hpl::Hpl;
use ampom::workloads::ptrans::Ptrans;
use ampom::workloads::synthetic::{Sequential, Strided};
use ampom::workloads::Workload;

const CPU: SimDuration = SimDuration::from_micros(15);

#[test]
fn vm_per_process_windows_survive_many_guests() {
    let build = |k: usize| {
        let procs: Vec<Box<dyn Workload>> = (0..k)
            .map(|_| Box::new(Sequential::new(300, CPU)) as Box<dyn Workload>)
            .collect();
        VmWorkload::new(procs, 1)
    };
    let mut cfg = RunConfig::new(Scheme::Ampom);
    cfg.ampom = AmpomConfig {
        baseline_readahead: 0,
        ..AmpomConfig::default()
    };
    // The shared window's score must collapse once the guest count
    // exceeds dmax, while per-process scores stay high at every count.
    for k in [2usize, 6] {
        let shared = run_vm(build(k), &cfg, VmAnalysis::SharedWindow);
        let per_proc = run_vm(build(k), &cfg, VmAnalysis::PerProcess);
        assert!(per_proc.mean_score > 0.9, "k={k}: {}", per_proc.mean_score);
        if k > 4 {
            assert!(shared.mean_score < 0.1, "k={k}: {}", shared.mean_score);
            assert!(per_proc.report.total_time < shared.report.total_time);
        }
    }
}

#[test]
fn cluster_ampom_beats_eager_on_tail_latency() {
    let run = |scheme| run_cluster_life(&LifeConfig::batch(8, 40, scheme));
    let ampom = run(Scheme::Ampom);
    let eager = run(Scheme::OpenMosix);
    assert!(ampom.slowdown.mean() <= eager.slowdown.mean());
    assert!(ampom.slowdown.max().unwrap() <= eager.slowdown.max().unwrap());
    assert!(ampom.freeze_paid.as_secs_f64() * 10.0 < eager.freeze_paid.as_secs_f64());
}

#[test]
fn round_trip_is_cheap_when_the_stay_is_short() {
    let round_trip = |scheme| {
        let mut w = Sequential::new(1024, CPU);
        let lifecycle = LifecycleConfig::new(0.25).without_writeback();
        run_lifecycle(&mut w, &RunConfig::new(scheme), &lifecycle)
    };
    let (ampom, eager) = (round_trip(Scheme::Ampom), round_trip(Scheme::OpenMosix));
    assert!(ampom.total_time.as_secs_f64() * 2.0 < eager.total_time.as_secs_f64());
    assert!(ampom.pages_returned < eager.pages_returned / 2);
}

#[test]
fn pressure_degrades_gracefully_under_ampom() {
    let mk = || Sequential::new(1024, CPU);
    let free = run_workload(&mut mk(), &RunConfig::new(Scheme::Ampom));
    let mut cfg = RunConfig::new(Scheme::Ampom);
    cfg.resident_limit_mb = Some(2);
    let tight = run_workload(&mut mk(), &cfg);
    // A single sweep with no reuse: pressure costs write-backs but the
    // run must not blow up (no re-fetch thrash on a non-reusing stream).
    assert!(tight.pages_evicted > 0);
    assert!(
        tight.total_time.as_secs_f64() < free.total_time.as_secs_f64() * 1.5,
        "graceful: {} vs {}",
        tight.total_time,
        free.total_time
    );
}

#[test]
fn syscalls_and_prefetching_compose() {
    let mut w = Sequential::new(512, CPU);
    let mut cfg = RunConfig::new(Scheme::Ampom);
    cfg.syscalls = Some(SyscallProfile {
        every_refs: 64,
        work: SimDuration::from_micros(10),
    });
    let r = run_workload(&mut w, &cfg);
    assert_eq!(r.syscalls_forwarded, 8);
    assert!(r.pages_prefetched > 400, "prefetching keeps working");
}

#[test]
fn extension_workloads_complete_under_all_schemes() {
    for scheme in [Scheme::OpenMosix, Scheme::NoPrefetch, Scheme::Ampom] {
        let mut p = Ptrans::new(4 * 1024 * 1024);
        let rp = run_workload(&mut p, &RunConfig::new(scheme));
        assert!(rp.total_time.as_nanos() > 0, "{scheme:?} PTRANS");
        let mut h = Hpl::new(4 * 1024 * 1024);
        let rh = run_workload(&mut h, &RunConfig::new(scheme));
        assert!(rh.total_time.as_nanos() > 0, "{scheme:?} HPL");
        assert_eq!(rp.compute_time, {
            let mut p2 = Ptrans::new(4 * 1024 * 1024);
            run_workload(&mut p2, &RunConfig::new(scheme)).compute_time
        });
    }
}

#[test]
fn dmax_knife_edge_on_interleaved_streams() {
    // Three interleaved sequential lanes put each page's successor three
    // window slots later: invisible to dmax ∈ {1, 2}, detectable from
    // dmax = 3 on (pure Eq. 3, no read-ahead floor).
    use ampom::workloads::synthetic::Interleaved;
    let run = |dmax: usize| {
        let mut w = Interleaved::new(3, 400, CPU);
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.ampom = AmpomConfig {
            dmax,
            baseline_readahead: 0,
            ..AmpomConfig::default()
        };
        run_workload(&mut w, &cfg)
    };
    let blind = run(2);
    let sighted = run(4);
    assert_eq!(blind.pages_prefetched, 0, "stride 3 invisible at dmax 2");
    assert!(
        sighted.pages_prefetched > 500,
        "{}",
        sighted.pages_prefetched
    );
    assert!(sighted.fault_requests * 4 < blind.fault_requests);
    assert!(sighted.total_time < blind.total_time);
}

#[test]
fn value_strided_sweep_is_adversarial_at_any_dmax() {
    // The column-major walk: successor pages are a whole lane apart, so
    // the census never fires regardless of dmax — only the read-ahead
    // fallback (disabled here) could help.
    let run = |dmax: usize| {
        let mut w = Strided::new(1200, 3, CPU);
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.ampom = AmpomConfig {
            dmax,
            baseline_readahead: 0,
            ..AmpomConfig::default()
        };
        run_workload(&mut w, &cfg)
    };
    for dmax in [2usize, 4, 8] {
        let r = run(dmax);
        assert_eq!(r.pages_prefetched, 0, "dmax {dmax}");
    }
}

#[test]
fn composed_workloads_run_end_to_end() {
    use ampom::workloads::compose::{Concat, Repeat, Scaled};
    // An app lifecycle: a warm-up sweep replayed twice, then a slower
    // random phase — migrated under AMPoM.
    use ampom::sim::rng::SimRng;
    use ampom::workloads::synthetic::UniformRandom;
    let mut w = Concat::new(vec![
        Box::new(Repeat::new(Box::new(Sequential::new(128, CPU)), 2)),
        Box::new(Scaled::new(
            Box::new(UniformRandom::new(64, 200, CPU, SimRng::seed_from_u64(4))),
            2.0,
        )),
    ]);
    let r = run_workload(&mut w, &RunConfig::new(Scheme::Ampom));
    assert!(r.total_time.as_nanos() > 0);
    assert!(r.pages_prefetched > 0);
    // The sequential phase's second pass is all hits: faults bounded by
    // the distinct footprint.
    assert!(r.faults_total <= 128 + 64 + 8);
}

#[test]
fn ptrans_prefetching_lands_between_stream_and_nothing() {
    let mut p = Ptrans::new(8 * 1024 * 1024);
    let ampom = run_workload(&mut p, &RunConfig::new(Scheme::Ampom));
    let mut p = Ptrans::new(8 * 1024 * 1024);
    let nopf = run_workload(&mut p, &RunConfig::new(Scheme::NoPrefetch));
    let prevented = ampom.fault_prevention_vs(&nopf);
    assert!(prevented > 0.5, "prevented {prevented}");
    // But the strided write lane keeps it short of a pure sequential
    // kernel's ~99.9%.
    assert!(prevented < 0.999);
}
