//! Benchmarks of the extension subsystems: VM migration, round-trip
//! migration and memory pressure. The `algorithm` bench's `gossip` group
//! times the cluster engine.

use ampom_bench::Harness;
use ampom_core::experiment::Experiment;
use ampom_core::lifecycle::run_lifecycle;
use ampom_core::migration::Scheme;
use ampom_core::vm::{run_vm, VmAnalysis, VmWorkload};
use ampom_sim::time::SimDuration;
use ampom_workloads::synthetic::Sequential;
use ampom_workloads::Workload;

fn vm_bench(h: &mut Harness) {
    let mut g = h.group("ext_vm");
    g.sample_size(10);
    let cfg = Experiment::new(Scheme::Ampom).config().clone();
    for guests in [2usize, 6] {
        for mode in [VmAnalysis::SharedWindow, VmAnalysis::PerProcess] {
            let id = format!("{}guests/{}", guests, mode.name());
            g.bench(&id, || {
                let procs: Vec<Box<dyn Workload>> = (0..guests)
                    .map(|_| {
                        Box::new(Sequential::new(200, SimDuration::from_micros(15)))
                            as Box<dyn Workload>
                    })
                    .collect();
                let vm = VmWorkload::new(procs, 1);
                run_vm(vm, &cfg, mode).report.total_time
            });
        }
    }
    g.finish();
}

fn roundtrip_bench(h: &mut Harness) {
    let mut g = h.group("ext_roundtrip");
    g.sample_size(10);
    for scheme in [Scheme::OpenMosix, Scheme::Ampom] {
        // Writeback off: the analytic round trip.
        let cfg = Experiment::new(scheme).config().clone();
        g.bench(scheme.name(), || {
            let mut w = Sequential::new(1024, SimDuration::from_micros(15));
            run_lifecycle(&mut w, &cfg, 0.5)
                .expect("round-trip lifecycle is valid")
                .total_time
        });
    }
    g.finish();
}

fn pressure_bench(h: &mut Harness) {
    let mut g = h.group("ext_pressure");
    g.sample_size(10);
    for limit in [None, Some(1u64)] {
        let id = limit.map_or("unlimited".to_string(), |l| format!("{l}MB"));
        let mut exp = Experiment::new(Scheme::Ampom).sequential(1024, SimDuration::from_micros(15));
        if let Some(l) = limit {
            exp = exp.resident_limit_mb(l);
        }
        g.bench(&id, || {
            exp.run()
                .expect("pressure bench experiment is valid")
                .pages_evicted
        });
    }
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    vm_bench(&mut h);
    roundtrip_bench(&mut h);
    pressure_bench(&mut h);
    h.finish();
}
