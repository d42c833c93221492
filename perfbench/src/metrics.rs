//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names and units, in the same order,
//! with each metric's direction; the self-tests check that the two
//! agree. Every workload prints every end-to-end metric in an untraced
//! run and every per-layer metric in a traced run. A per-layer metric of
//! a layer the workload bypasses reads 0: that layer did no work.

use std::collections::BTreeMap;

use ampom_obs::json::JsonWriter;

/// A metric's name and unit; `BENCHMARK.json` adds its direction.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics, measured with tracing off. Each workload gives
/// the generic names its own meaning (see `perfbench/README.md`):
/// `throughput_per_s` is simulated faults per CPU second (sim), pages per
/// wall second (live) or simulated ticks per CPU second (cluster-life);
/// `op_p50_us` is the demand-fault p50 (live); on the simulated workloads
/// it is the host CPU cost of one simulated operation (median over cells
/// of µs per fault, µs per tick), close to or exactly the reciprocal of
/// `throughput_per_s`;
/// `slowdown` is the migrant slowdown, the live p99/p50 fault-latency
/// ratio, or the p99 job slowdown.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MB"),
    spec("throughput_per_s", "1/s"),
    spec("op_p50_us", "us"),
    spec("slowdown", "ratio"),
];

/// Per-layer metrics, measured in the traced run.
pub const PER_LAYER: &[Spec] = &[
    // Simulator: host cost per layer (should move faults_per_s).
    spec("workloads.gen_ns_per_ref", "ns"),
    spec("mem.touch_ns_per_ref", "ns"),
    spec("core.on_fault_ns", "ns"),
    spec("core.runner_ns_per_fault", "ns"),
    spec("core.zone_budget_mean", "pages"),
    spec("workloads.refs", "count"),
    // Simulator: model counts (should move migrant_slowdown).
    spec("core.faults", "count"),
    spec("core.fault_requests", "count"),
    spec("core.requests_per_fault", "ratio"),
    spec("core.pages_prefetched", "count"),
    spec("core.prefetch_accuracy", "ratio"),
    spec("core.fallback_share", "ratio"),
    spec("core.deputy_busy_s", "s"),
    spec("core.phase.freeze_s", "s"),
    spec("core.phase.compute_s", "s"),
    spec("core.phase.minor_fault_s", "s"),
    spec("core.phase.analysis_s", "s"),
    spec("core.phase.install_s", "s"),
    spec("core.phase.fault_stall_s", "s"),
    spec("core.phase.recovery_s", "s"),
    spec("core.phase.syscall_s", "s"),
    spec("core.phase.prefetch_overlap_s", "s"),
    spec("net.bytes_to_dest", "B"),
    spec("net.bytes_from_dest", "B"),
    spec("net.mpt_bytes", "B"),
    spec("mem.pages_evicted", "count"),
    spec("mem.writeback_pages", "count"),
    spec("mem.writeback_batches", "count"),
    spec("obs.trace_on_overhead", "ratio"),
    // Live deputy: transport floor and per-page codec costs (should
    // move fault_p50_us).
    spec("rpc.ping_p50_us", "us"),
    spec("rpc.encode_ns_per_page", "ns"),
    spec("rpc.decode_ns_per_page", "ns"),
    spec("rpc.payload_ns_per_page", "ns"),
    spec("rpc.connect_us", "us"),
    // Live deputy: CPU and wire per page (should move pages_per_s).
    spec("rpc.server_cpu_us_per_page", "us"),
    spec("rpc.client_cpu_us_per_page", "us"),
    spec("rpc.client_wait_share", "ratio"),
    spec("rpc.pages_per_reply_frame", "pages"),
    spec("rpc.vectored_writes_per_request", "ratio"),
    spec("rpc.wire_bytes_per_page", "B"),
    // Live deputy: contention (should move fault_p99_us and
    // writeback_p50_us).
    spec("rpc.write_stalls", "count"),
    spec("mem.writeback_pages_applied", "count"),
    spec("mem.writeback_duplicates", "count"),
    spec("rpc.fault_p99_us", "us"),
    spec("rpc.writeback_p50_us", "us"),
    // Live deputy: sample bases.
    spec("rpc.requests", "count"),
    spec("rpc.writeback_batches", "count"),
    spec("rpc.pages_served", "count"),
    // Cluster-life: per-node and per-migration costs (should move
    // ticks_per_s).
    spec("cluster.plan_gossip_ns", "ns"),
    spec("cluster.least_loaded_peer_ns", "ns"),
    spec("cluster.pick_migrant_ns", "ns"),
    spec("sim.rng_fork_ns", "ns"),
    spec("cluster.window_merge_ns", "ns"),
    spec("net.link_transmit_ns", "ns"),
    spec("core.lifecycle_cost_ns", "ns"),
    // Cluster-life: outcome counts (should move jobs_per_hour and
    // job_p99_slowdown).
    spec("cluster.arrived", "count"),
    spec("cluster.completed", "count"),
    spec("cluster.failed", "count"),
    spec("cluster.migrations", "count"),
    spec("cluster.remigrations", "count"),
    spec("cluster.returns_home", "count"),
    spec("cluster.gossip_messages", "count"),
    spec("cluster.merges_per_message", "ratio"),
    spec("cluster.storm_ticks", "count"),
    spec("cluster.bytes_moved", "B"),
    spec("cluster.freeze_paid_s", "s"),
    spec("cluster.mean_load_stddev", "jobs"),
    spec("cluster.jobs_per_hour", "1/h"),
    // The benchmark's own tracing.
    spec("bench.spans", "count"),
    spec("bench.tracing_overhead", "ratio"),
];

/// One named, workload-specific end-to-end number, printed as a report
/// line (not part of the result object).
#[derive(Debug, Clone)]
pub struct Named {
    /// Metric name as the workload defines it (e.g. `fault_p99_us`).
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: &'static str,
    /// Basis of the value (sample count, pass count).
    pub basis: String,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sim cells, live requests plus writeback
    /// batches, cluster runs).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Checks that failed, for the report.
    pub failures: Vec<String>,
    /// Metric values by catalogue name.
    pub values: BTreeMap<&'static str, f64>,
    /// Workload-specific end-to-end numbers under their own names.
    pub named: Vec<Named>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }

    /// Adds a workload-specific end-to-end number.
    pub fn name(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: &'static str,
        basis: String,
    ) {
        self.named.push(Named {
            name,
            value,
            unit,
            better,
            basis,
        });
    }

    /// The result object: every metric of `catalogue`, a per-layer metric
    /// the workload never set reading 0.
    pub fn result_line(&self, catalogue: &[Spec], traced: bool) -> String {
        let mut metrics = JsonWriter::object();
        for s in catalogue {
            let value = match self.values.get(s.name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", s.name),
            };
            let mut m = JsonWriter::object();
            m.field_f64("value", value);
            m.field_str("unit", s.unit);
            metrics.field_raw(s.name, &m.close());
        }
        let mut out = JsonWriter::object();
        out.field_bool("correct", self.failed == 0);
        out.field_u64("attempted", self.attempted);
        out.field_u64("failed", self.failed);
        out.field_raw("metrics", &metrics.close());
        out.close()
    }
}
