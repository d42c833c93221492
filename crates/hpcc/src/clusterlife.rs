//! `hpcc-repro clusterlife` — the cluster-life engine as a reported fact.
//!
//! Drives [`ampom_cluster::run_cluster_life`] over a panel of cluster
//! sizes and migration schemes, re-running every cell at several thread
//! counts plus one repeat and refusing to report anything unless every
//! run produced the same fingerprint. The output is the
//! [`crate::facts`] format the other commands share: an append-only
//! JSONL fact stream, a Prometheus-style metrics dump, and a compact
//! `BENCH_cluster.json` perf fact gated by `--baseline` at 80 % of the
//! committed per-cell throughput. The table and the JSONL cells also give
//! the host's wall-clock µs per tick in the engine's compute and apply
//! phases, from the single-thread run; the BENCH fact leaves them out, so
//! it regenerates byte-identical.

use std::time::{Duration, Instant};

use ampom_cluster::{run_cluster_life, LifeConfig, LifeOutcome};
use ampom_core::migration::Scheme;
use ampom_core::AmpomError;
use ampom_obs::{JsonValue, JsonWriter, MetricsRegistry};
use ampom_sim::time::SimDuration;

use crate::facts::{self, env_seed, Facts};
use crate::report::AsciiTable;

/// The shape of the `clusterlife` facts: one `cluster-cell` line per
/// (nodes, scheme) cell under a `clusterlife-run` header, gated on each
/// cell's simulated throughput.
pub const FACTS: facts::Spec = facts::Spec {
    command: "clusterlife",
    header: "clusterlife-run",
    cell: "cluster-cell",
    others: &[],
    bench: "cluster",
    verify: verify_facts,
    gate: Some(facts::Gate {
        keys: &["nodes", "scheme"],
        metric: "throughput_jobs_per_hour",
    }),
};

/// Thread counts every cell must agree across. The determinism contract
/// of the engine is that the count is invisible; this is where we hold
/// it to that.
const THREAD_PANEL: [usize; 3] = [1, 2, 8];

/// Options for `hpcc-repro clusterlife`.
#[derive(Debug, Clone)]
pub struct ClusterLifeOptions {
    /// Smaller panel and shorter horizon for CI smoke runs.
    pub quick: bool,
    /// Base RNG seed (from `AMPOM_FAULT_SEED` when unset).
    pub seed: u64,
}

impl Default for ClusterLifeOptions {
    fn default() -> Self {
        ClusterLifeOptions {
            quick: false,
            seed: env_seed(),
        }
    }
}

impl ClusterLifeOptions {
    /// `(nodes, scheme, horizon)` cells. The full panel reproduces the
    /// 300-node comparison and the 1000-node scale point of
    /// EXPERIMENTS.md; quick mode shrinks both axes for CI.
    pub fn panel(&self) -> Vec<(usize, Scheme, SimDuration)> {
        if self.quick {
            let h = SimDuration::from_secs(600);
            vec![(64, Scheme::Ampom, h), (64, Scheme::OpenMosix, h)]
        } else {
            let h = SimDuration::from_secs(3600);
            vec![
                (300, Scheme::Ampom, h),
                (300, Scheme::OpenMosix, h),
                (1000, Scheme::Ampom, h),
            ]
        }
    }
}

/// One measured `(nodes, scheme)` cell, determinism already enforced.
#[derive(Debug)]
pub struct ClusterCell {
    pub nodes: usize,
    pub scheme: Scheme,
    pub horizon: SimDuration,
    pub outcome: LifeOutcome,
    /// Fingerprint shared by every thread-count run and the repeat.
    pub fingerprint: u64,
    /// Wall-clock for all determinism runs of this cell combined.
    pub wall: Duration,
    /// Host µs per tick in the compute phase, single-thread run.
    pub compute_us_per_tick: f64,
    /// Host µs per tick in the apply phase, single-thread run.
    pub apply_us_per_tick: f64,
}

/// A completed clusterlife invocation: the cells plus the three rendered
/// artifacts.
#[derive(Debug)]
pub struct ClusterLifeRun {
    pub cells: Vec<ClusterCell>,
    pub facts: Facts,
}

fn run_cell(
    nodes: usize,
    scheme: Scheme,
    horizon: SimDuration,
    seed: u64,
) -> Result<ClusterCell, AmpomError> {
    let mut cfg = LifeConfig::standard(nodes, scheme);
    cfg.horizon = horizon;
    cfg.seed = seed;
    cfg.validate().map_err(AmpomError::InvalidConfig)?;

    let started = Instant::now();
    let mut runs: Vec<(usize, LifeOutcome)> = Vec::new();
    for &t in &THREAD_PANEL {
        let mut c = cfg.clone();
        c.threads = t;
        runs.push((t, run_cluster_life(&c)));
    }
    // One repeat at the widest thread count: catches nondeterminism that
    // a single pass per count would miss (e.g. leaked wall-clock state).
    let repeat_threads = *THREAD_PANEL.last().unwrap();
    let mut c = cfg.clone();
    c.threads = repeat_threads;
    runs.push((repeat_threads, run_cluster_life(&c)));

    let fingerprint = runs[0].1.fingerprint();
    for (t, outcome) in &runs[1..] {
        let f = outcome.fingerprint();
        if f != fingerprint {
            return Err(AmpomError::InvalidConfig(format!(
                "clusterlife {nodes}x{scheme}: fingerprint diverged at \
                 {t} thread(s): {f:#018x} vs {fingerprint:#018x}"
            )));
        }
    }
    // Phase times come from the single-thread run (`THREAD_PANEL[0]`):
    // with more threads the compute phase also pays `par_map`'s spawns.
    // The engine ticks once per simulated second.
    let per_tick_us = |d: Duration| d.as_secs_f64() * 1e6 / horizon.as_secs_f64();
    let compute_us_per_tick = per_tick_us(runs[0].1.compute_wall);
    let apply_us_per_tick = per_tick_us(runs[0].1.apply_wall);
    let outcome = runs.pop().unwrap().1;
    if !outcome.conserves_jobs() {
        return Err(AmpomError::InvalidConfig(format!(
            "clusterlife {nodes}x{scheme}: job conservation violated: \
             {} arrived != {} completed + {} failed + {} running",
            outcome.arrived, outcome.completed, outcome.failed, outcome.running_at_horizon
        )));
    }
    Ok(ClusterCell {
        nodes,
        scheme,
        horizon,
        outcome,
        fingerprint,
        wall: started.elapsed(),
        compute_us_per_tick,
        apply_us_per_tick,
    })
}

/// Runs the panel, each cell across the full thread panel plus a repeat.
pub fn run_clusterlife(opts: &ClusterLifeOptions) -> Result<ClusterLifeRun, AmpomError> {
    let mut cells = Vec::new();
    for (nodes, scheme, horizon) in opts.panel() {
        eprintln!(
            "clusterlife: {nodes} nodes, {scheme}, {}s horizon, threads \
             {THREAD_PANEL:?} + repeat...",
            horizon.as_secs_f64()
        );
        cells.push(run_cell(nodes, scheme, horizon, opts.seed)?);
    }
    let facts = Facts {
        jsonl: render_facts(&cells, opts.seed),
        prometheus: render_metrics(&cells),
        bench: Some(render_bench(&cells, opts.seed)),
    };
    Ok(ClusterLifeRun { cells, facts })
}

fn hex_fp(fp: u64) -> String {
    format!("{fp:#018x}")
}

/// One `cluster-cell` JSONL line per cell under a `clusterlife-run`
/// header, every line schema-stamped.
fn render_facts(cells: &[ClusterCell], seed: u64) -> String {
    let mut lines = vec![facts::header(&FACTS, seed, cells.len()).close()];
    for c in cells {
        let o = &c.outcome;
        let mut w = facts::fact(FACTS.cell);
        w.field_u64("nodes", c.nodes as u64);
        w.field_str("scheme", c.scheme.name());
        w.field_f64("horizon_s", c.horizon.as_secs_f64());
        w.field_u64("arrived", o.arrived);
        w.field_u64("completed", o.completed);
        w.field_u64("failed", o.failed);
        w.field_u64("running_at_horizon", o.running_at_horizon);
        w.field_u64("migrations", o.migrations);
        w.field_u64("out_migrations", o.out_migrations);
        w.field_u64("remigrations", o.remigrations);
        w.field_u64("returns_home", o.returns_home);
        w.field_u64("gossip_messages", o.gossip_messages);
        w.field_u64("gossip_entries_merged", o.gossip_entries_merged);
        w.field_u64("storm_ticks", o.storm_ticks);
        w.field_u64("peak_migrations_per_tick", o.peak_migrations_per_tick);
        w.field_u64("max_live_stubs", o.max_live_stubs);
        w.field_f64("freeze_paid_s", o.freeze_paid.as_secs_f64());
        w.field_u64("bytes_moved", o.bytes_moved);
        w.field_f64("mean_slowdown", o.slowdown.mean());
        w.field_f64("p50_slowdown", o.p50_slowdown);
        w.field_f64("p99_slowdown", o.p99_slowdown);
        w.field_f64("mean_load_stddev", o.mean_load_stddev);
        w.field_f64("final_load_stddev", o.final_load_stddev);
        w.field_f64("throughput_jobs_per_hour", o.throughput_jobs_per_hour);
        w.field_str("fingerprint", &hex_fp(c.fingerprint));
        w.field_f64("compute_us_per_tick", c.compute_us_per_tick);
        w.field_f64("apply_us_per_tick", c.apply_us_per_tick);
        lines.push(w.close());
    }
    lines.join("\n") + "\n"
}

/// `ampom_cluster_<scheme>_n<nodes>_*` gauges and counters.
fn render_metrics(cells: &[ClusterCell]) -> String {
    let mut reg = MetricsRegistry::new();
    for c in cells {
        let key = format!(
            "{}_n{}",
            c.scheme.name().to_lowercase().replace('-', "_"),
            c.nodes
        );
        reg.export_gauge(
            &format!("ampom_cluster_{key}_throughput_jobs_per_hour"),
            "completed jobs per simulated hour",
            c.outcome.throughput_jobs_per_hour,
        );
        reg.export_gauge(
            &format!("ampom_cluster_{key}_p99_slowdown"),
            "tail completed-job slowdown",
            c.outcome.p99_slowdown,
        );
        reg.export_gauge(
            &format!("ampom_cluster_{key}_mean_load_stddev"),
            "time-averaged stddev of per-node run-queue lengths",
            c.outcome.mean_load_stddev,
        );
        reg.export_counter(
            &format!("ampom_cluster_{key}_storm_ticks_total"),
            "ticks whose migration count crossed the storm threshold",
            c.outcome.storm_ticks,
        );
        reg.export_counter(
            &format!("ampom_cluster_{key}_migrations_total"),
            "out-migrations + remigrations + home returns",
            c.outcome.migrations,
        );
    }
    reg.render_prometheus()
}

/// The `BENCH_cluster.json` fact: one compact cell entry per measurement.
fn render_bench(cells: &[ClusterCell], seed: u64) -> String {
    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            let mut w = JsonWriter::object();
            w.field_u64("nodes", c.nodes as u64);
            w.field_str("scheme", c.scheme.name());
            w.field_f64(
                "throughput_jobs_per_hour",
                c.outcome.throughput_jobs_per_hour,
            );
            w.field_f64("p99_slowdown", c.outcome.p99_slowdown);
            w.field_str("fingerprint", &hex_fp(c.fingerprint));
            w.close()
        })
        .collect();
    let mut w = facts::bench(&FACTS, seed);
    w.field_raw("cells", &format!("[{}]", entries.join(",")));
    w.close() + "\n"
}

/// Self-verification: the shared envelope, and every cell's counters
/// internally consistent — jobs conserve, the migration kinds sum to
/// the total, and no job ever held two live deputy stubs.
pub fn verify_facts(jsonl: &str) -> Result<(), String> {
    facts::verify(&FACTS, jsonl, |f| {
        if f.kind != FACTS.cell {
            return Ok(());
        }
        let arrived = f.u64("arrived")?;
        let settled = f.u64("completed")? + f.u64("failed")? + f.u64("running_at_horizon")?;
        if arrived != settled {
            return Err(f.error(format_args!(
                "job conservation violated ({arrived} arrived, {settled} accounted)"
            )));
        }
        let kinds = f.u64("out_migrations")? + f.u64("remigrations")? + f.u64("returns_home")?;
        if f.u64("migrations")? != kinds {
            return Err(f.error("migration kinds do not sum to the total"));
        }
        if f.u64("max_live_stubs")? > 1 {
            return Err(f.error("deputy-chain avoidance violated (>1 live stub)"));
        }
        if f.u64("completed")? == 0 {
            return Err(f.error("cell completed no jobs"));
        }
        let fp = f
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| f.error("cell lacks fingerprint"))?;
        if !fp.starts_with("0x") || fp.len() != 18 {
            return Err(f.error(format_args!("malformed fingerprint {fp:?}")));
        }
        Ok(())
    })
}

/// The clusterlife table: one row per cell.
pub fn clusterlife_table(run: &ClusterLifeRun) -> AsciiTable {
    let mut t = AsciiTable::new(
        "clusterlife: cluster-scale job flow under gossip-informed migration",
        &[
            "nodes",
            "scheme",
            "jobs/h",
            "completed",
            "out/remig/return",
            "storms",
            "p99 slow",
            "load dev",
            "GB moved",
            "compute us/tick",
            "apply us/tick",
            "fingerprint",
        ],
    );
    for c in &run.cells {
        let o = &c.outcome;
        t.row(vec![
            c.nodes.to_string(),
            c.scheme.name().to_string(),
            format!("{:.0}", o.throughput_jobs_per_hour),
            o.completed.to_string(),
            format!("{}/{}/{}", o.out_migrations, o.remigrations, o.returns_home),
            o.storm_ticks.to_string(),
            format!("{:.2}", o.p99_slowdown),
            format!("{:.2}", o.mean_load_stddev),
            format!("{:.1}", o.bytes_moved as f64 / (1u64 << 30) as f64),
            format!("{:.1}", c.compute_us_per_tick),
            format!("{:.1}", c.apply_us_per_tick),
            hex_fp(c.fingerprint),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cells() -> Vec<ClusterCell> {
        let mut cfg = LifeConfig::standard(8, Scheme::Ampom);
        cfg.horizon = SimDuration::from_secs(240);
        cfg.seed = 7;
        let outcome = run_cluster_life(&cfg);
        let fingerprint = outcome.fingerprint();
        vec![ClusterCell {
            nodes: 8,
            scheme: Scheme::Ampom,
            horizon: cfg.horizon,
            outcome,
            fingerprint,
            wall: Duration::from_millis(1),
            compute_us_per_tick: 1.5,
            apply_us_per_tick: 2.5,
        }]
    }

    #[test]
    fn facts_self_verify() {
        let cells = tiny_cells();
        let jsonl = render_facts(&cells, 7);
        verify_facts(&jsonl).expect("facts verify");
    }

    #[test]
    fn bench_fact_passes_its_own_baseline() {
        let cells = tiny_cells();
        let bench = render_bench(&cells, 7);
        assert!(bench.starts_with("{\"bench\":\"cluster\",\"schema\":1,\"seed\":7,"));
        let gate = FACTS.gate.as_ref().unwrap();
        let msg = facts::check_baseline(gate, &bench, &bench).expect("self-baseline holds");
        assert!(msg.contains("1 cell(s)"));
    }

    #[test]
    fn baseline_gate_catches_regression() {
        let cells = tiny_cells();
        let bench = render_bench(&cells, 7);
        let gate = FACTS.gate.as_ref().unwrap();
        let thr = cells[0].outcome.throughput_jobs_per_hour;
        let inflated = bench.replacen(
            &format!("\"throughput_jobs_per_hour\":{thr}"),
            &format!("\"throughput_jobs_per_hour\":{}", thr * 2.0),
            1,
        );
        assert_ne!(inflated, bench, "replacement must hit");
        // Baseline twice as fast as current -> current is below the floor.
        let err = facts::check_baseline(gate, &bench, &inflated).unwrap_err();
        assert!(err.contains("nodes/scheme 8/AMPoM regressed"), "{err}");
        // Disjoint panels are an error, not a silent pass.
        let other = bench.replace("\"nodes\":8", "\"nodes\":9");
        let err = facts::check_baseline(gate, &bench, &other).unwrap_err();
        assert!(err.contains("overlaps the baseline"), "{err}");
    }

    #[test]
    fn doctored_facts_are_rejected() {
        let cells = tiny_cells();
        let jsonl = render_facts(&cells, 7);
        // Break conservation in the cell line and the stream must fail.
        let broken = jsonl.replacen("\"arrived\":", "\"arrived_was\":999,\"arrived\":", 1);
        let broken = {
            let o = &cells[0].outcome;
            broken.replacen(
                &format!("\"arrived\":{}", o.arrived),
                &format!("\"arrived\":{}", o.arrived + 1),
                1,
            )
        };
        assert!(verify_facts(&broken).is_err());
        // Truncating the stream breaks the header count.
        let header_only = jsonl.lines().next().unwrap().to_string();
        assert!(verify_facts(&header_only).is_err());
    }

    #[test]
    fn metrics_and_table_render() {
        let cells = tiny_cells();
        let prom = render_metrics(&cells);
        assert!(prom.contains("ampom_cluster_ampom_n8_throughput_jobs_per_hour"));
        assert!(prom.contains("ampom_cluster_ampom_n8_storm_ticks_total"));
        let run = ClusterLifeRun {
            facts: Facts {
                jsonl: render_facts(&cells, 7),
                prometheus: prom,
                bench: Some(render_bench(&cells, 7)),
            },
            cells,
        };
        let text = clusterlife_table(&run).render();
        assert!(text.contains("AMPoM"));
        assert!(text.contains("0x"));
        assert!(text.contains("apply us/tick") && text.contains("2.5"));
        assert!(run.facts.jsonl.contains("\"apply_us_per_tick\":2.5"));
        assert!(!render_bench(&run.cells, 7).contains("us_per_tick"));
    }
}
