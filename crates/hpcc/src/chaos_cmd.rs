//! `hpcc-repro chaos` — run the named chaos scenarios, grade per-migrant
//! SLOs, and emit machine-readable run facts.
//!
//! Each named [`ChaosScenario`](ampom_core::chaos::ChaosScenario) (see
//! DESIGN.md §14) runs at every
//! migrant count in the panel (1, 4 and 8 by default). A cell produces:
//!
//! * a table row — headline verdict, worst per-migrant p99 stall and
//!   slowdown, the shed/admission counters,
//! * JSONL run facts in the [`crate::facts`] format — one `scenario`
//!   line per cell plus one `slo` line per migrant, self-verified by
//!   [`verify_facts`] before anything is written,
//! * Prometheus gauges/counters — `ampom_slo_<cell>_m<i>_*` per migrant
//!   and `ampom_shed_<cell>_*_total` per cell.
//!
//! When the run covers both `null` and `flaky-link-storm` at four
//! migrants, the command also emits `BENCH_chaos.json`: pages/s and
//! worst p99 stall, clean link vs storm — the repo's perf-trajectory
//! fact for the serving path under chaos.
//!
//! The seed comes from `AMPOM_FAULT_SEED` (default 42), the same
//! convention the CI fault matrix uses, so a smoke run is reproducible
//! bit-for-bit across jobs.

use ampom_core::chaos::{scenario, scenarios, ScenarioOutcome};
use ampom_core::slo::{SloOutcome, SloReport};
use ampom_core::AmpomError;
use ampom_obs::{JsonValue, JsonWriter, MetricsRegistry};

use crate::facts::{self, env_seed, Facts};
use crate::report::{secs, AsciiTable};

/// The shape of the `chaos` facts: a `chaos-run` header, one `scenario`
/// line per cell and one `slo` line per migrant. No baseline gate.
pub const FACTS: facts::Spec = facts::Spec {
    command: "chaos",
    header: "chaos-run",
    cell: "scenario",
    others: &["slo"],
    bench: "chaos",
    verify: verify_facts,
    gate: None,
};

/// The migrant-count panel every scenario runs at.
pub const MIGRANT_PANEL: [u32; 3] = [1, 4, 8];

/// What to run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Scenario-name filter; empty means every named scenario.
    pub scenarios: Vec<String>,
    /// Migrant counts per scenario.
    pub migrants: Vec<u32>,
    /// Base seed for workload, cross-traffic and fault plans.
    pub seed: u64,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            scenarios: Vec::new(),
            migrants: MIGRANT_PANEL.to_vec(),
            seed: env_seed(),
        }
    }
}

/// Everything the `chaos` command produced.
#[derive(Debug)]
pub struct ChaosRun {
    /// One outcome per (scenario, migrants) cell, scenario-major in the
    /// canonical [`scenarios`] order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// The JSONL facts, the `ampom_slo_*` / `ampom_shed_*` dump, and
    /// `BENCH_chaos.json` when the run covered both `null` and
    /// `flaky-link-storm` at four migrants.
    pub facts: Facts,
}

/// Pages delivered per second of makespan across all migrants of a cell.
pub fn pages_per_sec(out: &ScenarioOutcome) -> f64 {
    let pages: u64 = out
        .report
        .reports
        .iter()
        .map(|r| r.pages_demand_fetched + r.pages_prefetched)
        .sum();
    let s = out.report.makespan.as_secs_f64();
    if s > 0.0 {
        pages as f64 / s
    } else {
        0.0
    }
}

/// Worst (largest) measurement of one SLO dimension across migrants.
fn worst_measure(out: &ScenarioOutcome, dim: impl Fn(&SloReport) -> Option<SloOutcome>) -> f64 {
    out.slo
        .iter()
        .filter_map(|s| dim(s).map(|o| o.measured))
        .fold(0.0, f64::max)
}

/// Runs the selected scenarios over the migrant panel.
pub fn run_chaos(opts: &ChaosOptions) -> Result<ChaosRun, AmpomError> {
    let selected = if opts.scenarios.is_empty() {
        scenarios()
    } else {
        opts.scenarios
            .iter()
            .map(|name| {
                scenario(name).ok_or_else(|| {
                    AmpomError::InvalidConfig(format!(
                        "unknown chaos scenario {name:?}; known: {}",
                        scenarios()
                            .iter()
                            .map(|s| s.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })
            })
            .collect::<Result<Vec<_>, _>>()?
    };

    let mut outcomes = Vec::with_capacity(selected.len() * opts.migrants.len());
    for scn in &selected {
        for &n in &opts.migrants {
            outcomes.push(scn.run(n, opts.seed)?);
        }
    }

    let facts = Facts {
        jsonl: render_facts(&outcomes, opts.seed),
        prometheus: render_metrics(&outcomes),
        bench: render_bench(&outcomes, opts.seed),
    };
    Ok(ChaosRun { outcomes, facts })
}

/// A stable per-cell key for metric names: `flaky_link_storm_n4`.
fn cell_key(out: &ScenarioOutcome) -> String {
    format!("{}_n{}", out.name.replace('-', "_"), out.migrants)
}

/// One `scenario` JSONL line per cell, one `slo` line per migrant, under
/// a `chaos-run` header — every line schema-stamped so the stream stays
/// append-only across runs.
fn render_facts(outcomes: &[ScenarioOutcome], seed: u64) -> String {
    let mut lines = vec![facts::header(&FACTS, seed, outcomes.len()).close()];
    for out in outcomes {
        let mut w = facts::fact(FACTS.cell);
        w.field_str("scenario", out.name);
        w.field_u64("migrants", u64::from(out.migrants));
        w.field_u64("seed", out.seed);
        w.field_str("verdict", out.worst_verdict().name());
        w.field_u64("prefetch_pages_shed", out.prefetch_pages_shed());
        w.field_u64("demand_pages_shed", out.demand_pages_shed());
        w.field_u64("shed_events", out.report.deputy.shed_events);
        w.field_u64("hellos_deferred", out.report.deputy.hellos_deferred);
        w.field_u64("retries", out.total_retries());
        w.field_u64("makespan_ns", out.report.makespan.as_nanos());
        w.field_f64("pages_per_sec", pages_per_sec(out));
        lines.push(w.close());

        for (i, slo) in out.slo.iter().enumerate() {
            let mut w = facts::fact("slo");
            w.field_str("scenario", out.name);
            w.field_u64("migrants", u64::from(out.migrants));
            w.field_u64("migrant", i as u64);
            w.field_str("verdict", slo.overall().name());
            if let Some(o) = slo.p99_stall {
                w.field_f64("p99_stall_s", o.measured);
                w.field_f64("p99_stall_budget_s", o.budget);
            }
            if let Some(o) = slo.slowdown {
                w.field_f64("slowdown", o.measured);
                w.field_f64("slowdown_budget", o.budget);
            }
            if let Some(o) = slo.timeout_rate {
                w.field_f64("timeout_rate", o.measured);
                w.field_f64("timeout_rate_budget", o.budget);
            }
            lines.push(w.close());
        }
    }
    lines.join("\n") + "\n"
}

/// Per-migrant `ampom_slo_<cell>_m<i>_*` gauges plus per-cell
/// `ampom_shed_<cell>_*_total` counters and the worst-verdict gauge.
fn render_metrics(outcomes: &[ScenarioOutcome]) -> String {
    let mut reg = MetricsRegistry::new();
    for out in outcomes {
        let key = cell_key(out);
        for (i, slo) in out.slo.iter().enumerate() {
            slo.export(&mut reg, &format!("{key}_m{i}"));
        }
        reg.export_gauge(
            &format!("ampom_chaos_{key}_worst_verdict"),
            "worst per-migrant SLO verdict rank: 0 met, 1 at-risk, 2 breached",
            f64::from(out.worst_verdict().rank()),
        );
        reg.export_counter(
            &format!("ampom_shed_{key}_prefetch_pages_total"),
            "prefetch pages refused by deputy admission control",
            out.prefetch_pages_shed(),
        );
        reg.export_counter(
            &format!("ampom_shed_{key}_demand_pages_total"),
            "demand pages refused by deputy admission control (never shed)",
            out.demand_pages_shed(),
        );
        reg.export_counter(
            &format!("ampom_shed_{key}_events_total"),
            "admission-control shed events",
            out.report.deputy.shed_events,
        );
        reg.export_counter(
            &format!("ampom_shed_{key}_hellos_deferred_total"),
            "migrant admissions deferred by the hysteresis hello gate",
            out.report.deputy.hellos_deferred,
        );
    }
    reg.render_prometheus()
}

/// The `BENCH_chaos.json` fact: pages/s and worst p99 stall, clean link
/// vs `flaky-link-storm`, both at four migrants.
fn render_bench(outcomes: &[ScenarioOutcome], seed: u64) -> Option<String> {
    let at4 = |name: &str| outcomes.iter().find(|o| o.name == name && o.migrants == 4);
    let cell_json = |out: &ScenarioOutcome| {
        let mut w = JsonWriter::object();
        w.field_str("scenario", out.name);
        w.field_f64("pages_per_sec", pages_per_sec(out));
        w.field_f64("p99_stall_s", worst_measure(out, |s| s.p99_stall));
        w.field_str("verdict", out.worst_verdict().name());
        w.close()
    };
    let null = at4("null")?;
    let storm = at4("flaky-link-storm")?;
    let mut w = facts::bench(&FACTS, seed);
    w.field_u64("migrants", 4);
    w.field_raw("baseline", &cell_json(null));
    w.field_raw("storm", &cell_json(storm));
    Some(w.close() + "\n")
}

/// Self-verification of the JSONL facts: the shared envelope, every
/// `scenario` line carrying its verdict and shed counters, every `slo`
/// line its verdict, and one `slo` line per migrant the scenario lines
/// promise.
pub fn verify_facts(jsonl: &str) -> Result<(), String> {
    let (mut promised, mut slo_lines) = (0u64, 0u64);
    facts::verify(&FACTS, jsonl, |f| {
        match f.kind {
            "scenario" => {
                f.require(&[
                    "verdict",
                    "prefetch_pages_shed",
                    "demand_pages_shed",
                    "shed_events",
                    "hellos_deferred",
                ])?;
                promised += f.u64("migrants")?;
            }
            "slo" => {
                slo_lines += 1;
                if f.get("verdict").and_then(JsonValue::as_str).is_none() {
                    return Err(f.error("slo fact lacks verdict"));
                }
            }
            _ => {}
        }
        Ok(())
    })?;
    if slo_lines != promised {
        return Err(format!(
            "scenario facts promise {promised} slo lines but the stream has {slo_lines}"
        ));
    }
    Ok(())
}

/// The chaos table: one row per (scenario, migrants) cell.
pub fn chaos_table(run: &ChaosRun) -> AsciiTable {
    let mut t = AsciiTable::new(
        "chaos suite: per-migrant SLO verdicts and admission-control shedding",
        &[
            "scenario",
            "migrants",
            "verdict",
            "p99 stall (s)",
            "slowdown",
            "timeouts/req",
            "shed prefetch",
            "shed demand",
            "hellos deferred",
            "retries",
        ],
    );
    for out in &run.outcomes {
        t.row(vec![
            out.name.to_string(),
            out.migrants.to_string(),
            out.worst_verdict().name().to_string(),
            secs(worst_measure(out, |s| s.p99_stall)),
            format!("{:.3}x", worst_measure(out, |s| s.slowdown)),
            format!("{:.2}", worst_measure(out, |s| s.timeout_rate)),
            out.prefetch_pages_shed().to_string(),
            out.demand_pages_shed().to_string(),
            out.report.deputy.hellos_deferred.to_string(),
            out.total_retries().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_core::slo::SloVerdict;
    use ampom_obs::parse;

    fn small(names: &[&str], migrants: &[u32]) -> ChaosRun {
        run_chaos(&ChaosOptions {
            scenarios: names.iter().map(|s| s.to_string()).collect(),
            migrants: migrants.to_vec(),
            seed: 42,
        })
        .expect("chaos run")
    }

    #[test]
    fn facts_round_trip_and_account_for_every_migrant() {
        let run = small(&["null", "slow-link-degrade"], &[1, 2]);
        verify_facts(&run.facts.jsonl).expect("self-verification");
        assert_eq!(run.outcomes.len(), 4);
        // 1 header + 4 scenario lines + (1+2)*2 slo lines.
        assert_eq!(run.facts.jsonl.lines().count(), 1 + 4 + 6);
    }

    #[test]
    fn doctored_facts_are_rejected() {
        let jsonl = small(&["null"], &[2]).facts.jsonl;
        let slo_line = jsonl.lines().last().unwrap();
        let cases = [
            (
                "an slo line too many",
                format!("{jsonl}{slo_line}\n"),
                "scenario facts promise 2 slo lines but the stream has 3",
            ),
            (
                "an slo line too few",
                jsonl.replacen(&format!("{slo_line}\n"), "", 1),
                "scenario facts promise 2 slo lines but the stream has 1",
            ),
            (
                "a scenario line that promises another migrant count",
                jsonl.replacen("\"migrants\":2", "\"migrants\":3", 1),
                "promise 3 slo lines but the stream has 2",
            ),
            (
                "a scenario line without demand_pages_shed",
                jsonl.replacen("\"demand_pages_shed\":0,", "", 1),
                "line 2: scenario fact lacks demand_pages_shed",
            ),
            (
                "an slo line without a verdict",
                jsonl.replacen("\"verdict\":\"met\",\"p99", "\"p99", 1),
                "line 3: slo fact lacks verdict",
            ),
        ];
        for (name, doctored, want) in cases {
            assert_ne!(doctored, jsonl, "{name}: the doctoring must hit");
            let err = verify_facts(&doctored).expect_err(name);
            assert!(err.contains(want), "{name}: {err:?} lacks {want:?}");
        }
    }

    #[test]
    fn null_scenario_meets_every_slo() {
        let run = small(&["null"], &[1, 4]);
        for out in &run.outcomes {
            assert_eq!(out.worst_verdict(), SloVerdict::Met, "{}", out.name);
            assert_eq!(out.prefetch_pages_shed(), 0);
            assert_eq!(out.demand_pages_shed(), 0);
        }
        assert!(run.facts.jsonl.contains("\"verdict\":\"met\""));
    }

    #[test]
    fn metrics_follow_the_naming_convention() {
        let run = small(&["null"], &[1]);
        assert!(run
            .facts
            .prometheus
            .contains("ampom_slo_null_n1_m0_verdict"));
        assert!(run
            .facts
            .prometheus
            .contains("ampom_shed_null_n1_prefetch_pages_total"));
        assert!(run
            .facts
            .prometheus
            .contains("ampom_shed_null_n1_hellos_deferred_total"));
        for line in run.facts.prometheus.lines() {
            if !line.starts_with('#') && !line.is_empty() {
                assert!(line.starts_with("ampom_"), "bad metric line: {line}");
            }
        }
    }

    #[test]
    fn bench_fact_needs_both_cells_at_four_migrants() {
        let run = small(&["null"], &[4]);
        assert!(run.facts.bench.is_none(), "storm cell missing");

        let run = small(&["null", "flaky-link-storm"], &[4]);
        let bench = run.facts.bench.expect("both cells present");
        let v = parse(bench.trim()).expect("bench json parses");
        assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("chaos"));
        let base = v.get("baseline").expect("baseline cell");
        assert!(base.get("pages_per_sec").and_then(|p| p.as_f64()).unwrap() > 0.0);
        assert_eq!(
            v.get("storm")
                .and_then(|s| s.get("scenario"))
                .and_then(|s| s.as_str()),
            Some("flaky-link-storm")
        );
    }

    #[test]
    fn unknown_scenario_is_a_config_error() {
        let err = run_chaos(&ChaosOptions {
            scenarios: vec!["no-such-storm".into()],
            migrants: vec![1],
            seed: 42,
        })
        .unwrap_err();
        assert!(err.to_string().contains("no-such-storm"));
    }

    #[test]
    fn table_has_one_row_per_cell_and_shows_shedding() {
        let run = small(&["deputy-restart-midstorm"], &[1]);
        let t = chaos_table(&run);
        assert!(!t.is_empty());
        let rendered = t.render();
        assert!(rendered.contains("deputy-restart-midstorm"));
        assert!(rendered.contains("shed prefetch"));
        // The bounded-admission scenario actually sheds.
        assert!(run.outcomes[0].prefetch_pages_shed() > 0);
        assert_eq!(run.outcomes[0].demand_pages_shed(), 0);
    }
}
