//! `hpcc-repro profile` — one kernel/scheme pair under full
//! observability.
//!
//! Runs the pair with tracing enabled, prints a phase-attribution table
//! (where did the run's time go: freeze, compute, fault stalls,
//! recovery, …) and the top-k hottest pages, and emits two
//! machine-readable artifacts:
//!
//! * **JSONL** (`--json PATH`): one `run` header line, one `phase` line
//!   per phase, one `overlap` diagnostic line, then one `event` line per
//!   trace event — the schema of DESIGN.md §11.
//! * **Prometheus text** (`--prom PATH`): every [`MetricSource`] the run
//!   touched, rendered by [`MetricsRegistry::render_prometheus`].
//!
//! The command *self-verifies* before exiting: the JSONL it just emitted
//! must parse line-by-line with [`ampom_obs::parse`], and the phase times
//! must sum to the reported total within 1%. CI runs this on a small
//! kernel, so a regression in either the writer or the phase accounting
//! fails the build.

use std::collections::HashMap;
use std::fmt::Write as _;

use ampom_core::experiment::Experiment;
use ampom_core::migration::Scheme;
use ampom_core::RunReport;
use ampom_obs::{parse, trace_event_json, JsonWriter, MetricSource, MetricsRegistry};
use ampom_sim::trace::TraceKind;
use ampom_workloads::sizes::ProblemSize;
use ampom_workloads::Kernel;

use crate::matrix::MATRIX_SEED;
use crate::report::{pct, secs, AsciiTable};

/// Phase times must sum to the run total within this fraction (the CI
/// acceptance bound; simulated runs are in fact exact).
pub const PHASE_SUM_TOLERANCE: f64 = 0.01;

/// What `hpcc-repro profile` should run and emit.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// The kernel to run.
    pub kernel: Kernel,
    /// The migration scheme.
    pub scheme: Scheme,
    /// Small problem size (4 MB instead of 32 MB).
    pub quick: bool,
    /// Number of hottest pages to print.
    pub top: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            kernel: Kernel::Stream,
            scheme: Scheme::Ampom,
            quick: false,
            top: 10,
        }
    }
}

/// Everything one profiled run produced.
#[derive(Debug)]
pub struct Profile {
    /// The run's measurements (trace included).
    pub report: RunReport,
    /// The JSONL artifact (header + phases + events).
    pub jsonl: String,
    /// The Prometheus-style text dump.
    pub prometheus: String,
}

/// Runs the pair and builds both artifacts.
pub fn run_profile(opts: &ProfileOptions) -> Result<Profile, String> {
    let size = ProblemSize {
        problem: 0,
        memory_mb: if opts.quick { 4 } else { 32 },
    };
    let report = Experiment::new(opts.scheme)
        .kernel(opts.kernel, size)
        .workload_seed(MATRIX_SEED)
        .trace()
        .run()
        .map_err(|e| format!("profile run failed: {e}"))?;

    let mut jsonl = String::new();
    let mut w = JsonWriter::object();
    w.field_str("type", "run");
    w.field_str("kernel", opts.kernel.name());
    w.field_str("scheme", opts.scheme.name());
    w.field_str("workload", &report.workload);
    w.field_u64("memory_mb", report.program_mb);
    w.field_u64("total_ns", report.total_time.as_nanos());
    w.field_f64("total_seconds", report.total_time.as_secs_f64());
    w.field_u64("faults", report.faults_total);
    w.field_u64("pages_prefetched", report.pages_prefetched);
    let _ = writeln!(jsonl, "{}", w.close());
    jsonl.push_str(&report.phases.jsonl());
    for e in report.trace.events() {
        let _ = writeln!(jsonl, "{}", trace_event_json(e));
    }

    let mut reg = MetricsRegistry::new();
    report.export_metrics(&mut reg);
    let prometheus = reg.render_prometheus();

    Ok(Profile {
        report,
        jsonl,
        prometheus,
    })
}

/// Verifies the emitted JSONL: every line parses, the `run` header is
/// present, and the phase lines sum to the header's total within
/// [`PHASE_SUM_TOLERANCE`].
pub fn verify_jsonl(jsonl: &str) -> Result<(), String> {
    let mut total_ns: Option<u64> = None;
    let mut phase_sum_ns: u64 = 0;
    let mut phase_lines = 0u64;
    for (i, line) in jsonl.lines().enumerate() {
        let v = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = v
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or_else(|| format!("line {}: missing \"type\"", i + 1))?;
        match kind {
            "run" => {
                total_ns = Some(
                    v.get("total_ns")
                        .and_then(|t| t.as_u64())
                        .ok_or_else(|| format!("line {}: run header lacks total_ns", i + 1))?,
                );
            }
            "phase" => {
                phase_sum_ns += v
                    .get("ns")
                    .and_then(|t| t.as_u64())
                    .ok_or_else(|| format!("line {}: phase lacks ns", i + 1))?;
                phase_lines += 1;
            }
            "overlap" | "event" => {}
            other => return Err(format!("line {}: unknown type {other:?}", i + 1)),
        }
    }
    let total = total_ns.ok_or("no run header line")?;
    if phase_lines == 0 {
        return Err("no phase lines".into());
    }
    let drift = phase_sum_ns.abs_diff(total) as f64;
    let bound = total as f64 * PHASE_SUM_TOLERANCE;
    if drift > bound {
        return Err(format!(
            "phase times sum to {phase_sum_ns} ns but the run took {total} ns \
             (drift {drift} ns exceeds the {:.0}% bound)",
            PHASE_SUM_TOLERANCE * 100.0
        ));
    }
    Ok(())
}

/// The phase-attribution table the command prints.
pub fn phase_table(opts: &ProfileOptions, report: &RunReport) -> AsciiTable {
    let mut t = AsciiTable::new(
        format!(
            "profile: {} under {} ({} MB)",
            opts.kernel,
            opts.scheme.name(),
            report.program_mb
        ),
        &["phase", "time (s)", "share"],
    );
    let total = report.total_time.as_secs_f64();
    for (name, d) in report.phases.rows() {
        let s = d.as_secs_f64();
        t.row(vec![
            name.to_string(),
            secs(s),
            if total > 0.0 {
                pct(100.0 * s / total)
            } else {
                pct(0.0)
            },
        ]);
    }
    t.row(vec![
        "total".into(),
        secs(total),
        pct(if total > 0.0 { 100.0 } else { 0.0 }),
    ]);
    t.row(vec![
        "prefetch-overlap*".into(),
        secs(report.phases.prefetch_overlap.as_secs_f64()),
        "(diagnostic)".into(),
    ]);
    t
}

/// The top-k hottest pages by fault count, from the run's trace.
pub fn hottest_pages(report: &RunReport, k: usize) -> AsciiTable {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for e in report.trace.events() {
        if e.kind == TraceKind::PageFault {
            if let Some(page) = e.data.page {
                *counts.entry(page).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(u64, u64)> = counts.into_iter().collect();
    // Highest count first; page number breaks ties deterministically.
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut t = AsciiTable::new(
        format!("top {k} hottest pages (by remote faults)"),
        &["page", "faults"],
    );
    for (page, n) in ranked.into_iter().take(k) {
        t.row(vec![page.to_string(), n.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ProfileOptions {
        ProfileOptions {
            quick: true,
            ..ProfileOptions::default()
        }
    }

    #[test]
    fn profile_emits_verifiable_jsonl() {
        let p = run_profile(&quick_opts()).expect("profile");
        verify_jsonl(&p.jsonl).expect("self-verification");
        // The trace actually made it into the artifact.
        assert!(p.jsonl.lines().any(|l| l.contains("\"type\":\"event\"")));
        // The Prometheus dump follows the naming convention.
        assert!(p.prometheus.contains("ampom_run_total_seconds"));
        assert!(p.prometheus.contains("ampom_phase_compute_seconds"));
    }

    #[test]
    fn phase_sums_are_exact_for_simulated_runs() {
        let p = run_profile(&quick_opts()).expect("profile");
        assert_eq!(
            p.report.phases.total(),
            p.report.total_time,
            "the simulated phase partition is exact, not merely within tolerance"
        );
    }

    #[test]
    fn verification_rejects_drifting_phases() {
        let good = "{\"type\":\"run\",\"total_ns\":1000}\n\
                    {\"type\":\"phase\",\"phase\":\"compute\",\"ns\":995}\n";
        verify_jsonl(good).expect("0.5% drift is within the 1% bound");
        let bad = "{\"type\":\"run\",\"total_ns\":1000}\n\
                   {\"type\":\"phase\",\"phase\":\"compute\",\"ns\":900}\n";
        assert!(verify_jsonl(bad).is_err(), "10% drift must fail");
        assert!(verify_jsonl("not json\n").is_err());
        assert!(verify_jsonl("{\"type\":\"phase\",\"ns\":1}\n").is_err());
    }

    #[test]
    fn hottest_pages_ranks_by_fault_count() {
        let p = run_profile(&quick_opts()).expect("profile");
        let t = hottest_pages(&p.report, 5);
        assert!(!t.is_empty(), "a migrant run always faults at least once");
    }
}
