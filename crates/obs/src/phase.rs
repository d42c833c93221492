//! Per-phase time attribution.
//!
//! The paper's evaluation (§5) attributes execution time to phases —
//! freeze, compute, fault stalls, recovery, … — and the migrant loop
//! (`ampom_core::run_with_transport`, which `run_workload` drives)
//! charges every clock advance to exactly one phase as it happens. The disjoint phases
//! therefore sum *exactly* to the reported total simulated time; the CI
//! tolerance on that identity is pure slack.
//!
//! `prefetch_overlap` is the one diagnostic that deliberately overlaps:
//! compute time spent while at least one prefetched page was still in
//! flight (useful prefetch pipelining). It is excluded from the sum.

use std::fmt::Write as _;

use ampom_sim::time::SimDuration;

use crate::json::JsonWriter;
use crate::registry::{MetricSource, MetricsRegistry};

/// Where every nanosecond of a run's simulated clock went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Migration freeze: process stopped, initial state on the wire.
    pub freeze: SimDuration,
    /// Useful instruction execution after resume.
    pub compute: SimDuration,
    /// Minor faults served from already-resident/zero-filled pages.
    pub minor_fault: SimDuration,
    /// AMPoM per-fault analysis (Eqs. 1–3) on the fault path.
    pub analysis: SimDuration,
    /// Installing arrived pages into the address space.
    pub install: SimDuration,
    /// Stalled on a demand page, excluding failure recovery.
    pub fault_stall: SimDuration,
    /// Stalled specifically in failure recovery (timeouts, reconnects,
    /// fallback transfers, remigration).
    pub recovery: SimDuration,
    /// Forwarded system calls (home-node round trips + remote work).
    pub syscall: SimDuration,
    /// Diagnostic overlap, not part of the sum: compute that ran while a
    /// prefetch was still in flight.
    pub prefetch_overlap: SimDuration,
}

impl PhaseBreakdown {
    /// Names of the disjoint phases, in report order.
    pub const PHASES: [&'static str; 8] = [
        "freeze",
        "compute",
        "minor_fault",
        "analysis",
        "install",
        "fault_stall",
        "recovery",
        "syscall",
    ];

    /// The disjoint phases as `(name, duration)` rows, in report order.
    pub fn rows(&self) -> [(&'static str, SimDuration); 8] {
        [
            ("freeze", self.freeze),
            ("compute", self.compute),
            ("minor_fault", self.minor_fault),
            ("analysis", self.analysis),
            ("install", self.install),
            ("fault_stall", self.fault_stall),
            ("recovery", self.recovery),
            ("syscall", self.syscall),
        ]
    }

    /// Sum of the disjoint phases. Equal to the run's total simulated
    /// time for reports produced by the core run loops.
    pub fn total(&self) -> SimDuration {
        self.rows().iter().map(|(_, d)| *d).sum()
    }

    /// Renders one `{"type":"phase",...}` JSONL line per disjoint phase,
    /// plus one `{"type":"overlap",...}` line for `prefetch_overlap`.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (name, d) in self.rows() {
            let mut w = JsonWriter::object();
            w.field_str("type", "phase");
            w.field_str("phase", name);
            w.field_u64("ns", d.as_nanos());
            w.field_f64("seconds", d.as_secs_f64());
            let _ = writeln!(out, "{}", w.close());
        }
        let mut w = JsonWriter::object();
        w.field_str("type", "overlap");
        w.field_str("phase", "prefetch_overlap");
        w.field_u64("ns", self.prefetch_overlap.as_nanos());
        w.field_f64("seconds", self.prefetch_overlap.as_secs_f64());
        let _ = writeln!(out, "{}", w.close());
        out
    }
}

impl MetricSource for PhaseBreakdown {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        for (name, d) in self.rows() {
            reg.export_gauge(
                &format!("ampom_phase_{name}_seconds"),
                "simulated time attributed to this phase",
                d.as_secs_f64(),
            );
        }
        reg.export_gauge(
            "ampom_phase_prefetch_overlap_seconds",
            "compute time overlapped with in-flight prefetches (diagnostic)",
            self.prefetch_overlap.as_secs_f64(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    fn sample() -> PhaseBreakdown {
        PhaseBreakdown {
            freeze: SimDuration::from_millis(5),
            compute: SimDuration::from_millis(40),
            minor_fault: SimDuration::from_micros(300),
            analysis: SimDuration::from_micros(200),
            install: SimDuration::from_micros(500),
            fault_stall: SimDuration::from_millis(3),
            recovery: SimDuration::from_millis(1),
            syscall: SimDuration::from_micros(120),
            prefetch_overlap: SimDuration::from_millis(7),
        }
    }

    #[test]
    fn total_sums_disjoint_phases_only() {
        let p = sample();
        let expected = p.freeze
            + p.compute
            + p.minor_fault
            + p.analysis
            + p.install
            + p.fault_stall
            + p.recovery
            + p.syscall;
        assert_eq!(p.total(), expected);
        // The overlap diagnostic must not inflate the sum.
        assert!(p.total() < expected + p.prefetch_overlap);
    }

    #[test]
    fn jsonl_parses_and_covers_every_phase() {
        let p = sample();
        let text = p.jsonl();
        let mut phases = Vec::new();
        for line in text.lines() {
            let v = parse(line).expect("phase JSONL line must parse");
            if v.get("type").and_then(JsonValue::as_str) == Some("phase") {
                phases.push(
                    v.get("phase")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string(),
                );
            }
        }
        assert_eq!(phases, PhaseBreakdown::PHASES);
    }

    #[test]
    fn metrics_export_uses_phase_naming() {
        let mut reg = MetricsRegistry::new();
        sample().export_metrics(&mut reg);
        assert_eq!(reg.gauge_value("ampom_phase_freeze_seconds"), Some(0.005));
        assert!(reg
            .gauge_value("ampom_phase_prefetch_overlap_seconds")
            .is_some());
        assert_eq!(reg.len(), 9);
    }
}
