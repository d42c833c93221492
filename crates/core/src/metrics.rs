//! Measurements of one experiment run — everything the paper's Figures
//! 5–11 report, collected in one place.

use ampom_obs::{MetricSource, MetricsRegistry, PhaseBreakdown};
use ampom_sim::stats::TimeSeries;
use ampom_sim::time::SimDuration;
use ampom_sim::trace::Trace;

use crate::migration::Scheme;
use crate::prefetcher::PrefetchStats;
use crate::slo::QuantileSketch;

/// Fault-injection and recovery counters of one run.
///
/// All zero for a fault-free run, so mixing them into the fingerprint
/// keeps historical fingerprints comparable.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Demand requests re-sent after a timeout.
    pub retries: u64,
    /// Timeouts that fired while waiting for a demanded page.
    pub timeouts: u64,
    /// Replies that arrived for a page already installed (suppressed).
    pub duplicate_replies: u64,
    /// Messages (requests or page replies) lost in flight.
    pub messages_dropped: u64,
    /// Requests that reached the home node while the deputy was down.
    pub deputy_unavailable: u64,
    /// Times the migrant exhausted its retry budget and invoked the
    /// failure policy.
    pub reconnects: u64,
    /// Pages installed by the eager-fallback policy.
    pub fallback_pages: u64,
    /// True if the run ended with a remigration home.
    pub remigrated: bool,
    /// Wall time spent in failure-policy recovery (waiting out deputy
    /// downtime, the fallback copy, the remigration transfer).
    pub recovery_time: SimDuration,
}

/// Writeback-engine counters of one run.
///
/// All zero when the run never enabled writeback, and the fingerprint
/// mixes the struct **only when non-default**, so every historical
/// fingerprint (golden tables, sweep baselines) is untouched by the
/// field's existence.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WritebackStats {
    /// Dirtying stores the write-set observed.
    pub writes_noted: u64,
    /// Delta batches sent toward the home node.
    pub batches_sent: u64,
    /// Page entries those batches applied at the home node, each once
    /// (a resent copy is not counted again).
    pub pages_written_back: u64,
    /// Batches retransmitted after a loss or a deputy outage.
    pub retransmits: u64,
    /// Whole batches the sink recognised as duplicates by sequence number.
    pub duplicate_batches: u64,
    /// Page entries the sink skipped by version compare.
    pub duplicate_pages: u64,
    /// Bytes of writeback traffic charged against the request link.
    pub writeback_bytes: u64,
    /// Time from each batch's send to its ack, summed over the batches.
    pub flush_time: SimDuration,
}

/// Home-node deputy load counters: how saturated the single deputy
/// thread was (the §7 home-dependency cost, made observable).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeputyStats {
    /// Requests that arrived while the deputy was still serving earlier
    /// work (queue depth > 0 at arrival).
    pub queued_requests: u64,
    /// Largest backlog any request saw at arrival (how far `busy_until`
    /// was past the arrival instant).
    pub max_backlog: SimDuration,
    /// Total deputy CPU time across parsing, page service and syscalls.
    pub busy_time: SimDuration,
    /// Prefetch pages refused by admission control (shed before service;
    /// recoverable — a shed page degrades to a later demand fetch).
    pub prefetch_pages_shed: u64,
    /// Demand pages refused by admission control. Structurally zero in
    /// the simulated deputy (demand is always admitted); live servers
    /// count hard 503 rejections here.
    pub demand_pages_shed: u64,
    /// Requests that had at least one page shed.
    pub shed_events: u64,
    /// `Hello`s deferred by the hysteresis admission gate.
    pub hellos_deferred: u64,
}

/// The full measurement record of one (workload, scheme) run.
#[derive(Debug)]
pub struct RunReport {
    /// Scheme under test.
    pub scheme: Scheme,
    /// Workload name (paper spelling).
    pub workload: String,
    /// Program size in MB (the figures' x axis).
    pub program_mb: u64,

    /// Migration freeze time (Figure 5).
    pub freeze_time: SimDuration,
    /// Wall time from migration start to workload completion (Figure 6's
    /// "total execution time").
    pub total_time: SimDuration,
    /// CPU time the workload actually computed.
    pub compute_time: SimDuration,
    /// Time the migrant spent stalled on remote pages.
    pub stall_time: SimDuration,
    /// Online distribution of per-fault stall times, feeding the p99
    /// SLO dimension. Excluded from the fingerprint (like `trace` and
    /// `phases`): it is a projection of the stalls already digested
    /// through `stall_time`.
    pub stall_sketch: QuantileSketch,

    /// Page faults taken on the destination (any kind).
    pub faults_total: u64,
    /// Remote paging requests that carried a demanded (faulted) page —
    /// the "number of page fault requests" of Figure 7.
    pub fault_requests: u64,
    /// Requests that carried only prefetch pages.
    pub prefetch_only_requests: u64,
    /// Pages fetched on demand (the faulted page itself).
    pub pages_demand_fetched: u64,
    /// Pages delivered by prefetching (Figure 8's numerator).
    pub pages_prefetched: u64,
    /// Prefetched pages that were installed and then actually touched.
    pub prefetched_pages_used: u64,
    /// Pages created locally by first-touch allocation.
    pub pages_local_alloc: u64,
    /// System calls forwarded to the home-node deputy.
    pub syscalls_forwarded: u64,
    /// Wall time spent blocked on forwarded system calls.
    pub syscall_time: SimDuration,
    /// Pages evicted under memory pressure (pushed back to the origin).
    pub pages_evicted: u64,

    /// Bytes received by the destination over the run (replies + bulk).
    pub bytes_to_dest: u64,
    /// Bytes sent by the destination (requests, control).
    pub bytes_from_dest: u64,
    /// MPT bytes shipped at freeze (AMPoM only).
    pub mpt_bytes: u64,

    /// Cumulative time spent in AMPoM's dependent-zone analysis
    /// (Figure 11's numerator).
    pub analysis_time: SimDuration,
    /// Number of analyses executed.
    pub analysis_count: u64,
    /// Prefetcher-internal statistics (scores, N distribution).
    pub prefetch_stats: PrefetchStats,

    /// Fault-injection and recovery counters (all zero without faults).
    pub faults: FaultStats,
    /// Deputy saturation counters.
    pub deputy: DeputyStats,
    /// Writeback-engine counters (all zero for a forward-only run
    /// without writeback).
    pub writeback: WritebackStats,

    /// Optional event timeline (Figure 2).
    pub trace: Trace,
    /// Optional sampled time series (enable with
    /// `RunConfig::sample_series`).
    pub series: Option<RunSeries>,
    /// Where every nanosecond of the simulated clock went. The disjoint
    /// phases sum exactly to `total_time` for reports produced by the
    /// core run loops. Excluded from the fingerprint (like `trace` and
    /// `series`): it is a projection of the clock advances already
    /// digested through the aggregate times.
    pub phases: PhaseBreakdown,
}

/// Sampled time series over one run, for timeline plots: how the
/// in-flight pipeline, resident set and prefetch aggressiveness evolve.
#[derive(Debug, Default)]
pub struct RunSeries {
    /// Pages in flight (requested, not yet arrived).
    pub in_flight: TimeSeries,
    /// Resident pages at the destination.
    pub resident: TimeSeries,
    /// The zone budget chosen at sampled faults.
    pub zone_budget: TimeSeries,
    /// Reply-link utilisation since the start of the run.
    pub link_utilization: TimeSeries,
}

impl RunReport {
    /// A stable 64-bit digest of every exact measurement in the report
    /// (times in nanoseconds, all counters, byte totals). Two runs with
    /// identical simulated behaviour produce identical fingerprints, so
    /// parallel-vs-serial sweep determinism reduces to an integer
    /// comparison. Floating-point derived stats, the trace, and sampled
    /// series are deliberately excluded: they are projections of the
    /// fields already digested.
    pub fn fingerprint(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            // splitmix64 finalizer over the running state.
            let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut h = 0xA3_70_4D_u64;
        h = mix(h, self.scheme as u64);
        for b in self.workload.as_bytes() {
            h = mix(h, u64::from(*b));
        }
        for v in [
            self.program_mb,
            self.freeze_time.as_nanos(),
            self.total_time.as_nanos(),
            self.compute_time.as_nanos(),
            self.stall_time.as_nanos(),
            self.faults_total,
            self.fault_requests,
            self.prefetch_only_requests,
            self.pages_demand_fetched,
            self.pages_prefetched,
            self.prefetched_pages_used,
            self.pages_local_alloc,
            self.syscalls_forwarded,
            self.syscall_time.as_nanos(),
            self.pages_evicted,
            self.bytes_to_dest,
            self.bytes_from_dest,
            self.mpt_bytes,
            self.analysis_time.as_nanos(),
            self.analysis_count,
            self.faults.retries,
            self.faults.timeouts,
            self.faults.duplicate_replies,
            self.faults.messages_dropped,
            self.faults.deputy_unavailable,
            self.faults.reconnects,
            self.faults.fallback_pages,
            u64::from(self.faults.remigrated),
            self.faults.recovery_time.as_nanos(),
            self.deputy.queued_requests,
            self.deputy.max_backlog.as_nanos(),
            self.deputy.busy_time.as_nanos(),
        ] {
            h = mix(h, v);
        }
        // Writeback counters joined the report after the golden tables
        // were pinned; a forward-only run leaves them at default and its
        // fingerprint unchanged, while any writeback activity is digested.
        // The zeros stand where the redirty and MPT-replica counters were,
        // which forward runs always left at zero: the sequence stays the
        // one perfbench's pinned writeback-on fingerprints digest.
        if self.writeback != WritebackStats::default() {
            let w = &self.writeback;
            for v in [
                w.writes_noted,
                0,
                w.batches_sent,
                w.pages_written_back,
                w.retransmits,
                w.duplicate_batches,
                w.duplicate_pages,
                w.writeback_bytes,
                w.flush_time.as_nanos(),
                0,
                0,
                0,
            ] {
                h = mix(h, v);
            }
        }
        h
    }

    /// Prefetched pages per page-fault request — the Figure 8 metric.
    pub fn prefetched_per_fault(&self) -> f64 {
        if self.fault_requests == 0 {
            0.0
        } else {
            self.pages_prefetched as f64 / self.fault_requests as f64
        }
    }

    /// Analysis overhead as a fraction of total execution time — the
    /// Figure 11 metric.
    pub fn analysis_overhead_fraction(&self) -> f64 {
        let total = self.total_time.as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            self.analysis_time.as_secs_f64() / total
        }
    }

    /// Fraction of this run's fault requests avoided relative to a
    /// baseline run (Figure 7's headline percentages: AMPoM vs NoPrefetch).
    pub fn fault_prevention_vs(&self, baseline: &RunReport) -> f64 {
        if baseline.fault_requests == 0 {
            return 0.0;
        }
        1.0 - self.fault_requests as f64 / baseline.fault_requests as f64
    }

    /// Percentage increase of total execution time relative to a baseline
    /// run (Figure 9's y axis).
    pub fn exec_increase_vs(&self, baseline: &RunReport) -> f64 {
        let b = baseline.total_time.as_secs_f64();
        if b <= 0.0 {
            return 0.0;
        }
        (self.total_time.as_secs_f64() - b) / b * 100.0
    }

    /// Fraction of prefetched pages that were eventually used (prefetch
    /// accuracy; the paper argues AMPoM avoids excessive prefetching).
    pub fn prefetch_accuracy(&self) -> f64 {
        if self.pages_prefetched == 0 {
            return 1.0;
        }
        self.prefetched_pages_used as f64 / self.pages_prefetched as f64
    }

    /// Prefetch coverage: the fraction of remotely needed pages that the
    /// prefetcher delivered ahead of demand,
    /// `used / (used + demand-fetched)`. 0 when nothing was fetched
    /// remotely. The `profile` and `bakeoff` reports both use this helper
    /// rather than re-deriving the ratio.
    pub fn coverage(&self) -> f64 {
        let needed = self.prefetched_pages_used + self.pages_demand_fetched;
        if needed == 0 {
            return 0.0;
        }
        self.prefetched_pages_used as f64 / needed as f64
    }

    /// Prefetch waste: the fraction of prefetched pages never touched,
    /// `1 − accuracy`. 0 when nothing was prefetched (no waste, rather
    /// than undefined).
    pub fn waste(&self) -> f64 {
        1.0 - self.prefetch_accuracy()
    }
}

impl MetricSource for FaultStats {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.export_counter(
            "ampom_fault_retries_total",
            "demand requests re-sent after a timeout",
            self.retries,
        );
        reg.export_counter(
            "ampom_fault_timeouts_total",
            "timeouts while waiting for a demanded page",
            self.timeouts,
        );
        reg.export_counter(
            "ampom_fault_duplicate_replies_total",
            "replies suppressed because the page was already installed",
            self.duplicate_replies,
        );
        reg.export_counter(
            "ampom_fault_messages_dropped_total",
            "requests or replies lost in flight",
            self.messages_dropped,
        );
        reg.export_counter(
            "ampom_fault_deputy_unavailable_total",
            "requests that found the deputy down",
            self.deputy_unavailable,
        );
        reg.export_counter(
            "ampom_fault_reconnects_total",
            "retry budgets exhausted (failure policy invoked)",
            self.reconnects,
        );
        reg.export_counter(
            "ampom_fault_fallback_pages_total",
            "pages installed by the eager-fallback policy",
            self.fallback_pages,
        );
        reg.export_gauge(
            "ampom_fault_remigrated",
            "1 if the run ended with a remigration home",
            if self.remigrated { 1.0 } else { 0.0 },
        );
        reg.export_gauge(
            "ampom_fault_recovery_seconds",
            "time spent in failure-policy recovery",
            self.recovery_time.as_secs_f64(),
        );
    }
}

impl MetricSource for DeputyStats {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.export_counter(
            "ampom_deputy_queued_requests_total",
            "requests that arrived while the deputy was busy",
            self.queued_requests,
        );
        reg.export_gauge(
            "ampom_deputy_max_backlog_seconds",
            "largest backlog any request saw at arrival",
            self.max_backlog.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_deputy_busy_seconds",
            "deputy CPU time across parsing, page service and syscalls",
            self.busy_time.as_secs_f64(),
        );
        reg.export_counter(
            "ampom_shed_prefetch_pages_total",
            "prefetch pages refused by admission control",
            self.prefetch_pages_shed,
        );
        reg.export_counter(
            "ampom_shed_demand_pages_total",
            "demand pages refused by admission control",
            self.demand_pages_shed,
        );
        reg.export_counter(
            "ampom_shed_events_total",
            "requests with at least one page shed",
            self.shed_events,
        );
        reg.export_counter(
            "ampom_shed_hellos_deferred_total",
            "Hellos deferred by the hysteresis admission gate",
            self.hellos_deferred,
        );
    }
}

impl MetricSource for WritebackStats {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.export_counter(
            "ampom_writeback_writes_noted_total",
            "dirtying stores observed by the write-set",
            self.writes_noted,
        );
        reg.export_counter(
            "ampom_writeback_batches_total",
            "delta batches sent toward the home node",
            self.batches_sent,
        );
        reg.export_counter(
            "ampom_writeback_pages_total",
            "page entries carried by writeback batches",
            self.pages_written_back,
        );
        reg.export_counter(
            "ampom_writeback_retransmits_total",
            "batches retransmitted after loss or outage",
            self.retransmits,
        );
        reg.export_counter(
            "ampom_writeback_duplicate_batches_total",
            "batches deduplicated by sequence number at the sink",
            self.duplicate_batches,
        );
        reg.export_counter(
            "ampom_writeback_duplicate_pages_total",
            "page entries skipped by the sink's version compare",
            self.duplicate_pages,
        );
        reg.export_counter(
            "ampom_writeback_bytes_total",
            "writeback bytes charged against the request link",
            self.writeback_bytes,
        );
        reg.export_gauge(
            "ampom_writeback_flush_seconds",
            "time from each batch's send to its ack, summed",
            self.flush_time.as_secs_f64(),
        );
    }
}

impl MetricSource for PrefetchStats {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.export_counter(
            "ampom_prefetch_analyses_total",
            "fault analyses performed",
            self.analyses,
        );
        reg.export_counter(
            "ampom_prefetch_pages_selected_total",
            "pages selected for prefetch",
            self.pages_selected,
        );
        reg.export_counter(
            "ampom_prefetch_fallbacks_total",
            "analyses that fell back to baseline read-ahead",
            self.fallbacks,
        );
        reg.export_counter(
            "ampom_prefetch_score_clamps_total",
            "analyses where the Eq. 1 clamp fired",
            self.score_clamps,
        );
        reg.export_gauge(
            "ampom_prefetch_score_mean",
            "mean spatial locality score",
            self.scores.mean(),
        );
        reg.export_gauge(
            "ampom_prefetch_zone_budget_mean",
            "mean applied zone budget",
            self.budgets.mean(),
        );
    }
}

impl MetricSource for RunReport {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.export_gauge(
            "ampom_run_total_seconds",
            "total execution time after migration",
            self.total_time.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_run_freeze_seconds",
            "migration freeze time",
            self.freeze_time.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_run_compute_seconds",
            "CPU time the workload computed",
            self.compute_time.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_run_stall_seconds",
            "time stalled on remote pages",
            self.stall_time.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_run_syscall_seconds",
            "time blocked on forwarded system calls",
            self.syscall_time.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_run_analysis_seconds",
            "time in dependent-zone analysis",
            self.analysis_time.as_secs_f64(),
        );
        reg.export_counter(
            "ampom_run_faults_total",
            "page faults taken on the destination",
            self.faults_total,
        );
        reg.export_counter(
            "ampom_run_fault_requests_total",
            "remote requests carrying a demanded page",
            self.fault_requests,
        );
        reg.export_counter(
            "ampom_run_pages_prefetched_total",
            "pages delivered by prefetching",
            self.pages_prefetched,
        );
        reg.export_counter(
            "ampom_run_prefetched_pages_used_total",
            "prefetched pages later touched",
            self.prefetched_pages_used,
        );
        reg.export_counter(
            "ampom_run_pages_demand_fetched_total",
            "pages fetched on demand",
            self.pages_demand_fetched,
        );
        reg.export_counter(
            "ampom_run_pages_evicted_total",
            "pages evicted under memory pressure",
            self.pages_evicted,
        );
        reg.export_counter(
            "ampom_run_syscalls_forwarded_total",
            "system calls forwarded to the deputy",
            self.syscalls_forwarded,
        );
        reg.export_counter(
            "ampom_run_bytes_to_dest_total",
            "bytes received by the destination",
            self.bytes_to_dest,
        );
        reg.export_counter(
            "ampom_run_bytes_from_dest_total",
            "bytes sent by the destination",
            self.bytes_from_dest,
        );
        self.phases.export_metrics(reg);
        self.prefetch_stats.export_metrics(reg);
        self.faults.export_metrics(reg);
        self.deputy.export_metrics(reg);
        self.writeback.export_metrics(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_sim::trace::Trace;

    fn report(fault_requests: u64, total_secs: u64) -> RunReport {
        RunReport {
            scheme: Scheme::Ampom,
            workload: "TEST".into(),
            program_mb: 100,
            freeze_time: SimDuration::from_millis(70),
            total_time: SimDuration::from_secs(total_secs),
            compute_time: SimDuration::from_secs(total_secs / 2),
            stall_time: SimDuration::ZERO,
            stall_sketch: QuantileSketch::default(),
            faults_total: fault_requests * 2,
            fault_requests,
            prefetch_only_requests: 0,
            pages_demand_fetched: fault_requests,
            pages_prefetched: fault_requests * 10,
            prefetched_pages_used: fault_requests * 9,
            pages_local_alloc: 0,
            syscalls_forwarded: 0,
            syscall_time: SimDuration::ZERO,
            pages_evicted: 0,
            bytes_to_dest: 0,
            bytes_from_dest: 0,
            mpt_bytes: 0,
            analysis_time: SimDuration::from_millis(100),
            analysis_count: fault_requests * 2,
            prefetch_stats: PrefetchStats::default(),
            faults: FaultStats::default(),
            deputy: DeputyStats::default(),
            writeback: WritebackStats::default(),
            trace: Trace::disabled(),
            series: None,
            phases: PhaseBreakdown::default(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report(100, 50);
        assert!((r.prefetched_per_fault() - 10.0).abs() < 1e-12);
        assert!((r.analysis_overhead_fraction() - 0.1 / 50.0).abs() < 1e-12);
        assert!((r.prefetch_accuracy() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn comparisons_against_baseline() {
        let ampom = report(100, 55);
        let nopf = report(1000, 50);
        assert!((ampom.fault_prevention_vs(&nopf) - 0.9).abs() < 1e-12);
        assert!((ampom.exec_increase_vs(&nopf) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = report(100, 50);
        let b = report(100, 50);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = report(100, 50);
        c.pages_prefetched += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = report(100, 50);
        d.workload = "OTHER".into();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fingerprint_covers_fault_and_deputy_counters() {
        let a = report(100, 50);
        let mut b = report(100, 50);
        b.faults.retries = 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = report(100, 50);
        c.faults.recovery_time = SimDuration::from_micros(1);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = report(100, 50);
        d.deputy.queued_requests = 1;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_default_writeback_but_digests_activity() {
        // A defaulted WritebackStats must leave the fingerprint exactly
        // where it was before the field existed (the golden tables), while
        // any writeback activity must perturb it.
        let a = report(100, 50);
        assert_eq!(a.writeback, WritebackStats::default());
        let mut b = report(100, 50);
        b.writeback.pages_written_back = 3;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = report(100, 50);
        c.writeback.retransmits = 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(b.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_observability_projections() {
        let a = report(100, 50);
        let mut b = report(100, 50);
        // The phase breakdown, trace and series are projections of already
        // digested quantities — they must not perturb the fingerprint.
        b.phases.compute = SimDuration::from_secs(25);
        b.phases.fault_stall = SimDuration::from_secs(25);
        b.trace = Trace::enabled();
        b.series = Some(RunSeries::default());
        // Likewise the stall sketch (a projection of stall_time) and the
        // shed counters (service that did NOT happen).
        b.stall_sketch.record(SimDuration::from_micros(500));
        b.deputy.prefetch_pages_shed = 7;
        b.deputy.shed_events = 3;
        b.deputy.hellos_deferred = 1;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn run_report_exports_metrics_under_convention() {
        let r = report(100, 50);
        let mut reg = MetricsRegistry::new();
        r.export_metrics(&mut reg);
        assert_eq!(
            reg.counter_value("ampom_run_fault_requests_total"),
            Some(100)
        );
        assert_eq!(reg.gauge_value("ampom_run_total_seconds"), Some(50.0));
        assert_eq!(reg.counter_value("ampom_fault_retries_total"), Some(0));
        assert!(reg.gauge_value("ampom_phase_freeze_seconds").is_some());
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE ampom_run_faults_total counter"));
        // Every metric obeys the ampom_ prefix convention.
        for line in text.lines() {
            if !line.starts_with('#') && !line.is_empty() {
                assert!(line.starts_with("ampom_"), "bad metric line: {line}");
            }
        }
    }

    #[test]
    fn degenerate_inputs_do_not_divide_by_zero() {
        let mut r = report(0, 0);
        r.pages_prefetched = 0;
        assert_eq!(r.prefetched_per_fault(), 0.0);
        assert_eq!(r.analysis_overhead_fraction(), 0.0);
        assert_eq!(r.prefetch_accuracy(), 1.0);
        let base = report(0, 0);
        assert_eq!(r.fault_prevention_vs(&base), 0.0);
        assert_eq!(r.exec_increase_vs(&base), 0.0);
        assert_eq!(r.coverage(), 0.0);
        assert_eq!(r.waste(), 0.0);
    }

    #[test]
    fn coverage_accuracy_and_waste_are_consistent() {
        // report(): 10 prefetched and 9 used per fault, 1 demand fetch.
        let r = report(100, 50);
        assert!((r.prefetch_accuracy() - 0.9).abs() < 1e-12);
        assert!((r.waste() - 0.1).abs() < 1e-12);
        assert!((r.coverage() - 900.0 / 1000.0).abs() < 1e-12);
    }
}
