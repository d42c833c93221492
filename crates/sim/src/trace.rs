//! Event tracing.
//!
//! A [`Trace`] records timestamped, structured events from a simulation run.
//! It backs the Figure 2 migration-timeline reproduction (`hpcc-repro fig2`),
//! the `hpcc-repro profile` phase report, and is invaluable when debugging
//! protocol interleavings. Tracing is off by default ([`Trace::disabled`])
//! and costs one branch per event when off.
//!
//! Payloads are typed ([`TraceData`]): the quantities a policy decision
//! depends on — page id, zone size `N`, score `S`, paging rate `r`, RTT
//! sample, retry count — travel as plain numbers, not pre-rendered strings.
//! That keeps the hot fault path allocation-free (building a `TraceData` of
//! numeric fields is a handful of register moves) and lets consumers filter
//! and aggregate without parsing. Sites that want a free-form annotation use
//! [`Trace::record_with`], whose closure only runs when the trace is live.

use std::fmt;

use crate::time::SimTime;

/// Category of a traced event, mirroring the phases drawn in the paper's
/// Figure 2 timelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Migration initiated; process frozen on the original node.
    FreezeBegin,
    /// Process state + initial pages fully transferred; execution resumes.
    FreezeEnd,
    /// A batch of pages sent from the original node.
    PagesSent,
    /// A batch of pages arrived at the destination.
    PagesArrived,
    /// The migrant took a page fault.
    PageFault,
    /// A remote paging / prefetch request was issued.
    PagingRequest,
    /// The migrant resumed after a fault stall.
    FaultResolved,
    /// FFA only: dirty pages flushed to the file server.
    FileServerFlush,
    /// A system call was forwarded to the home node.
    SyscallForwarded,
    /// The workload ran to completion.
    WorkloadDone,
    /// One adaptive-zone analysis: the inputs and output of Eq. 3 for a
    /// single fault (score `S`, rate `r`, raw and budgeted zone size `N`).
    ZoneAnalysis,
    /// The Eq. 1 spatial score exceeded 1.0 before clamping — a
    /// repeated-page window that would otherwise be silently normalized.
    ScoreClamped,
    /// Live transport: a socket connection to the deputy was established
    /// (initial dial or the calibration handshake).
    LiveConnect,
    /// Live transport: a demand request timed out and was resent.
    LiveRetry,
    /// Live transport: the connection was re-dialled after a drop or a
    /// retry-budget exhaustion.
    LiveReconnect,
    /// Live transport: an overloaded deputy shed prefetch pages (a
    /// non-fatal 503) and the client reverted them to the origin.
    LiveShed,
    /// A writeback delta batch left the migrant for the home node.
    WritebackFlush,
    /// A writeback batch (or its ack) was presumed lost and resent.
    WritebackRetransmit,
    /// The home-return migration froze the process on the remote node.
    ReturnFreeze,
    /// Pages that never left the home node (or whose contents were
    /// written back) became resident for free after the return.
    PagesFreedAtHome,
    /// Free-form annotation.
    Note,
}

impl TraceKind {
    /// The stable kebab-case name used in timelines and JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::FreezeBegin => "freeze-begin",
            TraceKind::FreezeEnd => "freeze-end",
            TraceKind::PagesSent => "pages-sent",
            TraceKind::PagesArrived => "pages-arrived",
            TraceKind::PageFault => "page-fault",
            TraceKind::PagingRequest => "paging-request",
            TraceKind::FaultResolved => "fault-resolved",
            TraceKind::FileServerFlush => "file-server-flush",
            TraceKind::SyscallForwarded => "syscall-forwarded",
            TraceKind::WorkloadDone => "workload-done",
            TraceKind::ZoneAnalysis => "zone-analysis",
            TraceKind::ScoreClamped => "score-clamped",
            TraceKind::LiveConnect => "live-connect",
            TraceKind::LiveRetry => "live-retry",
            TraceKind::LiveReconnect => "live-reconnect",
            TraceKind::LiveShed => "live-shed",
            TraceKind::WritebackFlush => "writeback-flush",
            TraceKind::WritebackRetransmit => "writeback-retransmit",
            TraceKind::ReturnFreeze => "return-freeze",
            TraceKind::PagesFreedAtHome => "pages-freed-at-home",
            TraceKind::Note => "note",
        }
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Structured payload of one traced event.
///
/// Every field is optional; an event carries exactly the quantities its
/// site knows. All-numeric payloads allocate nothing, so hot paths (one
/// event per page fault) stay cheap even with tracing on, and cost one
/// branch with it off.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// The page the event concerns.
    pub page: Option<u64>,
    /// A page count (batch size, prefetch zone length, …).
    pub pages: Option<u64>,
    /// A byte count (transfer sizes).
    pub bytes: Option<u64>,
    /// The applied zone budget `N` after rounding and clamping.
    pub zone: Option<u64>,
    /// The spatial score `S` (post-clamp).
    pub score: Option<f64>,
    /// An unclamped raw value backing `score` or `zone` (Eq. 1 raw sum,
    /// Eq. 3 raw `N`).
    pub raw: Option<f64>,
    /// The paging rate `r` in faults/second.
    pub rate: Option<f64>,
    /// A round-trip-time sample in nanoseconds.
    pub rtt_ns: Option<u64>,
    /// A retry attempt count.
    pub retry: Option<u64>,
    /// Free-form annotation. The only allocating field — prefer
    /// [`Trace::record_with`] when attaching one on a hot path.
    pub note: Option<String>,
}

impl TraceData {
    /// An empty payload.
    pub fn empty() -> Self {
        TraceData::default()
    }

    /// A payload carrying just a page id.
    pub fn page(page: u64) -> Self {
        TraceData {
            page: Some(page),
            ..TraceData::default()
        }
    }

    /// A payload carrying just a page count.
    pub fn pages(pages: u64) -> Self {
        TraceData {
            pages: Some(pages),
            ..TraceData::default()
        }
    }

    /// A payload carrying just a note.
    pub fn note(note: impl Into<String>) -> Self {
        TraceData {
            note: Some(note.into()),
            ..TraceData::default()
        }
    }

    /// Sets the page id.
    pub fn with_page(mut self, page: u64) -> Self {
        self.page = Some(page);
        self
    }

    /// Sets the page count.
    pub fn with_pages(mut self, pages: u64) -> Self {
        self.pages = Some(pages);
        self
    }

    /// Sets the byte count.
    pub fn with_bytes(mut self, bytes: u64) -> Self {
        self.bytes = Some(bytes);
        self
    }

    /// Sets the applied zone budget.
    pub fn with_zone(mut self, zone: u64) -> Self {
        self.zone = Some(zone);
        self
    }

    /// Sets the spatial score.
    pub fn with_score(mut self, score: f64) -> Self {
        self.score = Some(score);
        self
    }

    /// Sets the raw (unclamped) value.
    pub fn with_raw(mut self, raw: f64) -> Self {
        self.raw = Some(raw);
        self
    }

    /// Sets the paging rate.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = Some(rate);
        self
    }

    /// Sets the RTT sample.
    pub fn with_rtt_ns(mut self, rtt_ns: u64) -> Self {
        self.rtt_ns = Some(rtt_ns);
        self
    }

    /// Sets the retry count.
    pub fn with_retry(mut self, retry: u64) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Sets the note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    /// True when no field is set.
    pub fn is_empty(&self) -> bool {
        *self == TraceData::default()
    }
}

impl fmt::Display for TraceData {
    /// Renders set fields as `key=value` pairs; the note trails verbatim.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        let mut put = |f: &mut fmt::Formatter<'_>, s: fmt::Arguments<'_>| -> fmt::Result {
            f.write_str(sep)?;
            sep = " ";
            f.write_fmt(s)
        };
        if let Some(v) = self.page {
            put(f, format_args!("page={v}"))?;
        }
        if let Some(v) = self.pages {
            put(f, format_args!("pages={v}"))?;
        }
        if let Some(v) = self.bytes {
            put(f, format_args!("bytes={v}"))?;
        }
        if let Some(v) = self.zone {
            put(f, format_args!("zone={v}"))?;
        }
        if let Some(v) = self.score {
            put(f, format_args!("score={v:.4}"))?;
        }
        if let Some(v) = self.raw {
            put(f, format_args!("raw={v:.4}"))?;
        }
        if let Some(v) = self.rate {
            put(f, format_args!("rate={v:.1}"))?;
        }
        if let Some(v) = self.rtt_ns {
            put(f, format_args!("rtt_ns={v}"))?;
        }
        if let Some(v) = self.retry {
            put(f, format_args!("retry={v}"))?;
        }
        if let Some(v) = &self.note {
            put(f, format_args!("{v}"))?;
        }
        Ok(())
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// When the event happened on the simulated clock.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// Structured detail (page ids, zone sizes, scores, …).
    pub data: TraceData,
}

/// A bounded, optionally-disabled event recorder.
#[derive(Debug)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Default cap on retained events; enough for any single migration
    /// timeline while bounding memory on multi-minute runs.
    pub const DEFAULT_CAPACITY: usize = 100_000;

    /// An enabled trace with the default capacity.
    pub fn enabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
            capacity: Self::DEFAULT_CAPACITY,
            dropped: 0,
        }
    }

    /// An enabled trace retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
            capacity,
            dropped: 0,
        }
    }

    /// A disabled trace: `record` is a no-op.
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
            capacity: 0,
            dropped: 0,
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled; drops when at capacity).
    #[inline]
    pub fn record(&mut self, at: SimTime, kind: TraceKind, data: TraceData) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent { at, kind, data });
    }

    /// Records an event whose payload is built lazily: `make` runs only
    /// when the trace is enabled and below capacity. Use this for payloads
    /// that allocate (notes), so a disabled trace stays strictly one
    /// branch per event.
    #[inline]
    pub fn record_with(&mut self, at: SimTime, kind: TraceKind, make: impl FnOnce() -> TraceData) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent {
            at,
            kind,
            data: make(),
        });
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of one kind, in order.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// The first event of `kind`, if any.
    pub fn first_of(&self, kind: TraceKind) -> Option<&TraceEvent> {
        self.of_kind(kind).next()
    }

    /// Number of events dropped after hitting capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the trace as an aligned text timeline (Figure 2 style).
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!(
                "{:>14}  {:<18} {}\n",
                format!("{:.6}s", e.at.as_secs_f64()),
                e.kind.to_string(),
                e.data
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("... ({} events dropped)\n", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn records_in_order_and_filters() {
        let mut tr = Trace::enabled();
        let t0 = SimTime::ZERO;
        tr.record(t0, TraceKind::FreezeBegin, TraceData::note("pid 1"));
        tr.record(
            t0 + SimDuration::from_millis(1),
            TraceKind::PagesSent,
            TraceData::pages(3),
        );
        tr.record(
            t0 + SimDuration::from_millis(2),
            TraceKind::FreezeEnd,
            TraceData::empty(),
        );
        assert_eq!(tr.events().len(), 3);
        assert_eq!(tr.of_kind(TraceKind::PagesSent).count(), 1);
        assert_eq!(
            tr.first_of(TraceKind::FreezeBegin).unwrap().data.note,
            Some("pid 1".to_string())
        );
        assert_eq!(
            tr.first_of(TraceKind::PagesSent).unwrap().data.pages,
            Some(3)
        );
        assert!(tr.first_of(TraceKind::PageFault).is_none());
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::disabled();
        tr.record(SimTime::ZERO, TraceKind::Note, TraceData::note("ignored"));
        tr.record_with(SimTime::ZERO, TraceKind::Note, || {
            panic!("payload closure must not run on a disabled trace")
        });
        assert!(tr.events().is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn capacity_bounds_memory() {
        let mut tr = Trace::with_capacity(2);
        for i in 0..5 {
            tr.record(SimTime::from_nanos(i), TraceKind::Note, TraceData::empty());
        }
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.dropped(), 3);
        assert!(tr.render_timeline().contains("3 events dropped"));
    }

    #[test]
    fn timeline_renders_every_event() {
        let mut tr = Trace::enabled();
        tr.record(
            SimTime::ZERO,
            TraceKind::FreezeBegin,
            TraceData::note("start"),
        );
        tr.record(
            SimTime::ZERO + SimDuration::from_secs(1),
            TraceKind::WorkloadDone,
            TraceData::empty(),
        );
        let text = tr.render_timeline();
        assert!(text.contains("freeze-begin"));
        assert!(text.contains("workload-done"));
        assert!(text.contains("1.000000s"));
    }

    #[test]
    fn structured_payload_renders_key_value_pairs() {
        let data = TraceData::page(42)
            .with_zone(16)
            .with_score(0.953_21)
            .with_rate(1234.56)
            .with_rtt_ns(250_000)
            .with_retry(2);
        let text = data.to_string();
        assert_eq!(
            text,
            "page=42 zone=16 score=0.9532 rate=1234.6 rtt_ns=250000 retry=2"
        );
        assert!(TraceData::empty().to_string().is_empty());
        assert!(TraceData::empty().is_empty());
        assert!(!data.is_empty());
    }

    #[test]
    fn lazy_record_runs_closure_only_when_live() {
        let mut tr = Trace::with_capacity(1);
        tr.record_with(SimTime::ZERO, TraceKind::Note, || TraceData::note("first"));
        // At capacity: the closure must not run, only the drop counter moves.
        tr.record_with(SimTime::ZERO, TraceKind::Note, || {
            panic!("payload closure must not run past capacity")
        });
        assert_eq!(tr.events().len(), 1);
        assert_eq!(tr.dropped(), 1);
    }
}
