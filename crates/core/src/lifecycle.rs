//! The bidirectional page lifecycle: writeback and the home-return
//! migration path.
//!
//! Forward migration (the rest of this crate) only ever moves pages
//! *toward* the migrant. This module closes the loop:
//!
//! * a **writeback engine** ([`ForwardWriteback`]) promotes the dirty bit
//!   to a versioned write-set ([`ampom_mem::writeback`]); dirty pages flow
//!   home in delta batches budgeted against the reply link. The
//!   transport carries each batch; [`SimulatedTransport`] resends it
//!   through message loss, jitter and deputy outages (see
//!   [`crate::reliability`]) until its sink has applied it and acked;
//! * a **home-return path** runs the 3-page + MPT freeze in reverse:
//!   pages the migrant never fetched are free at home (§2.2 — the origin
//!   only deletes a page when it is transferred), pages whose contents
//!   were written back are flipped home ([`PageTablePair::return_to_origin`])
//!   before the return freeze, and the remote node keeps a deputy stub for
//!   the pages it still exclusively holds.
//!
//! [`run_lifecycle`] is the engine. Its away and home legs are the one
//! migrant loop every forward run uses, over one [`SimulatedTransport`].
//! With [`RunConfig::writeback`] off nothing flows home until the
//! return: the analytic round trip of the paper's "migrated again" case
//! (§1), which the `ext-roundtrip` experiment reports. Eager openMosix
//! then hauls the whole footprint back during the return freeze, while
//! AMPoM moves three pages and the MPT and demand-pages the rest.
//! Forward runs use the same engine when [`RunConfig::writeback`] asks
//! for it; default runs leave it off and stay bit-identical to the
//! golden fingerprints.

use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_mem::space::PageState;
use ampom_mem::table::{PageLocation, PageTablePair};
use ampom_mem::writeback::{WriteSet, WritebackSink};
use ampom_net::calibration::{MIGRATION_BASE_COST, MPT_ENTRY_COST};
use ampom_obs::{MetricSource, MetricsRegistry};
use ampom_sim::time::{SimDuration, SimTime};
use ampom_sim::trace::{Trace, TraceData, TraceKind};
use ampom_workloads::compose::Prefix;
use ampom_workloads::memref::Workload;

use crate::cluster::NetPath;
use crate::error::AmpomError;
use crate::metrics::{RunReport, WritebackStats};
use crate::migration::Scheme;
use crate::policy::Prefetcher;
use crate::reliability::FailurePolicy;
use crate::runner::RunConfig;
use crate::transport::{
    drive, drive_from, new_policy, new_trace, run_solo, Destination, Leg, LegStart,
    SimulatedTransport,
};

/// Wire overhead of one writeback batch: length, type, sequence number
/// and entry count (mirrors the v4 `WritebackBatch` frame header).
pub const WRITEBACK_HEADER_BYTES: u64 = 17;

/// Per-entry overhead on top of the page contents: page id + version.
pub const WRITEBACK_ENTRY_OVERHEAD: u64 = 16;

/// Bytes one writeback batch of `pages` entries occupies on the wire.
pub fn writeback_batch_bytes(pages: usize) -> u64 {
    WRITEBACK_HEADER_BYTES + pages as u64 * (WRITEBACK_ENTRY_OVERHEAD + PAGE_SIZE)
}

/// Background-writeback tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritebackSpec {
    /// Flush cadence: build and send delta batches every this many remote
    /// faults (the fault handler is the natural background hook — the
    /// migrant is stalled anyway).
    pub flush_every_faults: u64,
    /// Cap on pages per delta batch, so a flush never monopolises the
    /// link (matches the v4 wire cap).
    pub max_batch_pages: usize,
}

impl Default for WritebackSpec {
    fn default() -> Self {
        WritebackSpec {
            flush_every_faults: 8,
            max_batch_pages: 64,
        }
    }
}

impl WritebackSpec {
    /// Checks every knob against its documented domain.
    pub fn validate(&self) -> Result<(), AmpomError> {
        if self.flush_every_faults == 0 {
            return Err(AmpomError::InvalidConfig(
                "writeback.flush_every_faults must be positive".into(),
            ));
        }
        if self.max_batch_pages == 0 {
            return Err(AmpomError::InvalidConfig(
                "writeback.max_batch_pages must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Closed-form per-migration costs for cluster-scale composition.
///
/// [`run_lifecycle`] simulates one migrant's out → dirty → writeback →
/// return chain page by page. A 1000-node cluster-life engine cannot
/// afford that per job, so it charges this analytic model built from the
/// *same* constants: outbound freezes from
/// [`crate::migration::freeze_time`], return traffic from the dirty
/// footprint via [`writeback_batch_bytes`] (the home-return merge only
/// ships pages the away phase dirtied — clean pages are free at home,
/// §2.2), and the return freeze as the scheme's freeze over that dirty
/// footprint. The two layers therefore stay calibrated against each
/// other by construction, which `cost_model_tracks_lifecycle_constants`
/// pins.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleCostModel {
    /// The migration mechanism.
    pub scheme: Scheme,
    /// Writeback batching knobs (set the return wire overhead).
    pub writeback: WritebackSpec,
}

impl LifecycleCostModel {
    /// A model for `scheme` with default writeback batching.
    pub fn new(scheme: Scheme) -> Self {
        LifecycleCostModel {
            scheme,
            writeback: WritebackSpec::default(),
        }
    }

    /// Freeze paid when the job leaves home (or remigrates): the Figure 5
    /// calibration for the scheme.
    pub fn outbound_freeze(&self, memory_mb: u64) -> SimDuration {
        crate::migration::freeze_time(self.scheme, memory_mb)
    }

    /// Pages the away phase dirtied and the return must reconcile.
    pub fn dirty_pages(&self, memory_mb: u64, dirty_fraction: f64) -> u64 {
        let pages = memory_mb * 1024 * 1024 / PAGE_SIZE;
        (pages as f64 * dirty_fraction.clamp(0.0, 1.0)).ceil() as u64
    }

    /// Bytes the home-return ships: the dirty pages in writeback batches
    /// of at most `max_batch_pages`, each paying the batch header and
    /// per-entry overhead. Eager openMosix has no writeback channel — its
    /// return re-ships the whole footprint, exactly like the outbound
    /// copy.
    pub fn return_bytes(&self, memory_mb: u64, dirty_fraction: f64) -> u64 {
        match self.scheme {
            Scheme::OpenMosix => memory_mb * 1024 * 1024,
            Scheme::Ampom | Scheme::NoPrefetch | Scheme::Ffa => {
                let dirty = self.dirty_pages(memory_mb, dirty_fraction);
                let cap = self.writeback.max_batch_pages as u64;
                let batches = dirty.div_ceil(cap.max(1));
                dirty * (PAGE_SIZE + WRITEBACK_ENTRY_OVERHEAD) + batches * WRITEBACK_HEADER_BYTES
            }
        }
    }

    /// Software freeze paid at return: the scheme's freeze over the dirty
    /// footprint only (pages never touched away are free at home).
    pub fn return_freeze(&self, memory_mb: u64, dirty_fraction: f64) -> SimDuration {
        let dirty_mb =
            (self.dirty_pages(memory_mb, dirty_fraction) * PAGE_SIZE).div_ceil(1024 * 1024);
        crate::migration::freeze_time(self.scheme, dirty_mb.max(1))
    }
}

/// Measurements of one lifecycle run.
#[derive(Debug)]
pub struct LifecycleReport {
    /// Scheme used for both hops.
    pub scheme: Scheme,
    /// Freeze time of the outbound migration.
    pub outbound_freeze: SimDuration,
    /// Freeze time of the return migration.
    pub return_freeze: SimDuration,
    /// Wall time of the whole run.
    pub total_time: SimDuration,
    /// Time executing on the remote node, including the wait for the
    /// last replies and the last writeback ack before the return.
    pub away_time: SimDuration,
    /// Time executing back home after the return freeze.
    pub home_time: SimDuration,
    /// Pages moved out to the remote node in the away phase.
    pub pages_fetched_remotely: u64,
    /// Remote-resident pages the return had to account for.
    pub pages_returned: u64,
    /// Pages resident for free after the return (never fetched, or their
    /// contents were written back before the freeze).
    pub pages_freed_at_home: u64,
    /// Pages the remote node's deputy stub still exclusively holds.
    pub stub_pages: u64,
    /// Distinct pages dirtied while away.
    pub pages_dirtied: u64,
    /// Distinct pages the home sink holds after the drain.
    pub sink_pages: u64,
    /// Deputy-sink restarts survived by the writeback protocol.
    pub sink_restarts: u64,
    /// True iff every dirtied page's final version was applied at the
    /// sink exactly once and nothing is left dirty.
    pub conservation_ok: bool,
    /// The away leg: the outbound freeze and the first `away_fraction`
    /// of the stream on the remote node, with its writeback counters.
    pub away: RunReport,
    /// The home leg: the return freeze and the rest of the stream, paged
    /// from the remote node's stub. The link and its byte counters are
    /// the run's, so `home.bytes_*` count both legs.
    pub home: RunReport,
    /// Events between the legs (enabled by `cfg.trace`): the return
    /// freeze and the pages freed at home. Each leg's own events are in
    /// its report's trace.
    pub trace: Trace,
}

impl LifecycleReport {
    /// Remote fault requests over both legs.
    pub fn fault_requests(&self) -> u64 {
        self.away.fault_requests + self.home.fault_requests
    }

    /// Remote fault requests in the away leg alone.
    pub fn away_fault_requests(&self) -> u64 {
        self.away.fault_requests
    }

    /// Panics unless the dirty-page conservation property held: the
    /// write-set drained and the sink holds exactly the final version of
    /// every dirtied page.
    pub fn check_conservation(&self) {
        assert!(
            self.conservation_ok,
            "dirty-page conservation violated: {} dirtied, {} at sink, \
             {} restarts survived",
            self.pages_dirtied, self.sink_pages, self.sink_restarts
        );
    }
}

impl MetricSource for LifecycleReport {
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.away.writeback.export_metrics(reg);
        reg.export_gauge(
            "ampom_lifecycle_outbound_freeze_seconds",
            "freeze time of the outbound migration",
            self.outbound_freeze.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_lifecycle_return_freeze_seconds",
            "freeze time of the home-return migration",
            self.return_freeze.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_lifecycle_pages_freed_at_home",
            "pages resident for free after the return",
            self.pages_freed_at_home as f64,
        );
        reg.export_gauge(
            "ampom_lifecycle_stub_pages",
            "pages the remote deputy stub still holds",
            self.stub_pages as f64,
        );
        reg.export_counter(
            "ampom_lifecycle_sink_restarts_total",
            "deputy-sink restarts survived by the writeback protocol",
            self.sink_restarts,
        );
        reg.export_counter(
            "ampom_lifecycle_pages_dirtied_total",
            "distinct pages dirtied while away",
            self.pages_dirtied,
        );
    }
}

// ---------------------------------------------------------------------
// The writeback engine.
// ---------------------------------------------------------------------

/// The migrant's writeback engine: the write-set and its flush cadence.
/// The migrant loop feeds it stores and faults, and ships each batch it
/// builds through [`crate::transport::Transport::writeback_batch`],
/// which settles the batch before the next store: the simulated
/// transport resolves the batch's whole fate chain when it sends it, and
/// its [`WritebackSink`] refuses what a resend repeats. So the engine
/// keeps no pending copy of a batch, counts every entry of a completed
/// batch as applied, and takes the resend and duplicate counts from the
/// transport.
#[derive(Debug)]
pub struct ForwardWriteback {
    spec: WritebackSpec,
    wset: WriteSet,
    faults_since_flush: u64,
    bytes: u64,
    flush_time: SimDuration,
    /// Page entries of every completed batch: each one applied.
    pages_applied: u64,
    /// When the last completed batch's ack reached the migrant.
    settled: SimTime,
    /// The batch being carried, reused by every flush.
    batch: Vec<(PageId, u64)>,
}

impl ForwardWriteback {
    /// A fresh engine under `spec`.
    pub fn new(spec: WritebackSpec) -> Self {
        ForwardWriteback {
            spec,
            wset: WriteSet::new(),
            faults_since_flush: 0,
            bytes: 0,
            flush_time: SimDuration::ZERO,
            pages_applied: 0,
            settled: SimTime::ZERO,
            batch: Vec::new(),
        }
    }

    /// Notes a dirtying touch (no-op when `write` is false).
    pub fn note_touch(&mut self, page: PageId, write: bool) {
        if write {
            self.wset.note_write(page);
        }
    }

    /// The fault-cadence hook; true when a flush is due.
    pub fn on_fault(&mut self) -> bool {
        self.faults_since_flush += 1;
        if self.faults_since_flush >= self.spec.flush_every_faults {
            self.faults_since_flush = 0;
            true
        } else {
            false
        }
    }

    /// Builds the next delta batch, if anything is dirty: its sequence
    /// number and entries. The carrier must settle it, and the caller
    /// [`Self::complete`] it, before the next store.
    pub fn take_batch(&mut self) -> Option<(u64, &[(PageId, u64)])> {
        let seq = self
            .wset
            .build_acked_batch(self.spec.max_batch_pages, &mut self.batch)?;
        Some((seq, &self.batch))
    }

    /// Completes the batch [`Self::take_batch`] returned last, which the
    /// carrier settled: counts its entries applied and accounts the wire
    /// cost.
    pub fn complete(&mut self, bytes: u64, sent_at: SimTime, acked_at: SimTime) {
        self.bytes += bytes;
        self.flush_time += acked_at.since(sent_at);
        self.pages_applied += self.batch.len() as u64;
        self.settled = self.settled.max(acked_at);
    }

    /// True while dirty pages await a final drain.
    pub fn has_dirty(&self) -> bool {
        self.wset.dirty_len() > 0
    }

    /// When the last completed batch settled.
    pub fn settled(&self) -> SimTime {
        self.settled
    }

    /// The run-report counters, with the resend and duplicate counts
    /// the carrier reported in `far` (see
    /// [`crate::transport::Transport::writeback_recovery`]).
    pub fn stats(&self, far: &WritebackStats) -> WritebackStats {
        WritebackStats {
            writes_noted: self.wset.counters.writes_noted,
            batches_sent: self.wset.counters.batches_built,
            pages_written_back: self.pages_applied,
            retransmits: far.retransmits,
            duplicate_batches: far.duplicate_batches,
            duplicate_pages: far.duplicate_pages,
            writeback_bytes: self.bytes,
            flush_time: self.flush_time,
        }
    }

    /// Conservation against `sink`: nothing is left dirty, and the sink
    /// holds exactly the final version of every page ever dirtied.
    fn conserved_at(&self, sink: &WritebackSink) -> bool {
        !self.has_dirty()
            && sink.pages_written_back() == self.wset.pages_dirtied()
            && self
                .wset
                .versions()
                .all(|(p, v)| sink.applied_version(p) == v)
    }
}

// ---------------------------------------------------------------------
// The lifecycle engine.
// ---------------------------------------------------------------------

/// Refuses at entry what the lifecycle cannot honour: an away fraction
/// outside (0, 1), an invalid `cfg`, FFA (its legs page from a deputy,
/// not a file server) and the remigrate failure policy (a leg that
/// migrates home by itself conflicts with the planned return).
fn refuse(cfg: &RunConfig, away_fraction: f64) -> Result<(), AmpomError> {
    if !(away_fraction > 0.0 && away_fraction < 1.0) {
        return Err(AmpomError::InvalidConfig(format!(
            "away_fraction must be in (0, 1), got {away_fraction}"
        )));
    }
    cfg.validate()?;
    if cfg.scheme == Scheme::Ffa {
        return Err(AmpomError::InvalidConfig(
            "the page lifecycle cannot run the FFA scheme: both legs page \
             from a deputy, not a file server"
                .into(),
        ));
    }
    if cfg
        .faults
        .as_ref()
        .is_some_and(|p| p.policy == FailurePolicy::Remigrate)
    {
        return Err(AmpomError::InvalidConfig(
            "the page lifecycle cannot run the remigrate failure policy: a \
             leg that migrates home by itself conflicts with the planned return"
                .into(),
        ));
    }
    Ok(())
}

/// Runs `workload` through the full lifecycle: outbound migration at t=0,
/// an away leg over the first `away_fraction` of the reference stream
/// (with background writeback when `cfg.writeback` asks for it), a
/// forced home-return, and a home leg over the rest of the stream.
///
/// Both legs are the one migrant loop over one [`SimulatedTransport`],
/// so they honour every [`RunConfig`] field: the away leg runs on the
/// remote node under `cfg.resident_limit_mb`; the home leg runs with
/// writeback off and no resident limit (the home node held the whole
/// image before it left), paging from the remote node's stub over the
/// same link and fault injector. Both keep the run's absolute clock, on
/// which a fault profile's outage timetable is written.
///
/// # Errors
/// [`AmpomError::InvalidConfig`] for an `away_fraction` outside (0, 1),
/// the FFA scheme or the remigrate failure policy; whatever
/// [`RunConfig::validate`] refuses.
pub fn run_lifecycle<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: &RunConfig,
    away_fraction: f64,
) -> Result<LifecycleReport, AmpomError> {
    refuse(cfg, away_fraction)?;
    let switch_at = ((workload.total_refs_hint() as f64 * away_fraction) as u64).max(1);
    let mut transport = SimulatedTransport::new(cfg);
    // The sink the conservation check compares the write-set against.
    transport.sink.get_or_insert_with(WritebackSink::new);

    // ---- Away leg: the first `switch_at` references, remotely. Each
    // leg starts a fresh policy, with an empty lookback window. ----
    let mut policy = new_policy(cfg);
    let Leg {
        report: away,
        mut dest,
        writeback,
    } = run_solo(drive(
        &mut Prefix::new(workload, switch_at),
        cfg,
        &mut transport,
        policy.as_deref_mut().map(|p| p as &mut dyn Prefetcher),
    ))?;
    let away_start = SimTime::ZERO + away.freeze_time;
    let mut now = SimTime::ZERO + away.total_time;

    // The kernel completes outstanding page I/O and writeback before
    // freezing: the last replies land, the last ack comes back.
    transport.install_in_flight(&mut now, &mut dest);
    if let Some(wb) = &writeback {
        now = now.max(wb.settled());
    }
    let remote_resident: Vec<PageId> = dest
        .space
        .pages_where(|s| matches!(s, PageState::Resident { .. }))
        .collect();
    let pages_returned = remote_resident.len() as u64;
    let pages_fetched_remotely = dest.table.pages_at_destination();
    let sink = transport.sink.as_ref().expect("the lifecycle keeps a sink");
    let (pages_dirtied, conservation_ok) = writeback.as_ref().map_or((0, true), |wb| {
        (wb.wset.pages_dirtied(), wb.conserved_at(sink))
    });
    let (sink_pages, sink_restarts) = (sink.pages_written_back(), sink.counters.restarts);
    // Pages whose contents came home flip back to origin storage — the
    // same `Both` transition any origin-departure reports, in reverse.
    for &page in sink.applied().keys() {
        if dest.table.lookup(page) == Some(PageLocation::Destination) {
            dest.table.return_to_origin(page);
        }
    }
    dest.table.check_invariants();
    let away_time = now.since(away_start);

    // ---- Return freeze. ----
    let mut trace = new_trace(cfg);
    let frozen_at = now;
    let (return_freeze, mpt_bytes) = price_return(
        cfg.scheme,
        pages_returned,
        &dest.table,
        &mut transport.path,
        now,
    );
    trace.record_with(now, TraceKind::ReturnFreeze, || TraceData {
        pages: Some(pages_returned),
        ..TraceData::default()
    });
    now += return_freeze;

    // ---- Role swap. ----
    // Remote-resident pages become remote (stored on the node we just
    // left, which keeps a deputy stub); origin-stored pages — the
    // never-fetched and the written-back — are local for free. Under
    // eager openMosix everything returned during the freeze.
    let mut space = dest.space;
    let mut pages_freed_at_home = 0u64;
    if cfg.scheme != Scheme::OpenMosix {
        for &p in &remote_resident {
            space.mark_remote(p);
        }
        let free_at_home: Vec<PageId> = space
            .pages_where(|s| s == PageState::Remote)
            .filter(|&p| dest.table.lookup(p) == Some(PageLocation::Origin))
            .collect();
        pages_freed_at_home = free_at_home.len() as u64;
        for p in free_at_home {
            space.install(p);
        }
    }
    trace.record_with(now, TraceKind::PagesFreedAtHome, || TraceData {
        pages: Some(pages_freed_at_home),
        ..TraceData::default()
    });

    // ---- Home leg: the rest of the stream, paged from the stub. ----
    let stub = PageTablePair::at_migration(space.pages_where(|s| s == PageState::Remote));
    let stub_pages = stub.mapped_pages();
    let (home_dest, _) = Destination::new(space, stub, None);
    let home_cfg = RunConfig {
        writeback: None,
        ..cfg.clone()
    };
    let mut transport = transport.into_return_leg();
    let mut policy = new_policy(cfg);
    let home = run_solo(drive_from(
        workload,
        &home_cfg,
        &mut transport,
        policy.as_deref_mut().map(|p| p as &mut dyn Prefetcher),
        LegStart {
            dest: home_dest,
            frozen_at,
            freeze_time: return_freeze,
            mpt_bytes,
            program_mb: away.program_mb,
            trace: new_trace(cfg),
        },
    ))?
    .report;

    Ok(LifecycleReport {
        scheme: cfg.scheme,
        outbound_freeze: away.freeze_time,
        return_freeze,
        total_time: (frozen_at + home.total_time).since(SimTime::ZERO),
        away_time,
        home_time: home.total_time - return_freeze,
        pages_fetched_remotely,
        pages_returned,
        pages_freed_at_home,
        stub_pages,
        pages_dirtied,
        sink_pages,
        sink_restarts,
        conservation_ok,
        away,
        home,
        trace,
    })
}

/// Prices the return freeze from `now` and returns it with the MPT
/// bytes it ships. Eager openMosix ships every remote-resident page
/// back at once; AMPoM three pages and the MPT; the others three pages.
fn price_return(
    scheme: Scheme,
    pages_returned: u64,
    table: &PageTablePair,
    path: &mut NetPath,
    now: SimTime,
) -> (SimDuration, u64) {
    let (done, mpt_bytes) = match scheme {
        Scheme::OpenMosix => (
            path.bulk_transfer(now + MIGRATION_BASE_COST, pages_returned * PAGE_SIZE),
            0,
        ),
        Scheme::Ampom => {
            let mpt = table.mpt_bytes();
            let start =
                now + MIGRATION_BASE_COST + MPT_ENTRY_COST.saturating_mul(table.mapped_pages());
            (path.bulk_transfer(start, 3 * PAGE_SIZE + mpt), mpt)
        }
        Scheme::NoPrefetch | Scheme::Ffa => (
            path.bulk_transfer(now + MIGRATION_BASE_COST, 3 * PAGE_SIZE),
            0,
        ),
    };
    (done.since(now), mpt_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::FaultProfile;
    use ampom_net::fault::FaultSpec;
    use ampom_workloads::synthetic::{Sequential, SequentialWrite};

    const CPU: SimDuration = SimDuration::from_micros(15);

    #[test]
    fn cost_model_tracks_lifecycle_constants() {
        let m = LifecycleCostModel::new(Scheme::Ampom);
        // Outbound freeze is exactly the Figure 5 calibration.
        assert_eq!(
            m.outbound_freeze(230),
            crate::migration::freeze_time(Scheme::Ampom, 230)
        );
        // Return bytes are the dirty pages in capped writeback batches
        // with the v4 frame overheads — the same constants the simulated
        // writeback engine charges per flush.
        let dirty = m.dirty_pages(230, 0.25);
        let batches = dirty.div_ceil(m.writeback.max_batch_pages as u64);
        assert_eq!(
            m.return_bytes(230, 0.25),
            dirty * (PAGE_SIZE + WRITEBACK_ENTRY_OVERHEAD) + batches * WRITEBACK_HEADER_BYTES
        );
        // A fully clean away phase returns almost for free; eager
        // openMosix re-ships the footprint regardless.
        assert!(m.return_bytes(230, 0.0) == 0);
        let eager = LifecycleCostModel::new(Scheme::OpenMosix);
        assert_eq!(eager.return_bytes(230, 0.0), 230 * 1024 * 1024);
        assert_eq!(eager.return_bytes(230, 1.0), 230 * 1024 * 1024);
    }

    #[test]
    fn cost_model_return_freeze_scales_with_dirty_footprint() {
        let m = LifecycleCostModel::new(Scheme::Ampom);
        let clean = m.return_freeze(460, 0.01);
        let dirty = m.return_freeze(460, 1.0);
        assert!(clean < dirty, "{clean:?} vs {dirty:?}");
        // The dirtiest return costs exactly the freeze of the full
        // footprint.
        assert_eq!(dirty, crate::migration::freeze_time(Scheme::Ampom, 460));
        // Degenerate dirty fractions clamp instead of exploding.
        assert_eq!(m.dirty_pages(230, -1.0), 0);
        assert_eq!(m.dirty_pages(230, 2.0), m.dirty_pages(230, 1.0));
    }

    /// A run of `scheme` with default background writeback.
    fn with_writeback(scheme: Scheme) -> RunConfig {
        RunConfig::new(scheme).with_writeback(WritebackSpec::default())
    }

    // Stores-only sweeps: every touched page is dirtied, so the writeback
    // engine has real work to conserve (Sequential is read-only).
    fn lifecycle(scheme: Scheme, frac: f64) -> LifecycleReport {
        let mut w = SequentialWrite::new(1024, CPU);
        run_lifecycle(&mut w, &with_writeback(scheme), frac).expect("valid lifecycle")
    }

    #[test]
    fn writeback_moves_every_dirtied_page_home() {
        let r = lifecycle(Scheme::Ampom, 0.5);
        assert!(r.pages_dirtied > 0, "a sequential sweep dirties pages");
        r.check_conservation();
        assert_eq!(r.sink_pages, r.pages_dirtied);
        assert!(r.away.writeback.batches_sent > 0);
        assert!(r.away.writeback.writeback_bytes > 0);
    }

    #[test]
    fn written_back_pages_are_free_at_home() {
        let with = lifecycle(Scheme::Ampom, 0.5);
        let mut w = SequentialWrite::new(1024, CPU);
        let without =
            run_lifecycle(&mut w, &RunConfig::new(Scheme::Ampom), 0.5).expect("valid lifecycle");
        assert!(
            with.pages_freed_at_home > without.pages_freed_at_home,
            "writeback should free pages at home: {} vs {}",
            with.pages_freed_at_home,
            without.pages_freed_at_home
        );
        assert!(
            with.stub_pages < without.stub_pages,
            "the remote stub should shrink: {} vs {}",
            with.stub_pages,
            without.stub_pages
        );
    }

    #[test]
    fn conservation_survives_a_lossy_link() {
        let mut w = SequentialWrite::new(512, CPU);
        let cfg = with_writeback(Scheme::Ampom).with_faults(FaultProfile {
            faults: FaultSpec {
                loss_rate: 0.25,
                burst_len: 2,
                jitter: SimDuration::from_micros(100),
            },
            ..FaultProfile::default()
        });
        let r = run_lifecycle(&mut w, &cfg, 0.6).expect("valid lifecycle");
        r.check_conservation();
        let wb = r.away.writeback;
        assert!(
            wb.retransmits > 0,
            "a 25% lossy link must force retransmits"
        );
        assert!(wb.duplicate_batches + wb.duplicate_pages > 0);
    }

    #[test]
    fn traced_lifecycle_records_every_lifecycle_event_kind() {
        let mut w = SequentialWrite::new(512, CPU);
        let cfg = with_writeback(Scheme::Ampom)
            .with_faults(FaultProfile::lossy(0.25))
            .with_trace();
        let r = run_lifecycle(&mut w, &cfg, 0.6).expect("valid lifecycle");
        let traces = [&r.away.trace, &r.trace, &r.home.trace];
        for kind in [
            TraceKind::FreezeBegin,
            TraceKind::WritebackFlush,
            TraceKind::WritebackRetransmit,
            TraceKind::ReturnFreeze,
            TraceKind::PagesFreedAtHome,
        ] {
            assert!(
                traces.iter().any(|t| t.first_of(kind).is_some()),
                "no {kind} event"
            );
        }
    }

    #[test]
    fn conservation_survives_deputy_restarts() {
        use ampom_sim::event::DowntimeSchedule;
        let mut w = SequentialWrite::new(512, CPU);
        let cfg = with_writeback(Scheme::Ampom).with_faults(FaultProfile {
            faults: FaultSpec {
                loss_rate: 0.10,
                burst_len: 2,
                jitter: SimDuration::ZERO,
            },
            downtime: DowntimeSchedule::single(
                SimTime::ZERO + SimDuration::from_millis(5),
                SimTime::ZERO + SimDuration::from_millis(9),
            ),
            ..FaultProfile::default()
        });
        let r = run_lifecycle(&mut w, &cfg, 0.6).expect("valid lifecycle");
        r.check_conservation();
    }

    #[test]
    fn workload_completes_exactly_once() {
        completes_exactly_once(&with_writeback(Scheme::Ampom));
    }

    #[test]
    fn workload_completes_exactly_once_without_writeback() {
        completes_exactly_once(&RunConfig::new(Scheme::Ampom));
    }

    fn completes_exactly_once(cfg: &RunConfig) {
        let mut w = Sequential::new(256, CPU);
        let r = run_lifecycle(&mut w, cfg, 0.5).expect("valid lifecycle");
        assert!(w.next().is_none(), "stream fully consumed");
        assert!(r.total_time > SimDuration::ZERO);
        assert_eq!(
            r.total_time,
            r.outbound_freeze + r.away_time + r.return_freeze + r.home_time,
            "phases partition the run"
        );
        for leg in [&r.away, &r.home] {
            assert_eq!(
                leg.phases.total(),
                leg.total_time,
                "a leg's phases partition it"
            );
        }
        assert_eq!(r.home.freeze_time, r.return_freeze);
        assert_eq!(r.home_time, r.home.total_time - r.return_freeze);
    }

    #[test]
    fn fraction_must_be_in_unit_interval() {
        fraction_is_refused(&with_writeback(Scheme::Ampom));
    }

    #[test]
    fn fraction_must_be_in_unit_interval_without_writeback() {
        fraction_is_refused(&RunConfig::new(Scheme::Ampom));
    }

    fn fraction_is_refused(cfg: &RunConfig) {
        for frac in [1.5, 1.0, 0.0, -0.5, f64::NAN] {
            let mut w = Sequential::new(64, CPU);
            match run_lifecycle(&mut w, cfg, frac) {
                Err(AmpomError::InvalidConfig(msg)) => assert!(msg.contains("away_fraction")),
                other => panic!("fraction {frac}: {other:?}"),
            }
        }
    }

    // The analytic round trip: writeback off, a read-only sweep of 2048
    // pages, called home after `frac` of it.
    fn round_trip(scheme: Scheme, frac: f64) -> LifecycleReport {
        let mut w = Sequential::new(2048, CPU);
        run_lifecycle(&mut w, &RunConfig::new(scheme), frac).expect("valid lifecycle")
    }

    #[test]
    fn early_return_moves_few_pages_under_ampom() {
        let r = round_trip(Scheme::Ampom, 0.2);
        // ~20% of the sweep was fetched remotely; only that much can come
        // back.
        assert!(
            r.pages_fetched_remotely < 1000,
            "{}",
            r.pages_fetched_remotely
        );
        assert!(r.return_freeze < SimDuration::from_millis(200));
    }

    #[test]
    fn eager_always_hauls_the_full_footprint_back() {
        // openMosix moved everything out at the first freeze, so the
        // return moves everything back — regardless of how briefly the
        // process stayed away.
        let early = round_trip(Scheme::OpenMosix, 0.2);
        let late = round_trip(Scheme::OpenMosix, 0.8);
        assert_eq!(early.pages_returned, late.pages_returned);
        assert!(early.pages_returned > 2000);
        assert!(early.return_freeze > SimDuration::from_millis(500));
    }

    #[test]
    fn ampom_remote_footprint_scales_with_time_away() {
        let early = round_trip(Scheme::Ampom, 0.2);
        let late = round_trip(Scheme::Ampom, 0.8);
        assert!(
            late.pages_fetched_remotely > early.pages_fetched_remotely,
            "late {} vs early {}",
            late.pages_fetched_remotely,
            early.pages_fetched_remotely
        );
    }

    #[test]
    fn ampom_round_trip_beats_eager_round_trip() {
        for frac in [0.2, 0.5, 0.8] {
            let ampom = round_trip(Scheme::Ampom, frac);
            let eager = round_trip(Scheme::OpenMosix, frac);
            assert!(
                ampom.total_time < eager.total_time,
                "frac {frac}: AMPoM {} vs eager {}",
                ampom.total_time,
                eager.total_time
            );
            // Both freezes stay tiny under AMPoM.
            assert!(ampom.outbound_freeze < SimDuration::from_millis(200));
            assert!(ampom.return_freeze < SimDuration::from_millis(200));
        }
    }

    #[test]
    fn never_fetched_pages_are_free_on_return() {
        // With a tiny away fraction, the untouched tail of the sweep stays
        // at the origin the whole time; after the return the workload
        // faults only on pages the remote node held.
        let r = round_trip(Scheme::Ampom, 0.1);
        // Fault requests in phase 2 relate to the ~10% remote footprint,
        // not the remaining 90% of the sweep.
        assert!(
            r.fault_requests() < 400,
            "requests {} should not re-fetch home pages",
            r.fault_requests()
        );
    }

    #[test]
    fn forward_writeback_counts_what_a_sink_would_apply() {
        use ampom_sim::propcheck::forall;
        // Every batch the engine builds, replayed through a sink the way
        // the engine used to apply them: the sink applies every entry and
        // refuses none, so the direct counts are the sink's.
        forall("forward-writeback-counts", 256, |g| {
            let spec = WritebackSpec {
                flush_every_faults: g.u64(1..6),
                max_batch_pages: g.usize(1..10),
            };
            let mut wb = ForwardWriteback::new(spec);
            let mut sink = WritebackSink::new();
            fn flush(wb: &mut ForwardWriteback, sink: &mut WritebackSink, now: SimTime) {
                while let Some((seq, entries)) = wb.take_batch() {
                    sink.apply_batch(seq, entries);
                    let bytes = writeback_batch_bytes(entries.len());
                    wb.complete(bytes, now, now);
                }
            }
            let pages = g.u64(1..40);
            for step in 0..g.u64(0..200) {
                if g.usize(0..4) > 0 {
                    wb.note_touch(PageId(g.u64(0..pages)), g.bool(0.7));
                } else if wb.on_fault() {
                    flush(&mut wb, &mut sink, SimTime::from_nanos(step));
                }
            }
            flush(&mut wb, &mut sink, SimTime::from_nanos(200));
            let stats = wb.stats(&WritebackStats::default());
            assert!(!wb.has_dirty());
            assert_eq!(stats.pages_written_back, sink.counters.pages_applied);
            assert_eq!(stats.pages_written_back, wb.wset.counters.pages_flushed);
            assert_eq!(stats.batches_sent, sink.counters.batches_applied);
            assert_eq!(
                (stats.duplicate_batches, stats.duplicate_pages),
                (0, 0),
                "the engine reports no duplicates"
            );
            assert_eq!(
                (
                    sink.counters.duplicate_batches,
                    sink.counters.duplicate_pages
                ),
                (0, 0),
                "and a sink finds none"
            );
        });
    }
}
