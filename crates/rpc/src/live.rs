//! [`LiveTransport`]: the socket-backed implementation of
//! [`Transport`], driving the unmodified
//! [`ampom_core::run_with_transport`] protocol loop
//! over a real deputy.
//!
//! ## Timing model
//!
//! The runner's `now` stays a virtual [`SimTime`]: compute charges come
//! from the workload's reference stream exactly as in simulation, while
//! every *wait* on the deputy is measured with a wall clock and mapped
//! 1:1 onto the virtual axis (`arrival = now + wall_elapsed`). A page
//! that the reply pipeline already delivered costs nothing — the same
//! pipelining effect (paper §5.4) the simulator models with FIFO-link
//! arrival times.
//!
//! Scheme-specific kernel costs the real host cannot reproduce (a 2 GHz
//! P4's per-page eager copy, the MPT walk) are charged analytically with
//! the same calibrated constants the simulator uses, and the AMPoM MPT
//! wire cost is charged as its serialization time at the *measured*
//! capacity rather than shipping real MPT bytes. DESIGN.md §10 tabulates
//! the mapping.
//!
//! ## Recovery
//!
//! The retry/timeout/degradation arithmetic is the
//! [`RetrySchedule`] shared with the
//! simulated fault injector — not a fork. Its base timeout is the
//! measured `2·t0 + td`; a socket error or silence past the deadline
//! feeds `on_timeout()`, and the schedule's verdict (retry / degrade)
//! is executed over the live wire: re-request, reconnect-and-resend, or
//! a residual eager copy of every page still at the origin. Undelivered
//! requests die with a dropped connection; their pages simply remain at
//! the origin and are demand-fetched when next touched.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use ampom_core::deputy::SYSCALL_EXEC_COST;
use ampom_core::error::AmpomError;
use ampom_core::metrics::{DeputyStats, FaultStats, RunReport};
use ampom_core::migration::{FreezeOutcome, PreMigrationState, Scheme};
use ampom_core::prefetcher::NetEstimates;
use ampom_core::reliability::{FailurePolicy, RetryPolicy, RetrySchedule, RetryStep};
use ampom_core::runner::RunConfig;
use ampom_core::transport::{
    refuse_simulated_only, run_with_transport, Destination, PageBits, Transport,
};
use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_mem::space::AddressSpace;
use ampom_mem::table::{PageLocation, PageTablePair};
use ampom_net::calibration::{MeasuredLink, EAGER_PAGE_COST, MIGRATION_BASE_COST, MPT_ENTRY_COST};
use ampom_sim::time::{SimDuration, SimTime};
use ampom_sim::trace::{Trace, TraceData, TraceKind};
use ampom_workloads::memref::Workload;

use crate::calibrate::{calibrate_endpoint, CalibrateOptions};
use crate::client::{Endpoint, MigrantClient};
use crate::frame::{Frame, WireStats, CODE_OVERLOADED};
use crate::RpcError;

/// Bound on requested-but-undelivered pages (client-side backpressure).
/// A full quota trims prefetch batches; demand pages always go out.
pub const IN_FLIGHT_QUOTA: usize = 64;

/// Pages per request frame during bulk (freeze / fallback / calibration)
/// fetches. Batches go out strictly one at a time — the next only after
/// the previous fully arrived — so neither side's socket buffer can fill
/// while the other blocks writing (deadlock freedom by construction).
pub const FETCH_BATCH: usize = 64;

/// Deadline for one bulk-fetch batch to arrive in full.
const FETCH_TIMEOUT: Duration = Duration::from_secs(30);

/// Deadline for a forwarded system call's reply.
const SYSCALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Deadline for a deputy statistics round trip.
const STATS_TIMEOUT: Duration = Duration::from_secs(2);

/// Deadline for a writeback batch's ack.
const WRITEBACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Redial attempts per stall-reconnect cycle, paced by
/// [`RECONNECT_SLEEP`]. Failed cycles re-enter the retry schedule, whose
/// policy-cycle cap eventually forces the eager fallback.
const RECONNECT_ATTEMPTS: u32 = 20;

/// Pause between redial attempts.
const RECONNECT_SLEEP: Duration = Duration::from_millis(50);

/// Floor on the retry schedule's base timeout over a live wire (a
/// measured loopback round trip is far below OS scheduling jitter).
const MIN_BASE_TIMEOUT: SimDuration = SimDuration::from_millis(2);

/// Knobs of a live run.
#[derive(Debug, Clone, Default)]
pub struct LiveOptions {
    /// Timeout/retry budget (same meaning as the simulated profile's).
    pub retry: RetryPolicy,
    /// Degradation policy once the budget is spent. `Remigrate` is not
    /// supported over the live transport.
    pub policy: FailurePolicy,
    /// Calibration handshake parameters.
    pub calibrate: CalibrateOptions,
}

/// What a live run produced: the ordinary report plus the link
/// measurement that parameterised it.
#[derive(Debug)]
pub struct LiveReport {
    /// The run's measurements, on the same axes as simulated reports.
    pub report: RunReport,
    /// The calibrated link (feed
    /// [`MeasuredLink::link_config`] to the simulator to compare).
    pub measured: MeasuredLink,
}

/// The live implementation of [`Transport`].
pub struct LiveTransport {
    endpoint: Endpoint,
    schedule: RetrySchedule,
    measured: MeasuredLink,
    client: Option<MigrantClient>,
    dead: bool,
    /// Requested and not yet installed.
    in_flight: InFlightPages,
    /// Received and not yet installed (subset of `in_flight`).
    staged: HashSet<PageId>,
    /// Mapped pages whose contents the origin still holds.
    origin: HashSet<PageId>,
    stats: FaultStats,
    trace: Vec<(SimTime, TraceKind, TraceData)>,
    cached_deputy: DeputyStats,
    last_wraps: u64,
    /// Wall instant and byte mark at resume, for reply utilisation.
    run_epoch: Option<(Instant, u64)>,
}

impl std::fmt::Debug for LiveTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveTransport")
            .field("endpoint", &self.endpoint)
            .field("measured", &self.measured)
            .field("in_flight", &self.in_flight.len())
            .field("staged", &self.staged.len())
            .finish()
    }
}

impl LiveTransport {
    /// Calibrates the link to `endpoint` (its own short-lived connection)
    /// and prepares a transport whose retry schedule is based on the
    /// measured round trip. The migrant session itself is dialed at
    /// [`Transport::freeze`] time, when the address-space size is known.
    pub fn connect(endpoint: Endpoint, opts: &LiveOptions) -> Result<LiveTransport, RpcError> {
        let measured = calibrate_endpoint(&endpoint, &opts.calibrate)?;
        // Same base as RetrySchedule::for_link (2·t0 + td on the measured
        // link), floored: a loopback RTT of a few microseconds would make
        // OS scheduling jitter fire timeouts spuriously.
        let link = measured.link_config();
        let base =
            (link.rtt() + ampom_net::calibration::page_transfer_time(&link)).max(MIN_BASE_TIMEOUT);
        let schedule = RetrySchedule::new(opts.retry, opts.policy, base);
        Ok(LiveTransport {
            endpoint,
            schedule,
            measured,
            client: None,
            dead: false,
            in_flight: InFlightPages::default(),
            staged: HashSet::new(),
            origin: HashSet::new(),
            stats: FaultStats::default(),
            trace: Vec::new(),
            cached_deputy: DeputyStats::default(),
            last_wraps: 0,
            run_epoch: None,
        })
    }

    /// The link measurement taken at connect time.
    pub fn measured(&self) -> MeasuredLink {
        self.measured
    }

    /// Recovery statistics accumulated so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    fn client_mut(&mut self) -> Result<&mut MigrantClient, AmpomError> {
        self.client
            .as_mut()
            .ok_or_else(|| AmpomError::Transport("live transport used before freeze".into()))
    }

    /// Books one received page reply. Duplicates (a late original racing
    /// a retry's resend, or a page already installed) are suppressed —
    /// installs stay idempotent, exactly as in the simulated protocol.
    fn note_reply(&mut self, page: PageId, data: &[u8]) -> Result<(), AmpomError> {
        if !crate::frame::payload_matches(page, data) {
            return Err(AmpomError::Transport(format!(
                "payload for page {page} is corrupt"
            )));
        }
        if self.in_flight.contains(page) && !self.staged.contains(&page) {
            self.staged.insert(page);
            self.origin.remove(&page);
        } else {
            self.stats.duplicate_replies += 1;
        }
        Ok(())
    }

    fn handle_frame(&mut self, frame: Frame, now: SimTime) -> Result<(), AmpomError> {
        match frame {
            Frame::PageReply { page, data, .. } => self.note_reply(page, &data),
            Frame::PageBatchReply { pages, .. } => {
                // A multiplexed deputy answers one DRR visit with a
                // single batched frame; each page books individually so
                // duplicate suppression stays per-page.
                for (page, data) in pages {
                    self.note_reply(page, &data)?;
                }
                Ok(())
            }
            Frame::StatsReply(ws) => {
                self.cached_deputy = deputy_stats_from_wire(ws);
                Ok(())
            }
            // The one non-fatal error: the deputy shed the named
            // prefetch pages. Revert them — their contents never left
            // the origin, so dropping the in-flight mark makes them
            // eligible for a later prefetch or demand fetch. The demand
            // page is never shed, so the faulting wait is unaffected.
            Frame::Error { code, detail } if code == CODE_OVERLOADED => {
                let mut reverted = 0u64;
                for page in shed_pages_from_detail(&detail) {
                    if !self.staged.contains(&page) && self.in_flight.remove(page) {
                        reverted += 1;
                    }
                }
                if reverted > 0 {
                    self.trace.push((
                        now,
                        TraceKind::LiveShed,
                        TraceData::pages(reverted).with_note("deputy 503: reverted to origin"),
                    ));
                }
                Ok(())
            }
            Frame::Error { code, detail } => Err(AmpomError::Transport(format!(
                "deputy error {code}: {detail}"
            ))),
            // Stale pongs / syscall replies from an abandoned wait.
            _ => Ok(()),
        }
    }

    /// One redial attempt. On success the connection-local state resets:
    /// undelivered requests died with the old socket, so `in_flight`
    /// shrinks to the already-received (staged) pages and everything else
    /// stays at the origin, to be demand-fetched when next touched.
    fn try_reconnect(&mut self, now: SimTime, demand: Option<PageId>) -> bool {
        let Some(client) = self.client.as_mut() else {
            return false;
        };
        if client.reconnect().is_err() {
            return false;
        }
        self.dead = false;
        self.in_flight.clear();
        for &p in &self.staged {
            self.in_flight.insert(p);
        }
        if let Some(d) = demand {
            if self
                .client
                .as_mut()
                .is_some_and(|c| c.send_request(Some(d), &[]).is_ok())
            {
                self.in_flight.insert(d);
            } else {
                self.dead = true;
                return false;
            }
        }
        self.trace.push((
            now,
            TraceKind::LiveReconnect,
            TraceData::note(format!("reconnected to {}", self.endpoint)),
        ));
        true
    }

    /// The residual eager copy: fetch every page still at the origin, in
    /// bounded batches, and stage it for install.
    fn eager_fallback(&mut self, now: SimTime) -> Result<(), AmpomError> {
        if self.dead && !self.try_reconnect(now, None) {
            return Err(AmpomError::Transport(
                "eager fallback: deputy unreachable".into(),
            ));
        }
        let mut remaining: Vec<PageId> = self.origin.iter().copied().collect();
        remaining.sort();
        let dupes = {
            let client = self.client_mut()?;
            fetch_all(client, &remaining).map_err(AmpomError::from)?
        };
        self.stats.duplicate_replies += dupes;
        for &p in &remaining {
            self.staged.insert(p);
            self.in_flight.insert(p);
            self.origin.remove(&p);
            self.stats.fallback_pages += 1;
        }
        self.trace.push((
            now,
            TraceKind::PagesArrived,
            TraceData::pages(remaining.len() as u64)
                .with_bytes(remaining.len() as u64 * PAGE_SIZE)
                .with_note("eager fallback: residual pages"),
        ));
        Ok(())
    }

    fn refresh_deputy_stats(&mut self) {
        let Some(client) = self.client.as_mut() else {
            return;
        };
        if client.send(&Frame::StatsFetch).is_err() {
            return;
        }
        let deadline = Instant::now() + STATS_TIMEOUT;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let frame = match self.client.as_mut().and_then(|c| c.recv(remaining).ok()) {
                Some(Some(f)) => f,
                _ => return,
            };
            let done = matches!(frame, Frame::StatsReply(_));
            if self.handle_frame(frame, SimTime::ZERO).is_err() || done {
                return;
            }
        }
    }
}

impl Transport for LiveTransport {
    async fn freeze(
        &mut self,
        scheme: Scheme,
        pre: &PreMigrationState,
        trace: &mut Trace,
    ) -> Result<FreezeOutcome, AmpomError> {
        let t0 = SimTime::ZERO;
        trace.record_with(t0, TraceKind::FreezeBegin, || {
            TraceData::note(format!("scheme={scheme} live"))
        });

        let mapped = pre.mapped_pages();
        let dirty = pre.dirty_pages();
        let mut table = PageTablePair::at_migration(mapped.iter().copied());
        let mut space = AddressSpace::new(pre.layout.clone());
        for &p in &mapped {
            space.mark_remote(p);
        }
        let freeze_pages = pre.layout.freeze_pages(pre.current_data);

        let mut client = MigrantClient::connect(
            self.endpoint.clone(),
            pre.layout.total_pages(),
            scheme_byte(scheme),
        )
        .map_err(AmpomError::from)?;
        trace.record_with(t0, TraceKind::LiveConnect, || {
            TraceData::note(format!("{} (td={})", self.endpoint, self.measured.td))
                .with_rtt_ns(self.measured.t0.saturating_mul(2).as_nanos())
        });

        // What the scheme ships eagerly, plus the kernel/wire costs the
        // host cannot reproduce, charged with the calibrated constants.
        let (ship, kernel_cost, analytic_wire, mpt_bytes): (
            Vec<PageId>,
            SimDuration,
            SimDuration,
            u64,
        ) = match scheme {
            Scheme::OpenMosix => (
                dirty.clone(),
                EAGER_PAGE_COST.saturating_mul(dirty.len() as u64),
                SimDuration::ZERO,
                0,
            ),
            Scheme::NoPrefetch | Scheme::Ffa => (
                freeze_pages.to_vec(),
                SimDuration::ZERO,
                SimDuration::ZERO,
                0,
            ),
            Scheme::Ampom => {
                let mpt = table.mpt_bytes();
                (
                    freeze_pages.to_vec(),
                    MPT_ENTRY_COST.saturating_mul(table.mapped_pages()),
                    // The MPT travels as its serialization time on the
                    // *measured* link rather than as real bytes.
                    self.measured.link_config().serialization_time(mpt),
                    mpt,
                )
            }
        };
        let mut ship = ship;
        ship.sort();
        ship.dedup();

        let wall_start = Instant::now();
        let dupes = fetch_all(&mut client, &ship).map_err(AmpomError::from)?;
        let wall_fetch = sim_duration(wall_start.elapsed());
        self.stats.duplicate_replies += dupes;

        for &p in &ship {
            if space.is_resident(p) {
                continue;
            }
            table.transfer_to_destination(p);
            space.install(p);
            if scheme == Scheme::OpenMosix {
                // The dest copy is the only copy; it stays logically dirty.
                space.touch(p, true);
            }
        }

        let freeze_time = MIGRATION_BASE_COST + kernel_cost + analytic_wire + wall_fetch;
        let resume_at = t0 + freeze_time;
        let bytes_at_freeze = ship.len() as u64 * PAGE_SIZE + mpt_bytes;
        trace.record_with(resume_at, TraceKind::PagesArrived, || {
            TraceData::pages(ship.len() as u64)
                .with_bytes(bytes_at_freeze)
                .with_note("over live wire")
        });
        trace.record_with(resume_at, TraceKind::FreezeEnd, || {
            TraceData::note(format!("freeze={freeze_time}"))
        });

        self.origin = mapped
            .iter()
            .copied()
            .filter(|p| !space.is_resident(*p))
            .collect();
        let received_mark = client.bytes_received();
        self.client = Some(client);
        self.run_epoch = Some((Instant::now(), received_mark));

        Ok(FreezeOutcome {
            freeze_time,
            bytes_at_freeze,
            mpt_bytes,
            space,
            table,
            freeze_pages,
        })
    }

    async fn request_pages(
        &mut self,
        _now: SimTime,
        demand: Option<PageId>,
        prefetch: &[PageId],
        table: &mut PageTablePair,
        queued: &mut Vec<PageId>,
    ) -> Result<(), AmpomError> {
        let allowed = IN_FLIGHT_QUOTA
            .saturating_sub(self.in_flight.len())
            .saturating_sub(usize::from(demand.is_some()));
        let first = queued.len();
        for &p in prefetch {
            if queued.len() - first >= allowed {
                break;
            }
            if self.in_flight.contains(p) || !self.origin.contains(&p) {
                continue;
            }
            queued.push(p);
        }
        if demand.is_none() && queued.len() == first {
            return Ok(());
        }
        let sent = {
            let client = self.client_mut()?;
            client.send_request(demand, &queued[first..]).is_ok()
        };
        if !sent {
            // The wait path absorbs the dead connection for the demand
            // page (it will be resent); unsent prefetches are simply
            // not committed and stay eligible at the origin.
            self.dead = true;
            queued.truncate(first);
        }
        for &p in demand.iter().chain(&queued[first..]) {
            self.in_flight.insert(p);
            if table.lookup(p) == Some(PageLocation::Origin) {
                table.transfer_to_destination(p);
            }
        }
        Ok(())
    }

    async fn wait_for(&mut self, page: PageId, now: SimTime) -> Result<SimTime, AmpomError> {
        if self.staged.contains(&page) {
            return Ok(now);
        }
        if !self.in_flight.contains(page) {
            return Err(AmpomError::Transport(format!(
                "page {page} awaited but never requested"
            )));
        }
        let start = Instant::now();
        self.schedule.begin_wait();
        let mut deadline = start + wall_duration(self.schedule.current_timeout());
        loop {
            if self.staged.contains(&page) {
                return Ok(now + sim_duration(start.elapsed()));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() || self.dead {
                self.stats.timeouts += 1;
                match self.schedule.on_timeout() {
                    RetryStep::Retry => {
                        self.stats.retries += 1;
                        self.trace.push((
                            now,
                            TraceKind::LiveRetry,
                            TraceData::page(page.index())
                                .with_retry(u64::from(self.schedule.attempt())),
                        ));
                        // A retry is a resend, nothing more — on a dead
                        // connection it burns budget (paced, not spun)
                        // until the failure policy takes over, exactly
                        // like resends into a downed simulated deputy.
                        let resent = !self.dead
                            && self
                                .client
                                .as_mut()
                                .is_some_and(|c| c.send_request(Some(page), &[]).is_ok());
                        if resent {
                            // If a 503 reverted this page while we
                            // waited, the demand resend re-arms it.
                            self.in_flight.insert(page);
                        } else {
                            self.dead = true;
                            std::thread::sleep(RECONNECT_SLEEP);
                        }
                    }
                    RetryStep::Degrade(policy) => {
                        self.stats.reconnects += 1;
                        let recovery_start = Instant::now();
                        match policy {
                            FailurePolicy::StallReconnect => {
                                self.dead = true;
                                let mut ok = false;
                                for _ in 0..RECONNECT_ATTEMPTS {
                                    if self.try_reconnect(now, Some(page)) {
                                        ok = true;
                                        break;
                                    }
                                    std::thread::sleep(RECONNECT_SLEEP);
                                }
                                if ok {
                                    self.schedule.begin_wait();
                                }
                                // On failure the schedule escalates again;
                                // past its policy-cycle cap the eager
                                // fallback is forced, so this terminates.
                            }
                            FailurePolicy::EagerFallback => {
                                let fallen = self.eager_fallback(now);
                                self.stats.recovery_time += sim_duration(recovery_start.elapsed());
                                fallen?;
                                continue;
                            }
                            FailurePolicy::Remigrate => {
                                return Err(AmpomError::Transport(
                                    "the remigrate policy needs the simulated runner \
                                     (a live migrant cannot re-home itself)"
                                        .into(),
                                ));
                            }
                        }
                        self.stats.recovery_time += sim_duration(recovery_start.elapsed());
                    }
                }
                deadline = Instant::now() + wall_duration(self.schedule.current_timeout());
                continue;
            }
            let received = match self.client_mut()?.recv(remaining) {
                Ok(Some(frame)) => Some(frame),
                Ok(None) => None,
                Err(_) => {
                    self.dead = true;
                    None
                }
            };
            if let Some(frame) = received {
                self.handle_frame(frame, now)?;
            }
        }
    }

    async fn install_arrived(&mut self, now: &mut SimTime, dest: &mut Destination) {
        // Pull in whatever the reply pipeline has already delivered.
        if !self.dead {
            if let Some(client) = self.client.as_mut() {
                match client.drain() {
                    Ok(frames) => {
                        for frame in frames {
                            // A corrupt reply surfaces at the next wait.
                            if self.handle_frame(frame, *now).is_err() {
                                self.dead = true;
                                break;
                            }
                        }
                    }
                    Err(_) => self.dead = true,
                }
            }
        }
        let mut installed = 0u64;
        for page in std::mem::take(&mut self.staged) {
            self.in_flight.remove(page);
            dest.space.install(page);
            installed += 1;
        }
        if installed > 0 {
            *now += ampom_core::runner::PAGE_INSTALL_COST.saturating_mul(installed);
        }
    }

    fn is_in_flight(&self, page: PageId) -> bool {
        self.in_flight.contains(page)
    }

    fn in_flight_word(&self, word: u64) -> u64 {
        self.in_flight.bits.word(word)
    }

    fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    async fn forward_syscall(
        &mut self,
        now: SimTime,
        work: SimDuration,
    ) -> Result<(SimTime, SimTime), AmpomError> {
        let start = Instant::now();
        let call_id = self
            .client_mut()?
            .send_syscall(work.as_nanos())
            .map_err(AmpomError::from)?;
        let deadline = start + SYSCALL_TIMEOUT;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let frame = self
                .client_mut()?
                .recv(remaining)
                .map_err(AmpomError::from)?;
            match frame {
                Some(Frame::SyscallReply { call_id: c }) if c == call_id => break,
                Some(other) => self.handle_frame(other, now)?,
                None => {
                    return Err(AmpomError::Transport(format!(
                        "forwarded syscall {call_id} unanswered after {SYSCALL_TIMEOUT:?}"
                    )))
                }
            }
        }
        // The round trip is measured; the home-node execution is virtual.
        Ok((
            now,
            now + sim_duration(start.elapsed()) + SYSCALL_EXEC_COST + work,
        ))
    }

    async fn writeback_batch(
        &mut self,
        now: SimTime,
        seq: u64,
        entries: &[(PageId, u64)],
    ) -> Result<(u64, SimTime), AmpomError> {
        let start = Instant::now();
        let client = self.client_mut()?;
        let sent_mark = client.bytes_sent();
        client
            .send_writeback(seq, entries)
            .map_err(AmpomError::from)?;
        let bytes = self.client_mut()?.bytes_sent() - sent_mark;
        let deadline = start + WRITEBACK_TIMEOUT;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let frame = self
                .client_mut()?
                .recv(remaining)
                .map_err(AmpomError::from)?;
            match frame {
                Some(Frame::WritebackAck { seq: s, .. }) if s == seq => break,
                Some(other) => self.handle_frame(other, now)?,
                None => {
                    return Err(AmpomError::Transport(format!(
                        "writeback batch {seq} unacked after {WRITEBACK_TIMEOUT:?}"
                    )))
                }
            }
        }
        Ok((bytes, now + sim_duration(start.elapsed())))
    }

    async fn estimates(&mut self, _now: SimTime) -> NetEstimates {
        NetEstimates {
            t0: self.measured.t0,
            td: self.measured.td,
        }
    }

    async fn on_window_wrap(&mut self, now: SimTime, wraps: u64) {
        if wraps <= self.last_wraps {
            return;
        }
        self.last_wraps = wraps;
        // Live re-probe, EWMA-smoothed like the oM_infoD daemon.
        let pinged = match self.client.as_mut() {
            Some(client) => client.ping(Duration::from_secs(1)).ok(),
            None => None,
        };
        if let Some((rtt, stray)) = pinged {
            for frame in stray {
                if self.handle_frame(frame, now).is_err() {
                    self.dead = true;
                }
            }
            let sample_t0 = sim_duration(rtt) / 2;
            self.measured.t0 = SimDuration::from_nanos(
                (self.measured.t0.as_nanos() / 8).saturating_mul(7) + sample_t0.as_nanos() / 8,
            );
        }
    }

    async fn reply_utilization(&mut self, _now: SimTime) -> f64 {
        let Some((epoch, mark)) = self.run_epoch else {
            return 0.0;
        };
        let Some(client) = self.client.as_ref() else {
            return 0.0;
        };
        let secs = epoch.elapsed().as_secs_f64();
        if secs <= 0.0 || self.measured.capacity_bytes_per_sec == 0 {
            return 0.0;
        }
        let bytes = client.bytes_received().saturating_sub(mark) as f64;
        (bytes / (self.measured.capacity_bytes_per_sec as f64 * secs)).clamp(0.0, 1.0)
    }

    fn bytes_to_dest(&self) -> u64 {
        self.client.as_ref().map_or(0, |c| c.bytes_received())
    }

    fn bytes_from_dest(&self) -> u64 {
        self.client.as_ref().map_or(0, |c| c.bytes_sent())
    }

    fn deputy_stats(&self) -> DeputyStats {
        self.cached_deputy
    }

    fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    async fn drain_trace(&mut self) -> Vec<(SimTime, TraceKind, TraceData)> {
        self.refresh_deputy_stats();
        std::mem::take(&mut self.trace)
    }
}

/// Runs `workload` under `cfg` against a live deputy at `endpoint`:
/// calibration handshake, freeze over the wire, then the standard
/// demand-paging/prefetching protocol loop on real sockets.
pub fn run_live<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: &RunConfig,
    endpoint: Endpoint,
    opts: &LiveOptions,
) -> Result<LiveReport, AmpomError> {
    if opts.policy == FailurePolicy::Remigrate {
        return Err(AmpomError::InvalidConfig(
            "the remigrate policy is not supported over the live transport".into(),
        ));
    }
    if cfg.cross_traffic.is_some() {
        return Err(AmpomError::InvalidConfig(
            "cross traffic is a simulated-link feature; shape the real \
             network instead for live runs"
                .into(),
        ));
    }
    refuse_simulated_only(cfg, "the live transport")?;
    let mut transport = LiveTransport::connect(endpoint, opts)?;
    let measured = transport.measured();
    let report = run_with_transport(workload, cfg, &mut transport)?;
    Ok(LiveReport { report, measured })
}

/// Sequential bulk fetch: requests `pages` in [`FETCH_BATCH`]-sized
/// frames, awaiting each batch in full before sending the next. Returns
/// the number of stray/duplicate replies that arrived interleaved.
pub(crate) fn fetch_all(client: &mut MigrantClient, pages: &[PageId]) -> Result<u64, RpcError> {
    let mut dupes = 0u64;
    for batch in pages.chunks(FETCH_BATCH) {
        client.send_request(None, batch)?;
        let batch_set: HashSet<PageId> = batch.iter().copied().collect();
        let mut missing = batch_set.clone();
        let deadline = Instant::now() + FETCH_TIMEOUT;
        // Books one delivered page against the batch. Replies to
        // requests abandoned *before* this bulk fetch (in-flight pages
        // at fallback time) are strays, not duplicates: the simulated
        // fallback clears its in-flight set and counts nothing, so
        // counting them here would double-count a reply that note_reply
        // had already suppressed or that was never a duplicate at all.
        let book = |page: PageId,
                    data: &[u8],
                    missing: &mut HashSet<PageId>,
                    dupes: &mut u64|
         -> Result<(), RpcError> {
            if !crate::frame::payload_matches(page, data) {
                return Err(RpcError::Protocol(format!(
                    "payload for page {page} is corrupt"
                )));
            }
            if missing.remove(&page) {
                // First delivery for this batch.
            } else if batch_set.contains(&page) {
                // A resend raced its original; the extra copy of a
                // batch page is a genuine duplicate.
                *dupes += 1;
            }
            Ok(())
        };
        while !missing.is_empty() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match client.recv(remaining)? {
                Some(Frame::PageReply { page, data, .. }) => {
                    book(page, &data, &mut missing, &mut dupes)?;
                }
                Some(Frame::PageBatchReply { pages, .. }) => {
                    for (page, data) in pages {
                        book(page, &data, &mut missing, &mut dupes)?;
                    }
                }
                Some(Frame::Error { code, detail }) if code == CODE_OVERLOADED => {
                    // An admission-bounded deputy shed part of the batch.
                    // Re-request the shed pages still owed; the pause lets
                    // the DRR pass drain below the bound. The batch
                    // deadline still bounds the loop.
                    let again: Vec<PageId> = shed_pages_from_detail(&detail)
                        .into_iter()
                        .filter(|p| missing.contains(p))
                        .collect();
                    if !again.is_empty() {
                        std::thread::sleep(Duration::from_millis(1));
                        client.send_request(None, &again)?;
                    }
                }
                Some(Frame::Error { code, detail }) => {
                    return Err(RpcError::Protocol(format!("deputy error {code}: {detail}")))
                }
                Some(_) => {}
                None => {
                    return Err(RpcError::Protocol(format!(
                        "bulk fetch timed out with {} pages outstanding",
                        missing.len()
                    )))
                }
            }
        }
    }
    Ok(dupes)
}

fn deputy_stats_from_wire(ws: WireStats) -> DeputyStats {
    DeputyStats {
        queued_requests: ws.queued_requests,
        max_backlog: SimDuration::from_nanos(ws.max_backlog_ns),
        busy_time: SimDuration::from_nanos(ws.busy_time_ns),
        prefetch_pages_shed: ws.prefetch_pages_shed,
        demand_pages_shed: ws.demand_pages_shed,
        shed_events: ws.shed_events,
        hellos_deferred: ws.hellos_deferred,
    }
}

/// Parses the page list out of a [`CODE_OVERLOADED`] error detail
/// (`"shed prefetch: 4,5,9"`). Tolerant: anything unparseable is simply
/// skipped, and a detail with no list yields no pages — the timeout path
/// then recovers the shed pages instead.
fn shed_pages_from_detail(detail: &str) -> Vec<PageId> {
    let Some((_, list)) = detail.rsplit_once(':') else {
        return Vec::new();
    };
    list.split(',')
        .filter_map(|tok| tok.trim().parse::<u64>().ok())
        .map(PageId)
        .collect()
}

/// The requested-but-uninstalled pages of [`LiveTransport`]: a page
/// bitset, which answers the zone filter 64 pages per word, and its
/// count.
#[derive(Debug, Default)]
struct InFlightPages {
    bits: PageBits,
    len: usize,
}

impl InFlightPages {
    /// Adds `page`; true when it was not in flight.
    fn insert(&mut self, page: PageId) -> bool {
        let added = self.bits.insert(page);
        self.len += usize::from(added);
        added
    }

    /// Removes `page`; true when it was in flight.
    fn remove(&mut self, page: PageId) -> bool {
        let removed = self.bits.remove(page);
        self.len -= usize::from(removed);
        removed
    }

    fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
    }

    fn contains(&self, page: PageId) -> bool {
        self.bits.contains(page)
    }

    fn len(&self) -> usize {
        self.len
    }
}

fn scheme_byte(scheme: Scheme) -> u8 {
    match scheme {
        Scheme::OpenMosix => 0,
        Scheme::NoPrefetch => 1,
        Scheme::Ampom => 2,
        Scheme::Ffa => 3,
    }
}

/// Maps a measured wall interval onto the virtual time axis, 1:1.
fn sim_duration(d: Duration) -> SimDuration {
    SimDuration::from_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// Maps a virtual duration onto the wall clock, 1:1.
fn wall_duration(d: SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{DeputyServer, ServerConfig};

    /// A transport with every connection-independent field defaulted, for
    /// exercising `note_reply` without a socket.
    fn offline_transport() -> LiveTransport {
        let measured = MeasuredLink {
            t0: SimDuration::from_micros(50),
            td: SimDuration::from_micros(300),
            capacity_bytes_per_sec: 12_000_000,
        };
        let schedule = RetrySchedule::new(
            RetryPolicy::default(),
            FailurePolicy::StallReconnect,
            MIN_BASE_TIMEOUT,
        );
        LiveTransport {
            endpoint: Endpoint::tcp("127.0.0.1:1"),
            schedule,
            measured,
            client: None,
            dead: false,
            in_flight: InFlightPages::default(),
            staged: HashSet::new(),
            origin: HashSet::new(),
            stats: FaultStats::default(),
            trace: Vec::new(),
            cached_deputy: DeputyStats::default(),
            last_wraps: 0,
            run_epoch: None,
        }
    }

    #[test]
    fn run_live_refuses_what_only_the_simulation_models() {
        // Refused at the entry point, before the endpoint is dialled.
        for cfg in [
            RunConfig::new(Scheme::Ffa),
            RunConfig::new(Scheme::Ampom)
                .with_faults(ampom_core::reliability::FaultProfile::lossy(0.1)),
            RunConfig::new(Scheme::Ampom).with_resident_limit_mb(1),
        ] {
            let mut w =
                ampom_workloads::synthetic::Sequential::new(8, SimDuration::from_micros(10));
            let endpoint = Endpoint::tcp("127.0.0.1:1");
            let err = run_live(&mut w, &cfg, endpoint, &LiveOptions::default()).unwrap_err();
            assert!(matches!(err, AmpomError::InvalidConfig(_)), "{err}");
        }
    }

    fn payload(page: PageId) -> Vec<u8> {
        let mut data = vec![0u8; PAGE_SIZE as usize];
        data[..8].copy_from_slice(&page.0.to_be_bytes());
        data
    }

    /// Cross-transport identity (with
    /// `one_reply_delivered_twice_counts_one_duplicate` in
    /// `ampom_core::reliability`): one reply delivered twice counts
    /// exactly one duplicate.
    #[test]
    fn note_reply_counts_a_resent_copy_exactly_once() {
        let mut t = offline_transport();
        let page = PageId(9);
        t.in_flight.insert(page);
        let data = payload(page);
        t.note_reply(page, &data).unwrap();
        assert!(t.staged.contains(&page));
        assert_eq!(t.stats.duplicate_replies, 0, "first copy is not a dupe");
        t.note_reply(page, &data).unwrap();
        assert_eq!(t.stats.duplicate_replies, 1, "the resent copy is one dupe");
        assert_eq!(t.staged.len(), 1, "staging stays idempotent");
    }

    #[test]
    fn overload_error_reverts_unstaged_prefetch_and_stays_nonfatal() {
        let mut t = offline_transport();
        let staged = PageId(1);
        let shed = PageId(2);
        t.in_flight.insert(staged);
        t.in_flight.insert(shed);
        t.staged.insert(staged);
        t.origin.insert(shed);
        t.handle_frame(
            Frame::Error {
                code: crate::frame::CODE_OVERLOADED,
                detail: "shed prefetch: 2,7".into(),
            },
            SimTime::ZERO,
        )
        .expect("a 503 is non-fatal");
        assert!(
            !t.in_flight.contains(shed),
            "the shed page keeps its in-flight mark"
        );
        assert!(t.origin.contains(&shed), "the shed page left the origin");
        assert!(
            t.in_flight.contains(staged),
            "an already-delivered page was reverted"
        );
        // Every other error code stays fatal.
        let fatal = t.handle_frame(
            Frame::Error {
                code: 400,
                detail: "bad".into(),
            },
            SimTime::ZERO,
        );
        assert!(fatal.is_err());
    }

    #[test]
    fn in_flight_pages_match_a_set_model() {
        use ampom_sim::propcheck::forall;
        use std::ops::Range;
        /// Every in-flight observable of `t` against the model, on the
        /// pages of `words`.
        fn agree(t: &LiveTransport, model: &HashSet<PageId>, words: Range<u64>) {
            assert_eq!(t.in_flight_count(), model.len());
            for word in words {
                let mut want = 0;
                for bit in 0..64 {
                    let p = PageId(word * 64 + bit);
                    assert_eq!(t.is_in_flight(p), model.contains(&p), "membership of {p}");
                    want |= u64::from(model.contains(&p)) << bit;
                }
                assert_eq!(t.in_flight_word(word), want, "word {word}");
            }
        }
        // Which operations the generator reached: an insert of a page in
        // flight, a remove of a page in flight, a remove of one not in
        // flight, a clear of a non-empty set.
        let mut seen = [0u32; 4];
        forall("live-in-flight-model", 256, |g| {
            let mut t = offline_transport();
            let mut model = HashSet::new();
            let span = g.u64(1..300);
            for _ in 0..g.usize(1..200) {
                let page = PageId(g.u64(0..span));
                match g.usize(0..8) {
                    0..=3 => {
                        seen[0] += u32::from(model.contains(&page));
                        assert_eq!(t.in_flight.insert(page), model.insert(page));
                    }
                    4..=6 => {
                        seen[1] += u32::from(model.contains(&page));
                        seen[2] += u32::from(!model.contains(&page));
                        assert_eq!(t.in_flight.remove(page), model.remove(&page));
                    }
                    _ => {
                        seen[3] += u32::from(!model.is_empty());
                        t.in_flight.clear();
                        model.clear();
                        agree(&t, &model, 0..span / 64 + 2);
                    }
                }
                assert_eq!(t.in_flight_count(), model.len());
            }
            // Every word the pages reach, and one past them.
            agree(&t, &model, 0..span / 64 + 2);
        });
        assert!(
            seen.iter().all(|&n| n >= 10),
            "operations reached: {seen:?}"
        );
    }

    #[test]
    fn shed_detail_parser_is_tolerant() {
        assert_eq!(
            shed_pages_from_detail("shed prefetch: 4,5,9"),
            vec![PageId(4), PageId(5), PageId(9)]
        );
        assert_eq!(shed_pages_from_detail("no list here"), Vec::<PageId>::new());
        assert_eq!(
            shed_pages_from_detail("shed prefetch: 3,x,11"),
            vec![PageId(3), PageId(11)],
            "garbage tokens are skipped, not fatal"
        );
    }

    #[test]
    fn note_reply_rejects_corrupt_payload() {
        let mut t = offline_transport();
        let page = PageId(3);
        t.in_flight.insert(page);
        let mut data = payload(page);
        data[0] ^= 0xff;
        assert!(t.note_reply(page, &data).is_err());
    }

    /// Regression for the bulk-fetch duplicate audit: a stray reply to a
    /// request abandoned *before* the bulk fetch must not be booked as a
    /// duplicate (the simulated fallback clears its in-flight set and
    /// books nothing); an overlapping request still *pending* at the
    /// deputy coalesces into one reply; and only a page re-requested
    /// *after* its first copy was served produces a genuine duplicate,
    /// counted exactly once.
    #[test]
    fn bulk_fetch_ignores_strays_and_counts_batch_resends_once() {
        let server = DeputyServer::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let endpoint = Endpoint::tcp(server.local_addr());
        let mut client =
            MigrantClient::connect(endpoint, 64, scheme_byte(Scheme::Ampom)).expect("connect");
        let served = |server: &DeputyServer, want: u64| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while server.stats().pages_served < want {
                assert!(
                    Instant::now() < deadline,
                    "deputy never served {want} pages"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        };

        // An abandoned request: page 7's reply will sit in the socket when
        // the bulk fetch starts (FIFO ordering makes it arrive first).
        client.send_request(Some(PageId(7)), &[]).expect("send");
        let stray_only = fetch_all(&mut client, &[PageId(10), PageId(11)]).expect("fetch");
        assert_eq!(
            stray_only, 0,
            "a stray from an abandoned request is not a duplicate"
        );

        // The same page twice in one request frame: both land in the
        // deputy's pending queue before any service pass, so the second
        // coalesces and exactly one reply comes back — no duplicate.
        let coalesced = fetch_all(&mut client, &[PageId(30), PageId(30), PageId(31)]).expect("f");
        assert_eq!(coalesced, 0, "a coalesced request yields a single reply");
        assert_eq!(server.stats().pages_coalesced, 1);

        // A page re-requested *after* its first copy was served (the
        // deputy's pending entry is gone, so no coalescing): two replies
        // for page 20 on the wire. The second batch page keeps the
        // receive loop alive past the first copy, so the resent copy is
        // observed and counted exactly once.
        client.send_request(Some(PageId(20)), &[]).expect("send");
        served(&server, 6); // 7, 10, 11, 30, 31, 20
        let resent = fetch_all(&mut client, &[PageId(20), PageId(21)]).expect("fetch");
        assert_eq!(resent, 1, "the extra copy of a batch page counts once");

        drop(client);
        server.shutdown();
    }
}
