//! The migrant loop and the deputy↔migrant transport it drives.
//!
//! [`run_with_transport`] is the one per-reference fault loop every
//! forward run goes through: the simulated runner
//! ([`run_workload`](crate::runner::run_workload)), the VM runner
//! ([`run_vm`](crate::vm::run_vm)), each migrant of a multi-run, and the
//! live socket client in `ampom-rpc`. It is Algorithm 1 written once:
//! fault, zone analysis, a demand request with the zone piggy-backed,
//! wait, install — plus the accounting every run reports (the SLO stall
//! sketch, background writeback, series sampling, the phase partition).
//!
//! The loop is an `async fn`, so a migrant can pause mid-stream: its
//! future owns the loop's state and stops at a transport call that must
//! wait for another migrant. [`run_with_transport`] polls it once, over a
//! transport that never waits; [`run_multi`](crate::multirun::run_multi)
//! polls N of them, one per migrant, on one thread. There is no async
//! runtime.
//!
//! [`Transport`] is everything on the far side of the kernel's fault
//! handler: freeze, paging requests, arrival waits, page installs,
//! syscall forwarding, the monitor estimates the analysis consumes, and
//! the write-back of pages evicted under a RAM cap.
//! [`Destination`] is the near side the loop owns: the migrant's address
//! space, its page tables and, under a RAM cap, the CLOCK evictor.
//!
//! [`SimulatedTransport`] is the in-process far side: the FIFO link
//! model, the deputy and the monitor daemon, plus — when the
//! configuration asks for them — FFA's file server and the fault
//! injector's recovery protocol (timeouts, retries, stall-reconnect,
//! eager fallback, remigration). `ampom-rpc` provides the live
//! implementation over TCP or Unix sockets; drivers whose far side
//! cannot carry a feature refuse it at their own entry points (see
//! [`refuse_simulated_only`]).

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

use ampom_mem::eviction::ClockEvictor;
use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_mem::space::{AddressSpace, PageState, TouchOutcome};
use ampom_mem::table::{PageLocation, PageTablePair};
use ampom_net::calibration::{AMPOM_ANALYSIS_COST, MIGRATION_BASE_COST, PER_MESSAGE_OVERHEAD};
use ampom_net::cross::CrossTraffic;
use ampom_net::fault::Fate;
use ampom_net::link::LinkConfig;
use ampom_obs::PhaseBreakdown;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_sim::trace::{Trace, TraceData, TraceKind};
use ampom_workloads::memref::Workload;

use crate::cluster::NetPath;
use crate::deputy::{Deputy, ServedPage};
use crate::error::AmpomError;
use crate::lifecycle::{writeback_batch_bytes, ForwardWriteback};
use crate::metrics::{DeputyStats, FaultStats, RunReport, RunSeries};
use crate::migration::{perform_freeze, FreezeOutcome, PreMigrationState, Scheme};
use crate::monitor::MonitorDaemon;
use crate::policy::{extend_by_word, Fetchable, PrefetchFeedback, Prefetcher};
use crate::prefetcher::{NetEstimates, PrefetchStats};
use crate::reliability::{FailurePolicy, FaultInjector, RetryStep};
use crate::runner::{RunConfig, MINOR_FAULT_COST, PAGE_INSTALL_COST};
use crate::slo::QuantileSketch;

/// The wire between the migrant-side loop and the home-node deputy.
///
/// Implementations own everything on the far side of the kernel's fault
/// handler: the request/reply channel, the staging buffer of arrived
/// pages, and the monitor that estimates `t0`/`td` for the prefetcher.
/// Times are [`SimTime`]: the simulated transport computes them exactly;
/// a live transport maps measured wall-clock waits onto the same axis.
///
/// The `async` methods are the calls whose answer may depend on another
/// migrant: a multi-run member suspends in them until its turn comes
/// (see [`crate::multirun`]). The queries (`is_in_flight`, the byte,
/// deputy and fault counters) stay synchronous. A solo transport —
/// [`SimulatedTransport`], the live client — never suspends, and
/// [`run_with_transport`] treats a suspension as a bug.
// The futures need no `Send` bound: every driver polls on its own thread.
#[allow(async_fn_in_trait)]
pub trait Transport {
    /// Performs the freeze phase of the migration for `scheme`, shipping
    /// whatever the scheme ships eagerly, and returns the resulting
    /// address space / page tables / timing.
    async fn freeze(
        &mut self,
        scheme: Scheme,
        pre: &PreMigrationState,
        trace: &mut Trace,
    ) -> Result<FreezeOutcome, AmpomError>;

    /// Sends one paging request — `demand` first if present, then the
    /// prefetch zone — and appends to `queued` the *prefetch* pages
    /// actually queued (the deputy may drop duplicates; a live client may
    /// trim to its in-flight quota). The demand page is never appended.
    /// `queued` is the caller's, reused from request to request.
    async fn request_pages(
        &mut self,
        now: SimTime,
        demand: Option<PageId>,
        prefetch: &[PageId],
        table: &mut PageTablePair,
        queued: &mut Vec<PageId>,
    ) -> Result<(), AmpomError>;

    /// Blocks until `page` (which must be in flight) is available and
    /// returns its arrival time. May be in the past when the page was
    /// already delivered by the pipeline; callers only advance `now`
    /// forward. The live implementation retries/degrades internally via
    /// the shared [`RetrySchedule`](crate::reliability::RetrySchedule).
    async fn wait_for(&mut self, page: PageId, now: SimTime) -> Result<SimTime, AmpomError>;

    /// Installs every staged page that has arrived by `now` into `dest`,
    /// charging [`PAGE_INSTALL_COST`] per page.
    async fn install_arrived(&mut self, now: &mut SimTime, dest: &mut Destination);

    /// Stalls until the just-requested demand `page` is resident in
    /// `dest`, installing whatever arrives meanwhile, and returns the part
    /// of the clock advance spent stalled (the rest is install charges).
    /// The default waits for the page and installs the arrivals; the
    /// simulated transport adds FFA's file server and the fault
    /// injector's retry/degrade protocol.
    async fn await_demand(
        &mut self,
        page: PageId,
        now: &mut SimTime,
        dest: &mut Destination,
        trace: &mut Trace,
    ) -> Result<SimDuration, AmpomError> {
        let _ = trace;
        await_in_flight(self, page, now, dest).await
    }

    /// Whether `page` has been requested and not yet installed.
    fn is_in_flight(&self, page: PageId) -> bool;

    /// The in-flight pages among `64·word … 64·word + 63` as a bit mask
    /// (bit `i` is page `64·word + i`). The zone filter reads it once per
    /// word of the zone. The default asks [`Self::is_in_flight`] per page;
    /// a transport that keeps a page bitset answers with one word.
    fn in_flight_word(&self, word: u64) -> u64 {
        (0..64)
            .filter(|&bit| self.is_in_flight(PageId(word * 64 + bit)))
            .fold(0, |mask, bit| mask | 1 << bit)
    }

    /// Number of requested-but-uninstalled pages.
    fn in_flight_count(&self) -> usize;

    /// Forwards a system call to the home node (the home dependency,
    /// paper §2.2). Returns when the call was issued — later than `now`
    /// only while the deputy is down — and when it completed.
    async fn forward_syscall(
        &mut self,
        now: SimTime,
        work: SimDuration,
    ) -> Result<(SimTime, SimTime), AmpomError>;

    /// Advances the monitor daemon to `now` and returns its current
    /// `t0`/`td` estimates for the prefetcher's Eq. 3 budget.
    async fn estimates(&mut self, now: SimTime) -> NetEstimates;

    /// Notifies the monitor that the lookback window wrapped `wraps`
    /// times in total (bandwidth re-estimation trigger).
    async fn on_window_wrap(&mut self, now: SimTime, wraps: u64);

    /// Reply-direction link utilisation over `[0, now]` (series samples).
    async fn reply_utilization(&mut self, now: SimTime) -> f64;

    /// Bytes sent home→destination so far.
    fn bytes_to_dest(&self) -> u64;

    /// Bytes sent destination→home so far.
    fn bytes_from_dest(&self) -> u64;

    /// Deputy-side service statistics.
    fn deputy_stats(&self) -> DeputyStats;

    /// Recovery-protocol statistics (retries, reconnects, fallbacks).
    /// A fault-free run reports all-zero.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Pushes `pages` pages evicted under the destination's RAM cap back
    /// to the home node (swap-over-network). Background traffic: the
    /// link is charged, the migrant's clock is not. Transports that
    /// refuse resident limits (see [`refuse_simulated_only`]) never
    /// receive evictions.
    async fn evict_to_home(&mut self, now: SimTime, pages: u64) {
        let _ = (now, pages);
    }

    /// Carries one writeback delta batch toward the home node and returns
    /// `(bytes_on_wire, settled_at)` — the instant the batch is applied
    /// and acknowledged. The default declines (no writeback support):
    /// zero bytes, instant settle. Background semantics: callers charge
    /// the link, not the migrant's clock.
    async fn writeback_batch(
        &mut self,
        now: SimTime,
        seq: u64,
        entries: &[(PageId, u64)],
    ) -> Result<(u64, SimTime), AmpomError> {
        let _ = (seq, entries);
        Ok((0, now))
    }

    /// Drains transport-internal trace events (live connects, retries,
    /// reconnects) accumulated since the last call.
    async fn drain_trace(&mut self) -> Vec<(SimTime, TraceKind, TraceData)> {
        Vec::new()
    }
}

/// [`Transport::await_demand`]'s plain protocol: wait for the page's
/// reply, then install everything that has arrived.
async fn await_in_flight<T: Transport + ?Sized>(
    transport: &mut T,
    page: PageId,
    now: &mut SimTime,
    dest: &mut Destination,
) -> Result<SimDuration, AmpomError> {
    let arrival = transport.wait_for(page, *now).await?;
    let stall = arrival.saturating_since(*now);
    *now = (*now).max(arrival);
    transport.install_arrived(now, dest).await;
    Ok(stall)
}

/// Refuses the features only [`SimulatedTransport`] models — FFA's file
/// server, link-model fault injection and the destination RAM cap — for
/// a `driver` whose far side is a deputy that cannot carry them.
pub fn refuse_simulated_only(cfg: &RunConfig, driver: &str) -> Result<(), AmpomError> {
    let refused = if cfg.scheme == Scheme::Ffa {
        "the FFA scheme (it pages from a file server, not the deputy)"
    } else if cfg.faults.as_ref().is_some_and(|p| !p.is_null()) {
        "a link-model fault profile (its faults come from its own channel)"
    } else if cfg.resident_limit_mb.is_some() {
        "a resident limit (its evictions need the simulated link)"
    } else {
        return Ok(());
    };
    Err(AmpomError::InvalidConfig(format!(
        "{driver} cannot run {refused}; use run_workload"
    )))
}

/// The destination node's half of the migrant, owned by the loop: the
/// address space, the page-table pair and — under a RAM cap — the CLOCK
/// evictor whose victims go back home over the transport.
#[derive(Debug)]
pub struct Destination {
    /// The migrant's address space at the destination.
    pub space: AddressSpace,
    /// The MPT/HPT pair.
    pub(crate) table: PageTablePair,
    evictor: Option<ClockEvictor>,
    /// The page whose fault is being served: eviction never picks it.
    faulting: PageId,
    pages_evicted: u64,
}

impl Destination {
    /// Takes over the freeze's address space and tables under a RAM cap
    /// of `limit_mb`. Whatever the freeze installed beyond the cap goes
    /// straight back (what an eager copy into a too-small node does);
    /// returns the destination and how many pages bounced.
    fn new(space: AddressSpace, table: PageTablePair, limit_mb: Option<u64>) -> (Self, u64) {
        let mut dest = Destination {
            space,
            table,
            evictor: None,
            faulting: PageId(0),
            pages_evicted: 0,
        };
        let Some(mb) = limit_mb else {
            return (dest, 0);
        };
        // Saturating: a cap past the address space's reach is no cap.
        let limit = (mb.saturating_mul(1024 * 1024) / PAGE_SIZE).max(4);
        let mut ev = ClockEvictor::new(dest.space.total_pages(), limit);
        let resident: Vec<PageId> = dest
            .space
            .pages_where(|st| matches!(st, PageState::Resident { .. }))
            .collect();
        for p in resident {
            if ev.at_capacity() {
                dest.pages_evicted += 1;
                dest.table.return_to_origin(p);
                dest.space.mark_remote(p);
            } else {
                ev.on_install(p);
            }
        }
        dest.evictor = Some(ev);
        let bounced = dest.pages_evicted;
        (dest, bounced)
    }

    /// Touches `page`, telling the evictor about hits.
    #[inline]
    fn touch(&mut self, page: PageId, write: bool) -> TouchOutcome {
        let outcome = self.space.touch(page, write);
        if outcome == TouchOutcome::Hit {
            if let Some(ev) = self.evictor.as_mut() {
                ev.on_touch(page);
            }
        }
        outcome
    }

    /// Installs an arrived `page`. Under a RAM cap it first evicts until
    /// the page fits; returns how many pages it evicted, which the
    /// caller ships home.
    fn install(&mut self, page: PageId) -> u64 {
        let evicted = self.admit(page);
        self.space.install(page);
        evicted
    }

    /// Registers a newly resident `page` with the evictor, evicting
    /// until it fits; returns how many pages it evicted.
    fn admit(&mut self, page: PageId) -> u64 {
        let Some(ev) = self.evictor.as_mut() else {
            return 0;
        };
        let mut evicted = 0;
        while ev.at_capacity() {
            let victim = ev.evict(self.faulting);
            if self.table.lookup(victim) == Some(PageLocation::Destination) {
                self.table.return_to_origin(victim);
            }
            self.space.mark_remote(victim);
            evicted += 1;
        }
        ev.on_install(page);
        self.pages_evicted += evicted;
        evicted
    }
}

/// The in-process transport: the FIFO link model, the deputy and the
/// monitor daemon, with FFA's file server and the fault injector when
/// the configuration asks for them.
#[derive(Debug)]
pub struct SimulatedTransport {
    path: NetPath,
    deputy: Deputy,
    monitor: MonitorDaemon,
    /// Requested-but-uninstalled pages and their (earliest) arrival.
    in_flight: InFlight,
    /// Arrived-or-arriving replies in arrival order. The fault-free
    /// reply link is FIFO, so arrivals are monotone; jitter under faults
    /// is inserted in place.
    staged: VecDeque<(SimTime, PageId)>,
    /// The deputy's replies to the request being sent, reused by every
    /// request.
    served: Vec<ServedPage>,
    /// Message loss, deputy outages and the recovery protocol; `None` on
    /// a fault-free run, which then never consults it.
    faults: Option<FaultInjector>,
    /// FFA's file server, set up by an FFA freeze.
    file_server: Option<FileServer>,
}

impl SimulatedTransport {
    /// Builds the transport for `cfg`'s link (with cross traffic when
    /// configured) and fault profile, both seeded from `cfg.seed`.
    pub fn new(cfg: &RunConfig) -> Self {
        let mut path = NetPath::new(cfg.link);
        if let Some(spec) = cfg.cross_traffic {
            path = path.with_cross_traffic(CrossTraffic::new(
                spec.bytes_per_sec,
                spec.burst_bytes,
                SimRng::seed_from_u64(cfg.seed),
            ));
        }
        let monitor = MonitorDaemon::new(&path);
        SimulatedTransport {
            path,
            deputy: Deputy::new(),
            monitor,
            in_flight: InFlight::default(),
            staged: VecDeque::new(),
            served: Vec::new(),
            faults: cfg
                .faults
                .as_ref()
                .filter(|p| !p.is_null())
                .map(|p| FaultInjector::new(p, cfg.link, cfg.seed)),
            file_server: None,
        }
    }

    /// Sends one request to the deputy and registers the delivered
    /// replies; appends the delivered prefetch pages to `queued`. Under
    /// faults the request may be dropped or jittered, the deputy may be
    /// down, and each reply gets its own fate.
    fn send(
        &mut self,
        now: SimTime,
        demand: Option<PageId>,
        prefetch: &[PageId],
        table: &mut PageTablePair,
        queued: &mut Vec<PageId>,
    ) {
        let n_pages = usize::from(demand.is_some()) + prefetch.len();
        let pages = demand.into_iter().chain(prefetch.iter().copied());
        self.served.clear();
        match self.faults.as_mut() {
            None => {
                let at_home = self.path.send_request(now, n_pages);
                self.deputy
                    .serve_request(at_home, pages, table, &mut self.path, &mut self.served);
            }
            Some(f) => {
                let at_home = match f.request_plan.fate() {
                    Fate::Dropped => {
                        self.path.send_request_lost(now, n_pages);
                        f.stats.messages_dropped += 1;
                        return;
                    }
                    Fate::Delivered { extra_delay } => {
                        self.path.send_request(now, n_pages) + extra_delay
                    }
                };
                if f.profile.downtime.is_down(at_home) {
                    // The request reached a dead host; nothing answers.
                    f.stats.deputy_unavailable += 1;
                    return;
                }
                let plan = &mut f.reply_plan;
                let dropped_before = plan.dropped();
                self.deputy.serve_request_faulty(
                    at_home,
                    pages,
                    table,
                    &mut self.path,
                    || plan.fate(),
                    &mut self.served,
                );
                f.stats.messages_dropped += plan.dropped() - dropped_before;
            }
        }
        // The zone never holds the demand page.
        for s in &self.served {
            self.in_flight.insert(s.page, s.arrives);
            stage_sorted(&mut self.staged, s.arrives, s.page);
            if demand != Some(s.page) {
                queued.push(s.page);
            }
        }
    }

    /// [`Transport::install_arrived`]: installs every staged page that
    /// has arrived by `now`. The pages the installs evict all leave at
    /// `now`, so they go home in one call once the pass is done.
    fn install_staged(&mut self, now: &mut SimTime, dest: &mut Destination) {
        let mut installed = 0u64;
        let mut evicted = 0u64;
        while let Some(&(arrival, page)) = self.staged.front() {
            if arrival > *now {
                break;
            }
            self.staged.pop_front();
            self.in_flight.remove(page);
            match dest.space.state(page) {
                PageState::Remote => {}
                PageState::Resident { .. } => {
                    // Jitter reorders and retries duplicate replies: a
                    // copy of a page the migrant already has is counted,
                    // never installed twice.
                    if let Some(f) = self.faults.as_mut() {
                        f.stats.duplicate_replies += 1;
                    }
                    continue;
                }
                // Evicted while in flight and re-created locally; drop
                // the stale copy.
                PageState::Untouched => continue,
            }
            evicted += dest.install(page);
            installed += 1;
        }
        self.evict(*now, evicted);
        if installed > 0 {
            *now += PAGE_INSTALL_COST.saturating_mul(installed);
        }
    }

    /// [`Transport::evict_to_home`]: one page-sized message home per
    /// evicted page, all sent at `now`.
    fn evict(&mut self, now: SimTime, pages: u64) {
        self.path
            .send_controls_to_home(now, NetPath::page_reply_bytes(), pages);
    }

    /// Requests `demand` alone again. It queues no prefetch page, so the
    /// list it passes stays empty and never allocates.
    fn resend_demand(&mut self, now: SimTime, demand: PageId, dest: &mut Destination) {
        self.send(now, Some(demand), &[], &mut dest.table, &mut Vec::new());
    }

    fn injector(&mut self) -> &mut FaultInjector {
        self.faults
            .as_mut()
            .expect("recovery runs only under a fault profile")
    }

    /// The demand wait under faults: stall for the faulted page with
    /// timeouts, backoff and retries, degrading via the configured
    /// [`FailurePolicy`] when the budget runs out. On return the demanded
    /// page is resident; the result is the time spent stalled.
    fn await_with_recovery(
        &mut self,
        demand: PageId,
        now: &mut SimTime,
        dest: &mut Destination,
    ) -> SimDuration {
        let mut stall = SimDuration::ZERO;
        self.injector().schedule.begin_wait();
        loop {
            self.install_staged(now, dest);
            if dest.space.is_resident(demand) {
                return stall;
            }
            let deadline = self.injector().schedule.deadline_after(*now);
            if let Some(arrival) = self.in_flight.arrival(demand) {
                if arrival <= deadline {
                    // The reply is on the wire and will beat the timer.
                    // Saturating: the per-page install charge advances the
                    // clock after the pop loop breaks, so a big arrived
                    // batch can push `now` past the next arrival — the
                    // reply is then already here and the next install pass
                    // picks it up.
                    stall += arrival.saturating_since(*now);
                    *now = (*now).max(arrival);
                    continue;
                }
            }
            // Nothing (timely) in flight: the timer fires.
            stall += deadline.since(*now);
            *now = deadline;
            let f = self.injector();
            f.stats.timeouts += 1;
            let policy = match f.schedule.on_timeout() {
                RetryStep::Retry => {
                    f.stats.retries += 1;
                    self.resend_demand(*now, demand, dest);
                    continue;
                }
                // Retry budget exhausted: graceful degradation (the
                // schedule already forced the eager fallback if this run
                // is past its policy-cycle cap).
                RetryStep::Degrade(policy) => policy,
            };
            f.stats.reconnects += 1;
            let start = *now;
            let up = f.profile.downtime.next_up(*now);
            match policy {
                FailurePolicy::StallReconnect => {
                    // Wait out any deputy downtime; if the demand's reply
                    // is already on the wire (timeouts were just tighter
                    // than a congested reply queue), stall for it instead
                    // of re-requesting into the backlog.
                    f.schedule.begin_wait();
                    match self.in_flight.arrival(demand) {
                        Some(arrival) => *now = up.max(arrival),
                        None => {
                            *now = up;
                            self.resend_demand(*now, demand, dest);
                        }
                    }
                }
                FailurePolicy::EagerFallback => self.eager_fallback(up, now, dest),
                FailurePolicy::Remigrate => self.remigrate(up, now, dest),
            }
            let spent = now.since(start);
            stall += spent;
            self.injector().stats.recovery_time += spent;
        }
    }

    /// Residual eager copy from `up` (the deputy back): abandon
    /// outstanding requests and ship every page still remote in one bulk
    /// transfer, as the original openMosix would have at freeze time.
    fn eager_fallback(&mut self, up: SimTime, now: &mut SimTime, dest: &mut Destination) {
        self.staged.clear();
        self.in_flight.clear();
        let remote: Vec<PageId> = dest
            .space
            .pages_where(|st| matches!(st, PageState::Remote))
            .collect();
        for &p in &remote {
            if dest.table.lookup(p) == Some(PageLocation::Origin) {
                dest.table.transfer_to_destination(p);
            }
        }
        let n = remote.len() as u64;
        *now = self.path.bulk_transfer(up, n * PAGE_SIZE);
        let evicted = remote.iter().map(|&p| dest.install(p)).sum();
        self.evict(*now, evicted);
        *now += PAGE_INSTALL_COST.saturating_mul(n);
        self.injector().stats.fallback_pages += n;
    }

    /// Migrate back home from `up`: write the dirty resident pages back,
    /// pay the migration base cost, and continue co-located with the home
    /// node — every remaining remote page becomes a local page there.
    fn remigrate(&mut self, up: SimTime, now: &mut SimTime, dest: &mut Destination) {
        self.staged.clear();
        self.in_flight.clear();
        let resident: Vec<PageId> = dest
            .space
            .pages_where(|st| matches!(st, PageState::Resident { .. }))
            .collect();
        let bytes = resident.len() as u64 * PAGE_SIZE;
        *now = self
            .path
            .bulk_transfer_to_home(up + MIGRATION_BASE_COST, bytes);
        for &p in &resident {
            if dest.table.lookup(p) == Some(PageLocation::Destination) {
                dest.table.return_to_origin(p);
            }
        }
        let remote: Vec<PageId> = dest
            .space
            .pages_where(|st| matches!(st, PageState::Remote))
            .collect();
        for &p in &remote {
            dest.space.install(p);
        }
        self.injector().stats.remigrated = true;
    }
}

impl Transport for SimulatedTransport {
    async fn freeze(
        &mut self,
        scheme: Scheme,
        pre: &PreMigrationState,
        trace: &mut Trace,
    ) -> Result<FreezeOutcome, AmpomError> {
        let outcome = perform_freeze(scheme, pre, &mut self.path, trace);
        if scheme == Scheme::Ffa {
            let resume_at = SimTime::ZERO + outcome.freeze_time;
            self.file_server = Some(FileServer::new(pre, resume_at, self.path.config()));
        }
        Ok(outcome)
    }

    async fn request_pages(
        &mut self,
        now: SimTime,
        demand: Option<PageId>,
        prefetch: &[PageId],
        table: &mut PageTablePair,
        queued: &mut Vec<PageId>,
    ) -> Result<(), AmpomError> {
        // FFA faults are served by the file server at the wait.
        if self.file_server.is_none() {
            self.send(now, demand, prefetch, table, queued);
        }
        Ok(())
    }

    async fn wait_for(&mut self, page: PageId, _now: SimTime) -> Result<SimTime, AmpomError> {
        self.in_flight.arrival(page).ok_or_else(|| {
            AmpomError::Transport(format!("page {page} awaited but never requested"))
        })
    }

    async fn install_arrived(&mut self, now: &mut SimTime, dest: &mut Destination) {
        self.install_staged(now, dest);
    }

    async fn await_demand(
        &mut self,
        page: PageId,
        now: &mut SimTime,
        dest: &mut Destination,
        trace: &mut Trace,
    ) -> Result<SimDuration, AmpomError> {
        if let Some(fs) = self.file_server.as_ref() {
            let done = fs.fetch(*now, page, trace);
            let stall = done.since(*now);
            *now = done;
            dest.table.transfer_to_destination(page);
            let evicted = dest.install(page);
            self.evict(*now, evicted);
            return Ok(stall);
        }
        if self.faults.is_some() {
            return Ok(self.await_with_recovery(page, now, dest));
        }
        await_in_flight(self, page, now, dest).await
    }

    fn is_in_flight(&self, page: PageId) -> bool {
        self.in_flight.contains(page)
    }

    fn in_flight_word(&self, word: u64) -> u64 {
        self.in_flight.word(word)
    }

    fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    async fn forward_syscall(
        &mut self,
        now: SimTime,
        work: SimDuration,
    ) -> Result<(SimTime, SimTime), AmpomError> {
        // The home dependency is absolute: a forwarded call can only
        // execute once the deputy is back up.
        let issued = self
            .faults
            .as_mut()
            .and_then(|f| f.syscall_delay(now))
            .unwrap_or(now);
        let done = self.deputy.forward_syscall(issued, work, &mut self.path);
        Ok((issued, done))
    }

    async fn estimates(&mut self, now: SimTime) -> NetEstimates {
        self.monitor.advance(now, &mut self.path);
        self.monitor.estimates()
    }

    async fn on_window_wrap(&mut self, now: SimTime, wraps: u64) {
        self.monitor.on_window_wrap(now, wraps, &self.path);
    }

    async fn reply_utilization(&mut self, now: SimTime) -> f64 {
        self.path.reply_utilization(now)
    }

    fn bytes_to_dest(&self) -> u64 {
        self.path.bytes_to_dest()
    }

    fn bytes_from_dest(&self) -> u64 {
        self.path.bytes_from_dest()
    }

    fn deputy_stats(&self) -> DeputyStats {
        self.deputy.stats()
    }

    fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    async fn evict_to_home(&mut self, now: SimTime, pages: u64) {
        self.evict(now, pages);
    }

    async fn writeback_batch(
        &mut self,
        now: SimTime,
        _seq: u64,
        entries: &[(PageId, u64)],
    ) -> Result<(u64, SimTime), AmpomError> {
        let bytes = writeback_batch_bytes(entries.len());
        let arrival = self.path.send_control_to_home(now, bytes);
        Ok((bytes, arrival))
    }
}

/// The requested-but-uninstalled pages of [`SimulatedTransport`].
///
/// The zone filter asks "which of these 64 pages are in flight?" once per
/// word of the zone, so membership is a page-indexed bitset (1 bit per
/// page, grown on demand). Arrival times sit in a page-indexed array
/// beside it, grown with the bitset to the highest page requested (8 B
/// per page). An entry is valid only while its page's bit is set: a
/// remove or a clear resets bits and the count, never the array.
#[derive(Debug, Default)]
struct InFlight {
    bits: PageBits,
    arrivals: Vec<SimTime>,
    len: usize,
}

impl InFlight {
    /// Marks `page` in flight. A retry's resend can race the late
    /// original; the earliest arrival is kept so the migrant never waits
    /// longer than it has to.
    fn insert(&mut self, page: PageId, arrives: SimTime) {
        let i = page.index() as usize;
        if self.bits.contains(page) {
            self.arrivals[i] = self.arrivals[i].min(arrives);
            return;
        }
        if i >= self.arrivals.len() {
            // A whole bitset word at a time.
            self.arrivals.resize((i / 64 + 1) * 64, SimTime::ZERO);
        }
        self.arrivals[i] = arrives;
        self.bits.insert(page);
        self.len += 1;
    }

    fn remove(&mut self, page: PageId) {
        if self.bits.remove(page) {
            self.len -= 1;
        }
    }

    fn clear(&mut self) {
        self.bits.clear();
        self.len = 0;
    }

    fn contains(&self, page: PageId) -> bool {
        self.bits.contains(page)
    }

    fn word(&self, word: u64) -> u64 {
        self.bits.word(word)
    }

    fn arrival(&self, page: PageId) -> Option<SimTime> {
        self.contains(page)
            .then(|| self.arrivals[page.index() as usize])
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// A page-indexed bitset, 1 bit per page, grown on demand: an in-flight
/// set the zone filter reads 64 pages per word (see
/// [`Transport::in_flight_word`]).
#[derive(Debug, Default)]
pub struct PageBits(Vec<u64>);

impl PageBits {
    /// Adds `page`; true when it was not in the set.
    pub fn insert(&mut self, page: PageId) -> bool {
        let (word, bit) = Self::slot(page);
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let added = self.0[word] & bit == 0;
        self.0[word] |= bit;
        added
    }

    /// Removes `page`; true when it was in the set.
    pub fn remove(&mut self, page: PageId) -> bool {
        let (word, bit) = Self::slot(page);
        match self.0.get_mut(word) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                true
            }
            _ => false,
        }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Whether `page` is in the set.
    pub fn contains(&self, page: PageId) -> bool {
        let (word, bit) = Self::slot(page);
        self.0.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Membership of pages `64·word … 64·word + 63`; words past the end
    /// of the bitset hold no page.
    pub fn word(&self, word: u64) -> u64 {
        usize::try_from(word)
            .ok()
            .and_then(|w| self.0.get(w))
            .copied()
            .unwrap_or(0)
    }

    fn slot(page: PageId) -> (usize, u64) {
        ((page.index() / 64) as usize, 1 << (page.index() % 64))
    }
}

/// Inserts `(arrives, page)` keeping `staged` sorted by arrival time, after
/// every equal arrival. On a FIFO link each arrival is the latest yet, and
/// is appended; jitter makes arrivals slightly out of order, and scanning
/// from the back is O(displacement), which is tiny in practice.
fn stage_sorted(staged: &mut VecDeque<(SimTime, PageId)>, arrives: SimTime, page: PageId) {
    if staged.back().is_none_or(|&(last, _)| last <= arrives) {
        staged.push_back((arrives, page));
        return;
    }
    let mut idx = staged.len();
    while idx > 0 && staged[idx - 1].0 > arrives {
        idx -= 1;
    }
    staged.insert(idx, (arrives, page));
}

/// FFA's file server: the home node streams every dirty page to it at
/// link speed from resume on (the home↔file-server link does not contend
/// with the migrant's path), and faults are served from it.
#[derive(Debug)]
struct FileServer {
    /// Completion time of each page's flush to the file server.
    flush_done: HashMap<PageId, SimTime>,
    /// File-server link (latency/capacity like the cluster LAN).
    link: LinkConfig,
}

impl FileServer {
    fn new(pre: &PreMigrationState, resume_at: SimTime, link: LinkConfig) -> Self {
        let per_page = link.serialization_time(PAGE_SIZE);
        let mut flush_done = HashMap::new();
        let mut t = resume_at;
        for p in pre.dirty_pages() {
            t += per_page;
            flush_done.insert(p, t + link.latency);
        }
        FileServer { flush_done, link }
    }

    /// Demand-fetches `page` at `now`; returns when the page is at the
    /// destination.
    fn fetch(&self, now: SimTime, page: PageId, trace: &mut Trace) -> SimTime {
        let request_arrives = now + PER_MESSAGE_OVERHEAD + self.link.latency;
        let available = self
            .flush_done
            .get(&page)
            .copied()
            .unwrap_or(request_arrives);
        let served = request_arrives.max(available);
        let reply = served + self.link.serialization_time(PAGE_SIZE + 32) + self.link.latency;
        trace.record_with(reply, TraceKind::FileServerFlush, || {
            TraceData::page(page.index()).with_note("via file server")
        });
        reply
    }
}

/// Executes `workload` under `cfg` against an arbitrary [`Transport`]:
/// the migrant loop every forward run goes through. The prefetch policy
/// is `cfg.policy` under [`Scheme::Ampom`] and none otherwise.
///
/// # Panics
/// Panics if the transport suspends the loop: only a multi-run member
/// waits on other migrants, and [`run_multi`](crate::multirun::run_multi)
/// drives those itself.
pub fn run_with_transport<W: Workload + ?Sized, T: Transport>(
    workload: &mut W,
    cfg: &RunConfig,
    transport: &mut T,
) -> Result<RunReport, AmpomError> {
    run_solo(migrant_loop(workload, cfg, transport))
}

/// Runs a future over a transport that never suspends to its end.
///
/// # Panics
/// Panics if the future suspends: a solo transport that returns
/// `Pending` is a bug, and nothing would ever wake it.
pub(crate) fn run_solo<F: Future>(fut: F) -> F::Output {
    let mut fut = pin!(fut);
    match fut.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("a solo transport suspended the migrant loop"),
    }
}

/// The migrant loop as a future: [`run_with_transport`] without the
/// driver. Over a multi-run member it suspends wherever the member waits
/// for its turn; its output is the run's report.
pub(crate) async fn migrant_loop<W: Workload + ?Sized, T: Transport>(
    workload: &mut W,
    cfg: &RunConfig,
    transport: &mut T,
) -> Result<RunReport, AmpomError> {
    cfg.validate()?;
    let mut policy = (cfg.scheme == Scheme::Ampom).then(|| cfg.policy.build(&cfg.ampom));
    let prefetcher = policy.as_deref_mut().map(|p| p as &mut dyn Prefetcher);
    drive(workload, cfg, transport, prefetcher).await
}

/// References the loop pulls from its workload per
/// [`Workload::next_block`] call: 6 KB of `MemRef`s, small enough to stay
/// in L1, so a `dyn Workload` costs one virtual call per 256 references.
const REF_BLOCK: usize = 256;

/// The loop itself, with the prefetcher supplied by the caller (the VM
/// runner routes faults to per-guest windows).
///
/// It pulls references a block at a time, so the workload may be up to
/// [`REF_BLOCK`] references ahead of the simulation; a [`Workload`] is
/// open-loop, so that changes nothing it yields.
pub(crate) async fn drive<W: Workload + ?Sized, T: Transport>(
    workload: &mut W,
    cfg: &RunConfig,
    transport: &mut T,
    mut prefetcher: Option<&mut dyn Prefetcher>,
) -> Result<RunReport, AmpomError> {
    let layout = workload.layout().clone();
    let pre = PreMigrationState::new(layout.clone(), workload.allocation_pages());
    let program_mb = (pre.allocated.len() as u64 * PAGE_SIZE) >> 20;

    let mut trace = if cfg.trace {
        Trace::enabled()
    } else {
        Trace::disabled()
    };

    let freeze = transport.freeze(cfg.scheme, &pre, &mut trace).await?;
    let mut now = SimTime::ZERO + freeze.freeze_time;
    let (mut dest, bounced) = Destination::new(freeze.space, freeze.table, cfg.resident_limit_mb);
    if bounced > 0 {
        transport.evict_to_home(now, bounced).await;
    }

    let total_pages = layout.total_pages();
    let mut was_prefetched = vec![false; total_pages as usize];
    let mut series = cfg.sample_series_every.map(|_| RunSeries::default());
    let sample_every = cfg.sample_series_every.unwrap_or(u64::MAX);
    let mut faults_since_sample = 0u64;

    // Measurement state.
    let mut compute_time = SimDuration::ZERO;
    let mut stall_time = SimDuration::ZERO;
    // Per-fault stall distribution for the SLO layer. Syscall-delay
    // stalls are not recorded: the sketch measures paging behaviour.
    let mut stall_sketch = QuantileSketch::new();
    let mut analysis_time = SimDuration::ZERO;
    // Phase attribution: every clock advance below is charged to exactly
    // one phase, so the disjoint phases sum to total_time to the
    // nanosecond (tested in tests/observability.rs).
    let mut install_time = SimDuration::ZERO;
    let mut prefetch_overlap = SimDuration::ZERO;
    let mut faults_total = 0u64;
    let mut fault_requests = 0u64;
    let mut prefetch_only_requests = 0u64;
    let mut pages_demand = 0u64;
    let mut pages_prefetched = 0u64;
    let mut prefetched_used = 0u64;
    let mut pages_local_alloc = 0u64;

    // CPU-utilisation tracking for the C array: share of wall time spent
    // computing since the previous fault.
    let mut cpu_since_fault = SimDuration::ZERO;
    let mut last_fault_at = now;

    let mut syscalls_forwarded = 0u64;
    let mut syscall_time = SimDuration::ZERO;
    let mut refs_since_syscall = 0u64;

    // Background writeback (None on the fingerprint-pinned default path).
    let mut wb = cfg.writeback.map(ForwardWriteback::new);

    let page_limit = PageId(total_pages);
    // Whether a requested page is still in flight. Only a transport call
    // can change it, so it is re-read after each one, not on every hit.
    let mut pages_in_flight = false;
    // The analysis's zone and the prefetch pages a request queued, reused
    // by every fault.
    let mut prefetch = Vec::new();
    let mut queued = Vec::new();

    let mut block = Vec::with_capacity(REF_BLOCK);
    loop {
        block.clear();
        workload.next_block(&mut block, REF_BLOCK);
        if block.is_empty() {
            break;
        }
        for &r in &block {
            if let Some(profile) = cfg.syscalls {
                refs_since_syscall += 1;
                if refs_since_syscall >= profile.every_refs {
                    refs_since_syscall = 0;
                    let (issued, done) = transport.forward_syscall(now, profile.work).await?;
                    stall_time += issued.since(now);
                    syscall_time += done.since(issued);
                    syscalls_forwarded += 1;
                    trace.record(done, TraceKind::SyscallForwarded, TraceData::empty());
                    now = done;
                    pages_in_flight = transport.in_flight_count() > 0;
                }
            }

            // Prefetch-usage accounting (one cheap indexed read per touch).
            let pidx = r.page.index() as usize;
            if was_prefetched[pidx] {
                was_prefetched[pidx] = false;
                prefetched_used += 1;
            }

            let outcome = dest.touch(r.page, r.write);
            match outcome {
                TouchOutcome::Hit => {
                    if let Some(wb) = wb.as_mut() {
                        wb.note_touch(r.page, r.write);
                    }
                }
                TouchOutcome::LocalAllocate => {
                    // Anonymous first touch: minor fault, no network. Still a
                    // fault for the lookback window — the kernel handler runs.
                    faults_total += 1;
                    pages_local_alloc += 1;
                    dest.faulting = r.page;
                    if let Some(wb) = wb.as_mut() {
                        // First touches allocate dirty (zero-fill).
                        wb.note_touch(r.page, true);
                    }
                    now += MINOR_FAULT_COST;
                    if dest.table.lookup(r.page).is_none() {
                        dest.table.create_at_destination(r.page);
                    }
                    let evicted = dest.admit(r.page);
                    if evicted > 0 {
                        transport.evict_to_home(now, evicted).await;
                    }
                    let util = utilization(cpu_since_fault, now, last_fault_at);
                    last_fault_at = now;
                    cpu_since_fault = SimDuration::ZERO;
                    if let Some(pf) = prefetcher.as_deref_mut() {
                        analyze(
                            pf,
                            r.page,
                            &mut now,
                            util,
                            transport,
                            page_limit,
                            &dest.space,
                            PrefetchFeedback {
                                pages_prefetched,
                                prefetched_used,
                            },
                            &mut analysis_time,
                            &mut trace,
                            &mut prefetch,
                        )
                        .await;
                        if !prefetch.is_empty() {
                            prefetch_only_requests += 1;
                            transport
                                .request_pages(now, None, &prefetch, &mut dest.table, &mut queued)
                                .await?;
                            note_queued(&mut queued, &mut was_prefetched, &mut pages_prefetched);
                        }
                    }
                }
                TouchOutcome::RemoteFault => {
                    faults_total += 1;
                    let fault_at = now;
                    dest.faulting = r.page;
                    trace.record(now, TraceKind::PageFault, TraceData::page(r.page.index()));
                    if let Some(wb) = wb.as_mut() {
                        if wb.on_fault() {
                            flush_writeback(wb, now, transport, &mut dest.space, &mut trace)
                                .await?;
                        }
                    }
                    let install_from = now;
                    transport.install_arrived(&mut now, &mut dest).await;
                    install_time += now.since(install_from);

                    let util = utilization(cpu_since_fault, fault_at, last_fault_at);
                    last_fault_at = fault_at;
                    cpu_since_fault = SimDuration::ZERO;

                    // Prefetch analysis (every fault, per Algorithm 1).
                    match prefetcher.as_deref_mut() {
                        Some(pf) => {
                            analyze(
                                pf,
                                r.page,
                                &mut now,
                                util,
                                transport,
                                page_limit,
                                &dest.space,
                                PrefetchFeedback {
                                    pages_prefetched,
                                    prefetched_used,
                                },
                                &mut analysis_time,
                                &mut trace,
                                &mut prefetch,
                            )
                            .await
                        }
                        None => prefetch.clear(),
                    }

                    if let Some(series) = series.as_mut() {
                        faults_since_sample += 1;
                        if faults_since_sample >= sample_every {
                            faults_since_sample = 0;
                            series
                                .in_flight
                                .push(now, transport.in_flight_count() as f64);
                            series
                                .resident
                                .push(now, dest.space.resident_pages() as f64);
                            if let Some(pf) = prefetcher.as_deref() {
                                series
                                    .zone_budget
                                    .push(now, pf.observe().stats.budgets.mean());
                            }
                            series
                                .link_utilization
                                .push(now, transport.reply_utilization(now).await);
                        }
                    }

                    if dest.space.is_resident(r.page) || transport.is_in_flight(r.page) {
                        // Arrived with the last batch, or already requested:
                        // no demand request ("wait for i to arrive"). Any new
                        // zone pages still go out.
                        if !prefetch.is_empty() {
                            prefetch_only_requests += 1;
                            transport
                                .request_pages(now, None, &prefetch, &mut dest.table, &mut queued)
                                .await?;
                            note_queued(&mut queued, &mut was_prefetched, &mut pages_prefetched);
                        }
                        if !dest.space.is_resident(r.page) {
                            let arrival = transport.wait_for(r.page, now).await?;
                            if arrival > now {
                                stall_time += arrival.since(now);
                                stall_sketch.record(arrival.since(now));
                                now = arrival;
                            }
                            let install_from = now;
                            transport.install_arrived(&mut now, &mut dest).await;
                            install_time += now.since(install_from);
                            trace.record_with(now, TraceKind::FaultResolved, || {
                                TraceData::page(r.page.index()).with_note("pipelined")
                            });
                        }
                    } else {
                        // Demand fetch, zone piggy-backed.
                        fault_requests += 1;
                        pages_demand += 1;
                        trace.record(
                            now,
                            TraceKind::PagingRequest,
                            TraceData::page(r.page.index()).with_pages(prefetch.len() as u64),
                        );
                        transport
                            .request_pages(
                                now,
                                Some(r.page),
                                &prefetch,
                                &mut dest.table,
                                &mut queued,
                            )
                            .await?;
                        note_queued(&mut queued, &mut was_prefetched, &mut pages_prefetched);
                        let wait_from = now;
                        let stall = transport
                            .await_demand(r.page, &mut now, &mut dest, &mut trace)
                            .await?;
                        stall_time += stall;
                        stall_sketch.record(stall);
                        install_time += now.since(wait_from).saturating_sub(stall);
                        trace.record(
                            now,
                            TraceKind::FaultResolved,
                            TraceData::page(r.page.index()),
                        );
                    }

                    // The faulted page is resident now; apply the touch.
                    debug_assert!(dest.space.is_resident(r.page));
                    let retouch = dest.touch(r.page, r.write);
                    debug_assert_eq!(retouch, TouchOutcome::Hit);
                    if let Some(wb) = wb.as_mut() {
                        wb.note_touch(r.page, r.write);
                    }
                }
            }
            if outcome != TouchOutcome::Hit {
                pages_in_flight = transport.in_flight_count() > 0;
            }
            now += r.cpu;
            compute_time += r.cpu;
            cpu_since_fault += r.cpu;
            if pages_in_flight {
                prefetch_overlap += r.cpu;
            }
        }
    }

    // Final writeback drain: the run ends with every dirty page home.
    if let Some(wb) = wb.as_mut() {
        flush_writeback(wb, now, transport, &mut dest.space, &mut trace).await?;
    }

    for (at, kind, data) in transport.drain_trace().await {
        trace.record(at, kind, data);
    }
    trace.record(now, TraceKind::WorkloadDone, TraceData::empty());
    let total_time = now.since(SimTime::ZERO);

    let prefetch_stats = prefetcher.map_or_else(PrefetchStats::default, |pf| pf.observe().stats);

    let fault_stats = transport.fault_stats();
    let phases = PhaseBreakdown {
        freeze: freeze.freeze_time,
        compute: compute_time,
        minor_fault: MINOR_FAULT_COST.saturating_mul(pages_local_alloc),
        analysis: analysis_time,
        install: install_time,
        fault_stall: stall_time.saturating_sub(fault_stats.recovery_time),
        recovery: fault_stats.recovery_time,
        syscall: syscall_time,
        prefetch_overlap,
    };

    Ok(RunReport {
        scheme: cfg.scheme,
        workload: workload.name().to_string(),
        program_mb,
        freeze_time: freeze.freeze_time,
        total_time,
        compute_time,
        stall_time,
        stall_sketch,
        faults_total,
        fault_requests,
        prefetch_only_requests,
        pages_demand_fetched: pages_demand,
        pages_prefetched,
        prefetched_pages_used: prefetched_used,
        pages_local_alloc,
        syscalls_forwarded,
        syscall_time,
        pages_evicted: dest.pages_evicted,
        bytes_to_dest: transport.bytes_to_dest(),
        bytes_from_dest: transport.bytes_from_dest(),
        mpt_bytes: freeze.mpt_bytes,
        analysis_time,
        analysis_count: prefetch_stats.analyses,
        prefetch_stats,
        faults: fault_stats,
        deputy: transport.deputy_stats(),
        writeback: wb.map(|w| w.stats()).unwrap_or_default(),
        trace,
        series,
        phases,
    })
}

/// Ships every ready writeback batch over the transport and cleans the
/// flushed pages (background traffic: the link is charged, the migrant's
/// clock is not).
async fn flush_writeback<T: Transport>(
    wb: &mut ForwardWriteback,
    now: SimTime,
    transport: &mut T,
    space: &mut AddressSpace,
    trace: &mut Trace,
) -> Result<(), AmpomError> {
    while let Some((seq, entries)) = wb.take_batch() {
        let (bytes, acked_at) = transport.writeback_batch(now, seq, entries).await?;
        trace.record_with(now, TraceKind::WritebackFlush, || TraceData {
            pages: Some(entries.len() as u64),
            bytes: Some(bytes),
            ..TraceData::default()
        });
        for &(p, _) in entries {
            space.clean(p);
        }
        wb.complete(bytes, now, acked_at);
    }
    Ok(())
}

/// Marks the prefetch pages a request actually queued, leaving the list
/// empty for the next request.
fn note_queued(queued: &mut Vec<PageId>, was_prefetched: &mut [bool], pages_prefetched: &mut u64) {
    for page in queued.drain(..) {
        *pages_prefetched += 1;
        was_prefetched[page.index() as usize] = true;
    }
}

/// Share of wall time spent computing since the last fault (the `C_i` of
/// each window record).
fn utilization(cpu: SimDuration, now: SimTime, last_fault: SimTime) -> f64 {
    let wall = now.saturating_since(last_fault).as_secs_f64();
    if wall <= 0.0 {
        1.0
    } else {
        (cpu.as_secs_f64() / wall).clamp(0.0, 1.0)
    }
}

/// The forward loop's answer to the zone query: a page is fetchable when
/// it is remote in the destination's address space and not in flight.
/// Read a word at a time, in-flight mask first: in steady state nearly
/// every word of the zone is already in flight, and then the address
/// space is not read at all.
struct ZoneFilter<'a, T> {
    space: &'a AddressSpace,
    transport: &'a T,
}

impl<T: Transport> Fetchable for ZoneFilter<'_, T> {
    fn extend_fetchable(&mut self, start: PageId, end: PageId, out: &mut Vec<PageId>) {
        extend_by_word(start, end, out, |word, run| {
            let left = run & !self.transport.in_flight_word(word);
            if left == 0 {
                0
            } else {
                left & self.space.remote_word(word)
            }
        });
    }
}

/// One prefetch analysis against the transport's monitor estimates:
/// outcome feedback, the policy's window/zone decision into `prefetch`,
/// and the analysis-time charge.
#[allow(clippy::too_many_arguments)]
async fn analyze<T: Transport>(
    pf: &mut dyn Prefetcher,
    page: PageId,
    now: &mut SimTime,
    util: f64,
    transport: &mut T,
    page_limit: PageId,
    space: &AddressSpace,
    feedback: PrefetchFeedback,
    analysis_time: &mut SimDuration,
    trace: &mut Trace,
    prefetch: &mut Vec<PageId>,
) {
    let est = transport.estimates(*now).await;
    pf.note_outcome(feedback);
    let mut filter = ZoneFilter {
        space,
        transport: &*transport,
    };
    let decision = pf.on_fault(page, *now, util, est, page_limit, &mut filter, prefetch);
    if decision.score_clamped {
        trace.record(
            *now,
            TraceKind::ScoreClamped,
            TraceData::page(page.index())
                .with_score(decision.score)
                .with_raw(decision.raw_score),
        );
    }
    trace.record(
        *now,
        TraceKind::ZoneAnalysis,
        TraceData::page(page.index())
            .with_zone(decision.budget)
            .with_raw(decision.n_raw)
            .with_score(decision.score)
            .with_rate(decision.rate)
            .with_rtt_ns(est.t0.saturating_mul(2).as_nanos()),
    );
    *now += AMPOM_ANALYSIS_COST;
    *analysis_time += AMPOM_ANALYSIS_COST;
    transport
        .on_window_wrap(*now, pf.observe().window_wraps)
        .await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::FaultProfile;
    use ampom_mem::region::MemoryLayout;
    use ampom_workloads::synthetic::Sequential;

    const CPU: SimDuration = SimDuration::from_micros(10);

    fn run_sim(cfg: &RunConfig, pages: u64) -> RunReport {
        let mut w = Sequential::new(pages, CPU);
        let mut t = SimulatedTransport::new(cfg);
        run_with_transport(&mut w, cfg, &mut t).expect("valid config")
    }

    #[test]
    fn simulated_transport_completes_every_scheme_and_feature() {
        for scheme in [
            Scheme::Ampom,
            Scheme::NoPrefetch,
            Scheme::OpenMosix,
            Scheme::Ffa,
        ] {
            let r = run_sim(&RunConfig::new(scheme), 128);
            assert_eq!(r.scheme, scheme);
            assert!(r.total_time > SimDuration::ZERO);
        }
        let lossy = run_sim(
            &RunConfig::new(Scheme::Ampom).with_faults(FaultProfile::lossy(0.1)),
            256,
        );
        assert!(lossy.faults.messages_dropped > 0);
        let capped = run_sim(
            &RunConfig::new(Scheme::Ampom).with_resident_limit_mb(1),
            512,
        );
        assert!(capped.pages_evicted > 0);
    }

    #[test]
    fn deputy_drivers_refuse_what_only_the_simulation_models() {
        let ok = RunConfig::new(Scheme::Ampom);
        assert!(refuse_simulated_only(&ok, "x").is_ok());
        for cfg in [
            RunConfig::new(Scheme::Ffa),
            ok.clone().with_faults(FaultProfile::lossy(0.1)),
            ok.clone().with_resident_limit_mb(1),
        ] {
            let err = refuse_simulated_only(&cfg, "x").unwrap_err();
            assert!(matches!(err, AmpomError::InvalidConfig(_)));
        }
    }

    #[test]
    #[should_panic(expected = "suspended")]
    fn a_solo_loop_that_suspends_fails_loudly() {
        run_solo(std::future::pending::<()>());
    }

    #[test]
    fn waiting_for_unrequested_page_is_a_transport_error() {
        let cfg = RunConfig::new(Scheme::Ampom);
        let mut t = SimulatedTransport::new(&cfg);
        let err = run_solo(t.wait_for(PageId(3), SimTime::ZERO)).unwrap_err();
        assert!(matches!(err, AmpomError::Transport(_)));
    }

    #[test]
    fn one_reply_delivered_twice_counts_one_duplicate() {
        // Cross-transport identity anchor: `duplicate_replies` means "a
        // reply arrived for a page the migrant already has", counted once
        // per extra copy. The live transport's `note_reply` and bulk-fetch
        // accounting are pinned to the same meaning by the unit tests in
        // `crates/rpc/src/live.rs`; together with this test they keep the
        // counter comparable across transports.
        let cfg = RunConfig::new(Scheme::Ampom).with_faults(FaultProfile::lossy(0.01));
        let mut t = SimulatedTransport::new(&cfg);
        let mut space = AddressSpace::new(MemoryLayout::with_data_bytes(8 * PAGE_SIZE));
        let page = space.layout().data_start();
        space.mark_remote(page);
        let table = PageTablePair::at_migration([page]);
        let (mut dest, _) = Destination::new(space, table, None);
        // The original reply and a resent copy, both already arrived.
        t.staged.push_back((SimTime::ZERO, page));
        t.staged.push_back((SimTime::ZERO, page));
        t.in_flight.insert(page, SimTime::ZERO);
        let mut now = SimTime::ZERO + SimDuration::from_micros(1);
        run_solo(t.install_arrived(&mut now, &mut dest));
        assert!(dest.space.is_resident(page), "first copy installs the page");
        assert_eq!(
            t.fault_stats().duplicate_replies,
            1,
            "the resent copy is suppressed and counted exactly once"
        );
        assert_eq!(dest.pages_evicted, 0);
    }

    /// A destination whose `n` data pages are all still at the home node.
    fn remote_destination(n: u64) -> (Destination, Vec<PageId>) {
        let mut space = AddressSpace::new(MemoryLayout::with_data_bytes(n * PAGE_SIZE));
        let first = space.layout().data_start().index();
        let pages: Vec<PageId> = (first..first + n).map(PageId).collect();
        for &p in &pages {
            space.mark_remote(p);
        }
        let table = PageTablePair::at_migration(pages.iter().copied());
        (Destination::new(space, table, None).0, pages)
    }

    #[test]
    fn resent_page_keeps_its_earliest_arrival() {
        let mut f = InFlight::default();
        let p = PageId(70);
        for ns in [50, 30, 40] {
            f.insert(p, SimTime::from_nanos(ns));
        }
        assert!(f.contains(p));
        assert_eq!(f.len(), 1);
        assert_eq!(f.arrival(p), Some(SimTime::from_nanos(30)));
    }

    #[test]
    fn in_flight_matches_a_map_model() {
        use ampom_sim::propcheck::forall;
        use std::collections::{HashMap, HashSet};
        use std::ops::Range;
        /// Every observable of `f` against the model, on the pages of
        /// `words`.
        fn agree(f: &InFlight, model: &HashMap<PageId, SimTime>, words: Range<u64>) {
            assert_eq!(f.len(), model.len());
            for word in words {
                let mut want = 0;
                for bit in 0..64 {
                    let p = PageId(word * 64 + bit);
                    assert_eq!(f.arrival(p), model.get(&p).copied(), "arrival of {p}");
                    assert_eq!(f.contains(p), model.contains_key(&p), "membership of {p}");
                    want |= u64::from(model.contains_key(&p)) << bit;
                }
                assert_eq!(f.word(word), want, "word {word}");
            }
        }
        // Which operations the generator reached: a re-insert with an
        // earlier arrival, one with a later arrival, a remove of a page in
        // flight, a clear of a non-empty set, a re-insert of a page the
        // last clear dropped.
        let mut seen = [0u32; 5];
        forall("in-flight-model", 256, |g| {
            let mut f = InFlight::default();
            let mut model: HashMap<PageId, SimTime> = HashMap::new();
            let mut dropped_by_clear = HashSet::new();
            let span = g.u64(1..300);
            for _ in 0..g.usize(1..200) {
                let page = PageId(g.u64(0..span));
                match g.usize(0..8) {
                    0..=4 => {
                        let at = SimTime::from_nanos(g.u64(0..1_000));
                        match model.get(&page) {
                            Some(&held) => seen[usize::from(at >= held)] += 1,
                            None => seen[4] += u32::from(dropped_by_clear.contains(&page)),
                        }
                        f.insert(page, at);
                        let held = model.entry(page).or_insert(at);
                        *held = (*held).min(at);
                    }
                    5 | 6 => {
                        seen[2] += u32::from(model.contains_key(&page));
                        f.remove(page);
                        model.remove(&page);
                    }
                    _ => {
                        seen[3] += u32::from(!model.is_empty());
                        dropped_by_clear = model.keys().copied().collect();
                        f.clear();
                        model.clear();
                        agree(&f, &model, 0..span / 64 + 2);
                    }
                }
                assert_eq!(f.len(), model.len());
                assert_eq!(f.arrival(page), model.get(&page).copied());
            }
            // Every word the pages reach, and one past them.
            agree(&f, &model, 0..span / 64 + 2);
        });
        assert!(
            seen.iter().all(|&n| n >= 10),
            "operations reached: {seen:?}"
        );
    }

    #[test]
    fn removing_or_clearing_resets_membership_and_count() {
        let mut t = SimulatedTransport::new(&RunConfig::new(Scheme::Ampom));
        for p in [1, 64, 65, 300] {
            t.in_flight.insert(PageId(p), SimTime::from_nanos(p));
        }
        assert_eq!(t.in_flight_count(), 4);
        t.in_flight.remove(PageId(64));
        assert!(!t.is_in_flight(PageId(64)));
        assert!(t.is_in_flight(PageId(65)), "a neighbour's bit survives");
        assert_eq!(t.in_flight_count(), 3);
        // Removing a page that is not in flight changes nothing.
        t.in_flight.remove(PageId(64));
        t.in_flight.remove(PageId(2));
        assert_eq!(t.in_flight_count(), 3);
        t.in_flight.clear();
        assert_eq!(t.in_flight_count(), 0);
        for p in [1, 64, 65, 300] {
            assert!(!t.is_in_flight(PageId(p)));
        }
    }

    #[test]
    fn page_beyond_the_bitset_is_not_in_flight() {
        let mut t = SimulatedTransport::new(&RunConfig::new(Scheme::Ampom));
        assert!(!t.is_in_flight(PageId(0)), "empty set");
        t.in_flight.insert(PageId(3), SimTime::ZERO);
        for p in [64, 1 << 40, u64::MAX] {
            assert!(!t.is_in_flight(PageId(p)));
            t.in_flight.remove(PageId(p));
        }
        assert!(t.is_in_flight(PageId(3)));
    }

    #[test]
    fn recovery_clears_leave_no_stale_bit() {
        let cfg = RunConfig::new(Scheme::Ampom).with_faults(FaultProfile::lossy(0.01));
        let clears: [fn(&mut SimulatedTransport, SimTime, &mut SimTime, &mut Destination); 2] = [
            SimulatedTransport::eager_fallback,
            SimulatedTransport::remigrate,
        ];
        for clear in clears {
            let mut t = SimulatedTransport::new(&cfg);
            let (mut dest, pages) = remote_destination(130);
            for &p in &pages {
                t.in_flight.insert(p, SimTime::from_nanos(p.index()));
            }
            let mut now = SimTime::ZERO;
            clear(&mut t, SimTime::ZERO, &mut now, &mut dest);
            assert_eq!(t.in_flight_count(), 0);
            assert!(pages.iter().all(|&p| !t.is_in_flight(p)));
            // A fresh request marks only its own page.
            t.in_flight.insert(pages[1], now);
            let flying: Vec<PageId> = pages
                .iter()
                .copied()
                .filter(|&p| t.is_in_flight(p))
                .collect();
            assert_eq!(flying, vec![pages[1]]);
        }
    }

    #[test]
    fn zone_filter_matches_the_per_page_predicate() {
        use ampom_sim::propcheck::forall;
        // Which cases the generator reached: a run starting off / on a
        // word boundary, ending off / on one, a one-page run, an empty
        // run, the tail word of a space that is not a whole number of
        // words, an in-flight word past the bitset's end, a word entirely
        // in flight, a word with no remote page.
        let mut seen = [0u32; 10];
        forall("zone-filter-words", 512, |g| {
            let data_pages = g.u64(1..320);
            let layout = MemoryLayout::new(PAGE_SIZE, data_pages * PAGE_SIZE, PAGE_SIZE);
            let mut space = AddressSpace::new(layout);
            let total = space.total_pages();
            let remote_share = *g.choose(&[0.0, 0.3, 0.9, 1.0]);
            for p in (0..total).map(PageId) {
                if g.bool(remote_share) {
                    space.mark_remote(p);
                } else if g.bool(0.5) {
                    space.touch(p, g.bool(0.5));
                }
            }
            // In-flight pages only below a random end, so the bitset can
            // stop short of the space.
            let mut t = SimulatedTransport::new(&RunConfig::new(Scheme::Ampom));
            let flying_share = *g.choose(&[0.0, 0.5, 0.95, 1.0]);
            for p in (0..g.u64(0..total + 1)).map(PageId) {
                if g.bool(flying_share) {
                    t.in_flight.insert(p, SimTime::ZERO);
                }
            }
            for _ in 0..4 {
                let start = g.u64(0..total + 1);
                let end = match g.usize(0..4) {
                    0 => start,
                    1 => (start + 1).min(total),
                    _ => g.u64(start..total + 1),
                };
                let mut got = Vec::new();
                let mut filter = ZoneFilter {
                    space: &space,
                    transport: &t,
                };
                filter.extend_fetchable(PageId(start), PageId(end), &mut got);
                let want: Vec<PageId> = (start..end)
                    .map(PageId)
                    .filter(|&p| space.state(p) == PageState::Remote && !t.is_in_flight(p))
                    .collect();
                assert_eq!(got, want, "run {start}..{end} of {total} pages");

                if start == end {
                    seen[5] += 1;
                    continue;
                }
                let words = start / 64..=(end - 1) / 64;
                let (start_bit, end_bit, tail) = (start % 64, end % 64, total % 64);
                seen[0] += u32::from(start_bit != 0);
                seen[1] += u32::from(start_bit == 0);
                seen[2] += u32::from(end_bit != 0);
                seen[3] += u32::from(end_bit == 0);
                seen[4] += u32::from(end - start == 1);
                seen[6] += u32::from(tail != 0 && end > total - tail);
                seen[7] += u32::from(*words.end() >= t.in_flight.bits.0.len() as u64);
                seen[8] += u32::from(words.clone().any(|w| t.in_flight_word(w) == u64::MAX));
                seen[9] += u32::from(words.clone().any(|w| space.remote_word(w) == 0));
            }
        });
        assert!(
            seen.iter().all(|&n| n >= 10),
            "edge cases reached: {seen:?}"
        );
    }

    #[test]
    fn stage_sorted_matches_the_backward_scan() {
        use ampom_sim::propcheck::forall;
        /// Staging by the backward scan alone.
        fn scan(staged: &mut VecDeque<(SimTime, PageId)>, arrives: SimTime, page: PageId) {
            let mut idx = staged.len();
            while idx > 0 && staged[idx - 1].0 > arrives {
                idx -= 1;
            }
            staged.insert(idx, (arrives, page));
        }
        // Which cases the generator reached: an arrival appended after
        // the last, one equal to the last, one placed before it, and a
        // pop from the front between stagings.
        let mut seen = [0u32; 4];
        forall("stage-sorted-scan", 256, |g| {
            let (mut got, mut want) = (VecDeque::new(), VecDeque::new());
            let mut fifo = 0u64;
            let jitter = *g.choose(&[0, 5, 50, 500]);
            for page in 0..g.u64(1..150) {
                if g.bool(0.1) {
                    seen[3] += u32::from(!want.is_empty());
                    assert_eq!(got.pop_front(), want.pop_front());
                }
                fifo += g.u64(0..20);
                let at = SimTime::from_nanos(fifo + g.u64(0..jitter + 1));
                let last = want.back().map(|&(t, _)| t);
                seen[0] += u32::from(last.is_some_and(|t| t < at));
                seen[1] += u32::from(last == Some(at));
                seen[2] += u32::from(last.is_some_and(|t| t > at));
                stage_sorted(&mut got, at, PageId(page));
                scan(&mut want, at, PageId(page));
                assert_eq!(got, want);
            }
        });
        assert!(seen.iter().all(|&n| n >= 10), "cases reached: {seen:?}");
    }

    #[test]
    fn stage_sorted_keeps_arrival_order() {
        let mut staged: VecDeque<(SimTime, PageId)> = VecDeque::new();
        for (t, p) in [(50u64, 0u64), (10, 1), (30, 2), (30, 3), (20, 4)] {
            stage_sorted(&mut staged, SimTime::from_nanos(t), PageId(p));
        }
        let times: Vec<u64> = staged.iter().map(|&(t, _)| t.as_nanos()).collect();
        assert_eq!(times, vec![10, 20, 30, 30, 50]);
        // Equal arrivals keep insertion order (FIFO tie-break).
        let pages: Vec<u64> = staged.iter().map(|&(_, p)| p.0).collect();
        assert_eq!(pages, vec![1, 4, 2, 3, 0]);
    }
}
