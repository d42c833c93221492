//! Concurrent multi-migrant execution against one shared deputy.
//!
//! The paper's deputy serves exactly one migrant, but its residual-
//! dependency argument (§2.2, §7) only matters at cluster scale, where a
//! single home node answers paging requests for *many* migrated
//! processes at once. [`run_multi`] executes N migrant protocol loops —
//! each the unmodified loop of
//! [`run_with_transport`](crate::transport::run_with_transport) — against one
//! [`MultiDeputy`] that shards queues per
//! migrant, coalesces duplicate page requests, and divides the shared
//! service capacity by deficit round robin.
//!
//! ## Execution model
//!
//! Every migrant runs on the caller's thread. Its loop is a future over
//! a member [`Transport`], and each member call whose answer may depend
//! on another migrant first waits for the migrant's *turn*, then runs in
//! place. Turns are chosen only when **every** live migrant waits, and
//! go to the waiting call with the smallest `(time, migrant index)` — so
//! the interleaving is a pure function of the simulated clocks.
//! [`run_multi`] polls the futures in a plain loop: no thread, no async
//! runtime. With one live migrant every turn is granted on the spot, so
//! an N=1 run never suspends. Determinism is pinned by tests; the N=1
//! path is pinned bit-identical to
//! [`SimulatedTransport`](crate::transport::SimulatedTransport) by the
//! `multi_identity` golden fingerprints, and N>1 runs by that suite's
//! multi-migrant table.
//!
//! ## Commit horizons
//!
//! Submissions enter the deputy immediately (that is where the
//! saturation stats live), but service events *commit* lazily, and a
//! commit is allowed only when no future submission could have been
//! scheduled before it:
//!
//! * with migrants waiting for their turn, commits stop at the earliest
//!   waiting clock (any future submission must arrive strictly later);
//! * when every live migrant is blocked on the deputy, commits proceed
//!   one event at a time until a wait resolves (the woken migrant's
//!   future submissions arrive after its wake time);
//! * with a single live migrant the deputy commits everything eagerly —
//!   one shard is FIFO, so order cannot change, and the eager path
//!   state is exactly what the single-migrant transport exposes.
//!
//! Each migrant gets its own [`NetPath`] and monitor daemon (N access
//! links into one home node); the deputy CPU is the shared resource.
//! Per-migrant `RunReport.deputy` stats carry that shard's attribution;
//! they sum exactly to the aggregate (pinned by the fairness property
//! suite).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::task::{Context, Poll, Waker};

use ampom_mem::page::PageId;
use ampom_mem::table::{PageLocation, PageTablePair};
use ampom_net::cross::CrossTraffic;
use ampom_net::fault::{Fate, FaultPlan};
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_sim::trace::{Trace, TraceData, TraceKind};

use crate::cluster::NetPath;
use crate::deputy::{AdmissionConfig, Admitted, Completion, DrrConfig, MigrantId, MultiDeputy};
use crate::error::AmpomError;
use crate::experiment::WorkloadSpec;
use crate::lifecycle::writeback_batch_bytes;
use crate::metrics::{DeputyStats, FaultStats, RunReport};
use crate::migration::{perform_freeze, FreezeOutcome, PreMigrationState, Scheme};
use crate::monitor::MonitorDaemon;
use crate::prefetcher::NetEstimates;
use crate::reliability::{FailurePolicy, FaultProfile, RetrySchedule, RetryStep};
use crate::runner::{RunConfig, PAGE_INSTALL_COST};
use crate::transport::{migrant_loop, refuse_simulated_only, Destination, InFlight, Transport};

/// Control-message size for a forwarded syscall (matches
/// [`Deputy::forward_syscall`](crate::deputy::Deputy::forward_syscall)).
const SYSCALL_MSG_BYTES: u64 = 128;

/// Salt mixed into the run seed for the coordinator-side chaos RNG so
/// fault fates never correlate with workload or cross-traffic streams.
const CHAOS_SEED_SALT: u64 = 0xc4a0_5eed;

/// One migrant's workload in a multi-run.
#[derive(Debug, Clone)]
pub struct MigrantSpec {
    /// What the migrant executes.
    pub workload: WorkloadSpec,
    /// Seed the workload is built with.
    pub seed: u64,
}

/// A multi-migrant run: one shared deputy, N migrants under a common
/// link/scheme configuration.
#[derive(Debug, Clone)]
pub struct MultiRunSpec {
    /// Shared runner configuration (scheme, link, AMPoM tunables, …).
    pub cfg: RunConfig,
    /// The migrants, one shard each, in shard-index order.
    pub migrants: Vec<MigrantSpec>,
    /// Fairness tuning for the shared service capacity.
    pub drr: DrrConfig,
    /// Optional chaos profile: message loss/jitter on every migrant's
    /// request and reply path plus deputy downtime, resolved by the
    /// coordinator. `None` (or a null profile) leaves the run
    /// bit-identical to a chaos-free multi-run. The coordinator models
    /// only [`FailurePolicy::StallReconnect`]; [`run_multi`] refuses a
    /// non-null profile with any other policy.
    pub chaos: Option<FaultProfile>,
    /// Deputy admission control. The default is unbounded, which is
    /// bit-identical to the pre-admission deputy.
    pub admission: AdmissionConfig,
}

impl MultiRunSpec {
    /// `n` migrants running identical copies of `workload` under `cfg`.
    /// Migrant 0 uses `seed` verbatim (so an N=1 multi-run reproduces
    /// the single-migrant run bit-identically); migrants `i > 0` fork
    /// their workload seed deterministically.
    pub fn homogeneous(cfg: RunConfig, workload: WorkloadSpec, seed: u64, n: u32) -> Self {
        let migrants = (0..n)
            .map(|i| MigrantSpec {
                workload: workload.clone(),
                seed: derive_member_seed(seed, i),
            })
            .collect();
        MultiRunSpec {
            cfg,
            migrants,
            drr: DrrConfig::default(),
            chaos: None,
            admission: AdmissionConfig::default(),
        }
    }

    /// Layers a chaos profile over the run.
    pub fn with_chaos(mut self, profile: FaultProfile) -> Self {
        self.chaos = Some(profile);
        self
    }

    /// Replaces the deputy admission configuration.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }
}

/// Deterministic per-migrant seed derivation: member 0 keeps the base
/// seed (single-migrant identity), later members fork it.
pub fn derive_member_seed(base: u64, member: u32) -> u64 {
    if member == 0 {
        base
    } else {
        SimRng::seed_from_u64(base)
            .fork(u64::from(member))
            .base_seed()
    }
}

/// What a multi-migrant run produced.
#[derive(Debug)]
pub struct MultiRunReport {
    /// Per-migrant reports, in shard-index order. Each report's `deputy`
    /// field carries that shard's attribution of the shared capacity.
    pub reports: Vec<RunReport>,
    /// Per-shard saturation counters (sum/max exactly to `deputy`).
    pub shard_stats: Vec<DeputyStats>,
    /// Aggregate deputy saturation counters.
    pub deputy: DeputyStats,
    /// Each shard's share of total deputy service time, in `[0, 1]`.
    pub service_shares: Vec<f64>,
    /// Page submissions coalesced into an already-pending service event.
    pub pages_coalesced: Vec<u64>,
    /// Latest migrant completion time.
    pub makespan: SimDuration,
}

impl MultiRunReport {
    /// Number of migrants.
    pub fn migrants(&self) -> usize {
        self.reports.len()
    }

    /// Max/min service share across migrants (1.0 = perfectly fair;
    /// infinite when a migrant received no service at all).
    pub fn fairness_ratio(&self) -> f64 {
        let max = self.service_shares.iter().copied().fold(0.0, f64::max);
        let min = self.service_shares.iter().copied().fold(f64::MAX, f64::min);
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// Deputy busy time over the makespan, in `[0, 1]`: how saturated
    /// the shared service capacity was.
    pub fn saturation(&self) -> f64 {
        let wall = self.makespan.as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            (self.deputy.busy_time.as_secs_f64() / wall).clamp(0.0, 1.0)
        }
    }

    /// Per-migrant slowdown versus solo baselines (same index order):
    /// `multi_total / solo_total`.
    pub fn slowdowns_vs(&self, solo: &[RunReport]) -> Vec<f64> {
        self.reports
            .iter()
            .zip(solo)
            .map(|(m, s)| {
                let base = s.total_time.as_secs_f64();
                if base <= 0.0 {
                    1.0
                } else {
                    m.total_time.as_secs_f64() / base
                }
            })
            .collect()
    }
}

impl ampom_obs::MetricSource for MultiRunReport {
    fn export_metrics(&self, reg: &mut ampom_obs::MetricsRegistry) {
        reg.export_gauge(
            "ampom_multi_migrants",
            "Concurrent migrants sharing the deputy",
            self.migrants() as f64,
        );
        reg.export_gauge(
            "ampom_multi_fairness_ratio",
            "Max/min service share across migrants (1.0 = perfectly fair)",
            self.fairness_ratio(),
        );
        reg.export_gauge(
            "ampom_multi_deputy_saturation",
            "Deputy busy time over the makespan, 0..1",
            self.saturation(),
        );
        reg.export_gauge(
            "ampom_multi_makespan_seconds",
            "Slowest migrant's total execution time",
            self.makespan.as_secs_f64(),
        );
        reg.export_counter(
            "ampom_multi_pages_coalesced_total",
            "Page requests absorbed by deputy-side coalescing, all migrants",
            self.pages_coalesced.iter().sum(),
        );
        reg.export_counter(
            "ampom_multi_deputy_queued_requests_total",
            "Requests that found the shared deputy busy",
            self.deputy.queued_requests,
        );
    }
}

// ---------------------------------------------------------------------
// Turns.

/// What a waiting migrant waits for.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// Its turn for a call made at this clock.
    Turn(SimTime),
    /// Its turn for the final sync of its counters. A synced migrant
    /// submits nothing more, so the sync is ordered after every clock and
    /// stays out of the commit horizon.
    Sync,
    /// It took its turn and blocks until this page's delivery commits.
    Page(PageId),
    /// It took its turn and blocks until its forwarded syscall completes.
    Syscall,
}

impl Wait {
    /// The clock a turn is ordered by; `None` for a blocked migrant.
    fn turn_at(self) -> Option<SimTime> {
        match self {
            Wait::Turn(at) => Some(at),
            Wait::Sync => Some(SimTime::ZERO + SimDuration::from_nanos(u64::MAX)),
            Wait::Page(_) | Wait::Syscall => None,
        }
    }
}

/// Pages delivered to one migrant: `(reply arrival, page)`, in commit
/// order (arrivals are nondecreasing — the reply link is FIFO).
type Deliveries = Vec<(SimTime, PageId)>;

/// Coordinator-side chaos: one deterministic fate stream per migrant per
/// direction, one retry schedule per migrant (the migrant's demand-wait
/// timer, resolved eagerly because the coordinator knows each message's
/// fate at send time), and per-migrant fault accounting the migrant
/// takes at its sync turn.
struct ChaosState {
    profile: FaultProfile,
    request_plans: Vec<FaultPlan>,
    reply_plans: Vec<FaultPlan>,
    retries: Vec<RetrySchedule>,
    faults: Vec<FaultStats>,
}

impl ChaosState {
    /// Charges one timeout to migrant `i` and returns how long the timer
    /// ran before firing.
    fn charge_timeout(&mut self, i: usize) -> SimDuration {
        let stats = &mut self.faults[i];
        let sched = &mut self.retries[i];
        stats.timeouts += 1;
        let waited = sched.current_timeout();
        match sched.on_timeout() {
            RetryStep::Retry => stats.retries += 1,
            RetryStep::Degrade(_) => {
                stats.reconnects += 1;
                sched.begin_wait();
            }
        }
        waited
    }
}

/// The shared half of a multi-run — the deputy, every migrant's path and
/// monitor, the chaos plans — and the turn order over the waiting
/// migrants.
struct Coordinator {
    md: MultiDeputy,
    paths: Vec<NetPath>,
    monitors: Vec<MonitorDaemon>,
    /// What each migrant waits for; `None` while it runs or once its
    /// loop finished.
    waiting: Vec<Option<Wait>>,
    n_waiting: usize,
    /// Migrants whose loop has not finished.
    n_alive: usize,
    delivery_buf: Vec<Deliveries>,
    /// Completed-but-untaken syscall reply time, at most one per migrant
    /// (the loop forwards syscalls synchronously).
    syscall_ready: Vec<Option<SimTime>>,
    /// `None` without a (non-null) chaos profile: the zero-chaos path
    /// draws no fates and stays bit-identical to the pre-chaos code.
    chaos: Option<ChaosState>,
    admission: AdmissionConfig,
    /// A deadlock met while choosing a turn inside a migrant's poll, for
    /// [`run_multi`] to report.
    failed: Option<AmpomError>,
}

impl Coordinator {
    /// Index of the waiting turn with the smallest `(time, migrant
    /// index)`.
    fn next_turn(&self) -> Option<usize> {
        let mut best: Option<(SimTime, usize)> = None;
        for (i, wait) in self.waiting.iter().enumerate() {
            if let Some(at) = wait.and_then(Wait::turn_at) {
                let key = (at, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// Resolves a paging request's arrival at the deputy under the chaos
    /// profile: lost sends burn retry timeouts and re-send, delivered
    /// sends pick up jitter, and a request landing in deputy downtime
    /// waits out the outage (charged as recovery only when a demand page
    /// was stalling on it).
    fn chaos_request_arrival(
        &mut self,
        u: usize,
        now: SimTime,
        total_pages: usize,
        has_demand: bool,
    ) -> SimTime {
        let Some(chaos) = self.chaos.as_mut() else {
            return self.paths[u].send_request(now, total_pages);
        };
        chaos.retries[u].begin_wait();
        let mut send_at = now;
        loop {
            match chaos.request_plans[u].fate() {
                Fate::Dropped => {
                    self.paths[u].send_request_lost(send_at, total_pages);
                    chaos.faults[u].messages_dropped += 1;
                    send_at += chaos.charge_timeout(u);
                }
                Fate::Delivered { extra_delay } => {
                    let mut arrival =
                        self.paths[u].send_request(send_at, total_pages) + extra_delay;
                    if chaos.profile.downtime.is_down(arrival) {
                        chaos.faults[u].deputy_unavailable += 1;
                        let up = chaos.profile.downtime.next_up(arrival);
                        // The migrant's timer keeps firing into the
                        // outage; each firing is a timeout (the re-sends
                        // also land on a down deputy, so they are not
                        // re-modelled individually).
                        let mut deadline = chaos.retries[u].deadline_after(send_at);
                        while deadline < up {
                            chaos.charge_timeout(u);
                            deadline += chaos.retries[u].current_timeout();
                        }
                        if has_demand {
                            chaos.faults[u].recovery_time += up.saturating_since(arrival);
                        }
                        arrival = up;
                    }
                    return arrival;
                }
            }
        }
    }

    /// Turns one committed service event into its reply-link delivery.
    fn deliver(&mut self, c: Completion) {
        match c {
            Completion::Page {
                migrant,
                page,
                finish,
            } => {
                let i = migrant.idx0();
                // A deputy that is down cannot transmit: service events
                // finishing inside an outage sit on the home node until
                // the restart, then drain in commit order (so arrivals
                // stay nondecreasing — everything in one outage maps to
                // the same restart instant).
                let finish = match self.chaos.as_mut() {
                    Some(chaos) if chaos.profile.downtime.is_down(finish) => {
                        chaos.faults[i].deputy_unavailable += 1;
                        chaos.profile.downtime.next_up(finish)
                    }
                    _ => finish,
                };
                let extra = match self.chaos.as_mut() {
                    None => SimDuration::ZERO,
                    Some(chaos) => match chaos.reply_plans[i].fate() {
                        Fate::Delivered { extra_delay } => extra_delay,
                        Fate::Dropped => {
                            // The reply is lost in flight. The migrant's
                            // demand timer fires and it re-requests the
                            // page; the coordinator resolves that
                            // re-request eagerly (it knows the timeout
                            // deadline), so the page re-enters the shard
                            // queue and a later commit re-delivers it.
                            self.paths[i].send_page_lost(finish);
                            chaos.faults[i].messages_dropped += 1;
                            let waited = chaos.charge_timeout(i);
                            let resend_at = finish + waited;
                            let arrival = self.paths[i].send_request(resend_at, 1);
                            self.md.submit_request(migrant, arrival, &[page]);
                            return;
                        }
                    },
                };
                let arrival = self.paths[i].send_page(finish) + extra;
                self.delivery_buf[i].push((arrival, page));
            }
            Completion::Syscall { migrant, finish } => {
                let at = self.paths[migrant.idx0()].send_control_to_dest(finish, SYSCALL_MSG_BYTES);
                debug_assert!(self.syscall_ready[migrant.idx0()].is_none());
                self.syscall_ready[migrant.idx0()] = Some(at);
            }
        }
    }

    /// Commits everything allowed by the current horizon rules.
    fn commit_to_horizon(&mut self) {
        if self.n_alive == 1 {
            // One live migrant: a shard queue is FIFO and no other
            // migrant can submit, so eager commits cannot reorder
            // anything — and they reproduce the eager single-migrant
            // deputy's path state exactly.
            while let Some(c) = self.md.commit_next() {
                self.deliver(c);
            }
            return;
        }
        // Future submissions arrive strictly after the earliest waiting
        // turn's clock (its own send adds link latency), so everything
        // starting at or before it is settled. A sync turn is excluded:
        // a synced migrant submits nothing more, so it does not
        // constrain (or license) commits.
        let horizon = self
            .waiting
            .iter()
            .filter_map(|wait| match wait {
                Some(Wait::Turn(at)) => Some(*at),
                _ => None,
            })
            .min();
        if let Some(h) = horizon {
            while let Some(c) = self.md.commit_next_bounded(Some(h)) {
                self.deliver(c);
            }
        }
    }

    /// Resumes every blocked migrant whose wait just resolved. Returns
    /// true if any migrant was woken.
    fn wake_resolved(&mut self) -> bool {
        let mut woke = false;
        for i in 0..self.waiting.len() {
            let resolved = match self.waiting[i] {
                Some(Wait::Page(page)) => self.delivery_buf[i].iter().any(|&(_, dp)| dp == page),
                Some(Wait::Syscall) => self.syscall_ready[i].is_some(),
                _ => false,
            };
            if resolved {
                self.resume(i);
                woke = true;
            }
        }
        woke
    }

    fn resume(&mut self, i: usize) {
        self.waiting[i] = None;
        self.n_waiting -= 1;
    }

    /// Makes migrant `i` wait for `wait`. The last live migrant to wait
    /// chooses what runs next, which may be its own turn.
    fn wait(&mut self, i: usize, wait: Wait) {
        self.waiting[i] = Some(wait);
        self.n_waiting += 1;
        if self.n_waiting == self.n_alive {
            if let Err(e) = self.step() {
                self.failed = Some(e);
            }
        }
    }

    /// One choice, made when every live migrant waits: commit to the
    /// horizon, then resume the waits that resolved, else grant the turn
    /// with the smallest `(clock, index)`, else commit one service event
    /// and choose again. Resumes at least one migrant or reports the
    /// deadlock.
    fn step(&mut self) -> Result<(), AmpomError> {
        loop {
            self.commit_to_horizon();
            if self.wake_resolved() {
                return Ok(());
            }
            if let Some(u) = self.next_turn() {
                self.resume(u);
                return Ok(());
            }
            // Every live migrant is blocked on the deputy: advance
            // service one event at a time until a wait resolves. (Safe:
            // the woken migrant's future submissions arrive at or after
            // its wake time, which is at or after every finish committed
            // here.)
            match self.md.commit_next() {
                Some(c) => self.deliver(c),
                None => {
                    return Err(AmpomError::Transport(
                        "multi-run deadlock: all migrants blocked on an idle deputy".into(),
                    ))
                }
            }
        }
    }
}

impl MigrantId {
    fn idx0(self) -> usize {
        self.0 as usize
    }
}

// ---------------------------------------------------------------------
// Member transport.

/// One migrant's [`Transport`]: its handle on the shared coordinator.
/// Each call that touches the shared deputy or the migrant's path first
/// waits for the migrant's turn, then runs in place. What the migrant
/// can answer alone takes no turn: installs and waits for pages whose
/// arrival it already knows. With one migrant the deputy commits
/// eagerly, so *every* wait and install is local, exactly like the
/// single-migrant transport.
struct Member<'a> {
    id: usize,
    coord: &'a RefCell<Coordinator>,
    /// Requested-but-uninstalled pages, arriving at
    /// [`InFlight::UNKNOWN`] until the coordinator delivers their reply.
    in_flight: InFlight,
    /// Delivered pages not yet installed, in arrival order: the pages of
    /// `in_flight` whose arrival is known.
    staged: VecDeque<(SimTime, PageId)>,
    /// The pages of a request the origin filter passes, reused by every
    /// request.
    submit: Vec<PageId>,
    /// What the deputy accepted and shed of them, reused likewise.
    admitted: Admitted,
    /// Final counters, taken at the sync turn.
    bytes: (u64, u64),
    deputy: DeputyStats,
    faults: FaultStats,
}

impl<'a> Member<'a> {
    fn new(id: usize, coord: &'a RefCell<Coordinator>) -> Self {
        Member {
            id,
            coord,
            in_flight: InFlight::default(),
            staged: VecDeque::new(),
            submit: Vec::new(),
            admitted: Admitted::default(),
            bytes: (0, 0),
            deputy: DeputyStats::default(),
            faults: FaultStats::default(),
        }
    }

    /// Waits until the coordinator resumes this migrant: its turn came,
    /// or what it blocks on committed.
    async fn wait(&self, wait: Wait) {
        let mut wait = Some(wait);
        poll_fn(|_| {
            let mut coord = self.coord.borrow_mut();
            if let Some(wait) = wait.take() {
                coord.wait(self.id, wait);
            }
            if coord.waiting[self.id].is_some() {
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        })
        .await
    }

    /// Waits for `wait`, runs `body` on the coordinator in place, then
    /// takes the pages delivered to this migrant.
    async fn turn<R>(&mut self, wait: Wait, body: impl FnOnce(&mut Coordinator, usize) -> R) -> R {
        self.wait(wait).await;
        let out = body(&mut self.coord.borrow_mut(), self.id);
        self.absorb();
        out
    }

    /// Merges the pages delivered since the last turn into the local
    /// arrival state.
    fn absorb(&mut self) {
        let coord = self.coord;
        for (arrival, page) in coord.borrow_mut().delivery_buf[self.id].drain(..) {
            debug_assert_eq!(
                self.in_flight.arrival(page),
                Some(InFlight::UNKNOWN),
                "delivery for page not awaiting arrival"
            );
            self.in_flight.insert(page, arrival);
            self.staged.push_back((arrival, page));
        }
    }

    /// Whether some requested page's arrival is still with the
    /// coordinator: every known arrival is staged until installed.
    fn arrivals_unknown(&self) -> bool {
        self.in_flight.len() > self.staged.len()
    }
}

impl Transport for Member<'_> {
    async fn freeze(
        &mut self,
        scheme: Scheme,
        pre: &PreMigrationState,
        trace: &mut Trace,
    ) -> Result<FreezeOutcome, AmpomError> {
        let outcome = self
            .turn(Wait::Turn(SimTime::ZERO), |c, i| {
                perform_freeze(scheme, pre, &mut c.paths[i], trace)
            })
            .await;
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
        // Sizes the request message on the wire exactly like the
        // single-migrant path: every page asked for, demand first.
        let total_pages = prefetch.len() + usize::from(demand.is_some());
        // The deputy-side origin filter runs here against the migrant's
        // table view: only origin pages are serviceable, and they move
        // to the destination the moment the deputy accepts them (the
        // single-migrant deputy does both inside `serve_request`).
        self.submit.clear();
        self.submit.extend(
            demand
                .into_iter()
                .chain(prefetch.iter().copied())
                .filter(|&p| table.lookup(p) == Some(PageLocation::Origin)),
        );
        for &p in &self.submit {
            table.transfer_to_destination(p);
        }
        // Admission control never sheds the demand page, and downtime
        // recovery is charged only to a request that carries one (a
        // pure-prefetch request stalls nobody). The demand comes first.
        let demand_submitted = demand.filter(|&d| self.submit.first() == Some(&d));
        self.wait(Wait::Turn(now)).await;
        {
            let mut coord = self.coord.borrow_mut();
            let arrival =
                coord.chaos_request_arrival(self.id, now, total_pages, demand_submitted.is_some());
            let admission = coord.admission;
            coord.md.submit_request_admitted(
                MigrantId(self.id as u32),
                arrival,
                &self.submit,
                demand_submitted,
                &admission,
                &mut self.admitted,
            );
            coord.commit_to_horizon();
        }
        // Shed prefetches revert to the origin: they were optimistically
        // marked in-transfer above, and the deputy never serviced them.
        // A later touch demand-fetches the page, so nothing is lost.
        for &p in &self.admitted.shed {
            table.return_to_origin(p);
        }
        for &p in &self.admitted.accepted {
            self.in_flight.insert(p, InFlight::UNKNOWN);
            if demand != Some(p) {
                queued.push(p);
            }
        }
        self.absorb();
        Ok(())
    }

    async fn wait_for(&mut self, page: PageId, now: SimTime) -> Result<SimTime, AmpomError> {
        match self.in_flight.arrival(page) {
            None => Err(AmpomError::Transport(format!(
                "page {page} awaited but never requested"
            ))),
            Some(InFlight::UNKNOWN) => {
                // The request was submitted already: the turn has no side
                // effect, then the migrant blocks until the page commits.
                // Nothing is taken in between: the wake looks for the page
                // among the undelivered pages.
                self.wait(Wait::Turn(now)).await;
                self.turn(Wait::Page(page), |_, _| ()).await;
                let arrival = self.in_flight.arrival(page);
                Ok(arrival
                    .filter(|&at| at != InFlight::UNKNOWN)
                    .expect("woken by the page's delivery"))
            }
            Some(arrival) => Ok(arrival),
        }
    }

    async fn install_arrived(&mut self, now: &mut SimTime, dest: &mut Destination) {
        if self.arrivals_unknown() {
            // Some arrivals are still with the coordinator: every commit
            // up to this clock has run once the turn comes.
            self.turn(Wait::Turn(*now), |_, _| ()).await;
        }
        let mut installed = 0u64;
        while let Some(&(arrival, page)) = self.staged.front() {
            if arrival > *now {
                break;
            }
            self.staged.pop_front();
            self.in_flight.remove(page);
            dest.space.install(page);
            installed += 1;
        }
        if installed > 0 {
            *now += PAGE_INSTALL_COST.saturating_mul(installed);
        }
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
        self.turn(Wait::Turn(now), |c, i| {
            let at_home = c.paths[i].send_control_to_home(now, SYSCALL_MSG_BYTES);
            c.md.submit_syscall(MigrantId(i as u32), at_home, work);
        })
        .await;
        let done = self
            .turn(Wait::Syscall, |c, i| c.syscall_ready[i].take())
            .await;
        Ok((now, done.expect("woken by the syscall's completion")))
    }

    async fn estimates(&mut self, now: SimTime) -> NetEstimates {
        self.turn(Wait::Turn(now), |c, i| {
            c.monitors[i].advance(now, &mut c.paths[i]);
            c.monitors[i].estimates()
        })
        .await
    }

    async fn on_window_wrap(&mut self, now: SimTime, wraps: u64) {
        self.turn(Wait::Turn(now), |c, i| {
            c.monitors[i].on_window_wrap(now, wraps, &c.paths[i]);
        })
        .await;
    }

    async fn reply_utilization(&mut self, now: SimTime) -> f64 {
        self.turn(Wait::Turn(now), |c, i| c.paths[i].reply_utilization(now))
            .await
    }

    /// Background traffic: charges the member's dest→home link and
    /// settles at once (no deputy queueing — the sink apply is not on the
    /// migrant's critical path).
    async fn writeback_batch(
        &mut self,
        now: SimTime,
        _seq: u64,
        entries: &[(PageId, u64)],
    ) -> Result<(u64, SimTime), AmpomError> {
        let bytes = writeback_batch_bytes(entries.len());
        let settled_at = self
            .turn(Wait::Turn(now), |c, i| {
                c.paths[i].send_control_to_home(now, bytes)
            })
            .await;
        Ok((bytes, settled_at))
    }

    fn bytes_to_dest(&self) -> u64 {
        self.bytes.0
    }

    fn bytes_from_dest(&self) -> u64 {
        self.bytes.1
    }

    fn deputy_stats(&self) -> DeputyStats {
        self.deputy
    }

    fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    async fn drain_trace(&mut self) -> Vec<(SimTime, TraceKind, TraceData)> {
        // The loop drains trace exactly once, after its last reference
        // and before reading the byte/deputy counters: use it as the
        // final sync.
        (self.bytes, self.deputy, self.faults) = self
            .turn(Wait::Sync, |c, i| {
                let path = &c.paths[i];
                (
                    (path.bytes_to_dest(), path.bytes_from_dest()),
                    c.md.shard_stats(MigrantId(i as u32)),
                    c.chaos.as_ref().map(|ch| ch.faults[i]).unwrap_or_default(),
                )
            })
            .await;
        Vec::new()
    }
}

/// One migrant's loop over its member transport.
async fn run_member(
    coord: &RefCell<Coordinator>,
    id: usize,
    migrant: &MigrantSpec,
    cfg: &RunConfig,
) -> Result<RunReport, AmpomError> {
    let mut w = migrant.workload.build(migrant.seed)?;
    migrant_loop(w.as_mut(), cfg, &mut Member::new(id, coord)).await
}

/// Executes `spec`: N migrant protocol loops against one shared sharded
/// deputy, all on the caller's thread. Deterministic — the interleaving
/// is a pure function of the simulated clocks (see the module docs).
pub fn run_multi(spec: &MultiRunSpec) -> Result<MultiRunReport, AmpomError> {
    if spec.migrants.is_empty() {
        return Err(AmpomError::InvalidConfig(
            "a multi-run needs at least one migrant".into(),
        ));
    }
    spec.cfg.validate()?;
    refuse_simulated_only(&spec.cfg, "a multi-run")?;
    for m in &spec.migrants {
        m.workload.validate()?;
    }
    if let Some(profile) = &spec.chaos {
        profile.validate()?;
        // `ChaosState::charge_timeout` books every degrade as a
        // reconnect: any other policy would silently run as this one.
        if !profile.is_null() && profile.policy != FailurePolicy::StallReconnect {
            return Err(AmpomError::InvalidConfig(format!(
                "a multi-run's chaos can only stall and reconnect; \
                 failure policy {} is not modelled",
                profile.policy.name()
            )));
        }
    }
    spec.admission
        .validate()
        .map_err(AmpomError::InvalidConfig)?;

    let n = spec.migrants.len();
    let mut paths = Vec::with_capacity(n);
    let mut monitors = Vec::with_capacity(n);
    for i in 0..n {
        let mut path = NetPath::new(spec.cfg.link);
        if let Some(ct) = spec.cfg.cross_traffic {
            path = path.with_cross_traffic(CrossTraffic::new(
                ct.bytes_per_sec,
                ct.burst_bytes,
                SimRng::seed_from_u64(derive_member_seed(spec.cfg.seed, i as u32)),
            ));
        }
        monitors.push(MonitorDaemon::new(&path));
        paths.push(path);
    }

    // Chaos state is built only for a non-null profile: the null path
    // draws zero fates, which is what keeps chaos-free runs bit-identical
    // to the pre-chaos coordinator.
    let chaos = spec.chaos.as_ref().filter(|p| !p.is_null()).map(|profile| {
        let rng = SimRng::seed_from_u64(spec.cfg.seed ^ CHAOS_SEED_SALT);
        ChaosState {
            profile: profile.clone(),
            request_plans: (0..n)
                .map(|i| FaultPlan::new(profile.faults, rng.fork(2 * i as u64)))
                .collect(),
            reply_plans: (0..n)
                .map(|i| FaultPlan::new(profile.faults, rng.fork(2 * i as u64 + 1)))
                .collect(),
            retries: (0..n)
                .map(|_| RetrySchedule::for_link(profile.retry, profile.policy, spec.cfg.link))
                .collect(),
            faults: vec![FaultStats::default(); n],
        }
    });

    let coord = RefCell::new(Coordinator {
        md: MultiDeputy::with_drr(n, spec.drr),
        paths,
        monitors,
        waiting: vec![None; n],
        n_waiting: 0,
        n_alive: n,
        delivery_buf: vec![Vec::new(); n],
        syscall_ready: vec![None; n],
        chaos,
        admission: spec.admission,
        failed: None,
    });

    let mut loops: Vec<_> = spec
        .migrants
        .iter()
        .enumerate()
        .map(|(i, m)| Box::pin(run_member(&coord, i, m, &spec.cfg)))
        .collect();
    let mut results: Vec<Option<Result<RunReport, AmpomError>>> = (0..n).map(|_| None).collect();
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        // Run the first migrant that neither waits nor finished until it
        // waits or finishes.
        let next = {
            let c = coord.borrow();
            (0..n).find(|&i| c.waiting[i].is_none() && results[i].is_none())
        };
        let Some(i) = next else {
            // Every live migrant waits: one just finished.
            let mut c = coord.borrow_mut();
            if c.n_alive == 0 {
                break;
            }
            c.step()?;
            continue;
        };
        if let Poll::Ready(result) = loops[i].as_mut().poll(&mut cx) {
            results[i] = Some(result);
            coord.borrow_mut().n_alive -= 1;
        }
        if let Some(e) = coord.borrow_mut().failed.take() {
            return Err(e);
        }
    }
    drop(loops);
    let reports = results
        .into_iter()
        .map(|r| r.expect("every loop finished"))
        .collect::<Result<Vec<RunReport>, AmpomError>>()?;

    let coord = coord.into_inner();
    let shard_stats: Vec<DeputyStats> = (0..n)
        .map(|i| coord.md.shard_stats(MigrantId(i as u32)))
        .collect();
    let service_shares: Vec<f64> = (0..n)
        .map(|i| coord.md.service_share(MigrantId(i as u32)))
        .collect();
    let pages_coalesced: Vec<u64> = (0..n)
        .map(|i| coord.md.pages_coalesced(MigrantId(i as u32)))
        .collect();
    let makespan = reports
        .iter()
        .map(|r| r.total_time)
        .max()
        .unwrap_or(SimDuration::ZERO);
    Ok(MultiRunReport {
        reports,
        shard_stats,
        deputy: coord.md.aggregate_stats(),
        service_shares,
        pages_coalesced,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{run_with_transport, SimulatedTransport};

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec::Sequential {
            pages: 192,
            cpu: SimDuration::from_micros(10),
        }
    }

    fn solo_run(cfg: &RunConfig, spec: &WorkloadSpec, seed: u64) -> RunReport {
        let mut w = spec.build(seed).expect("valid workload");
        let mut t = SimulatedTransport::new(cfg);
        run_with_transport(w.as_mut(), cfg, &mut t).expect("valid config")
    }

    /// An N=1 multi-run reproduces the solo loop over `SimulatedTransport`
    /// exactly: fingerprint, trace and series.
    fn assert_n1_identical(cfg: &RunConfig, spec: &WorkloadSpec, seed: u64) {
        let solo = solo_run(cfg, spec, seed);
        let multi = run_multi(&MultiRunSpec::homogeneous(
            cfg.clone(),
            spec.clone(),
            seed,
            1,
        ))
        .expect("multi-run succeeds");
        let multi = &multi.reports[0];
        assert_eq!(
            multi.fingerprint(),
            solo.fingerprint(),
            "N=1 multi-run drifted from the solo loop: {cfg:?} {spec:?}"
        );
        assert_eq!(
            format!("{:?}", multi.trace.events()),
            format!("{:?}", solo.trace.events())
        );
        assert_eq!(format!("{:?}", multi.series), format!("{:?}", solo.series));
    }

    #[test]
    fn n1_multi_run_is_bit_identical_to_simulated_transport() {
        use crate::lifecycle::WritebackSpec;
        use crate::policy::PolicySpec;
        use crate::runner::{CrossTrafficSpec, SyscallProfile};
        use crate::validate::arbitrary;

        // The fixed cases: every scheme bare.
        for scheme in [Scheme::Ampom, Scheme::NoPrefetch, Scheme::OpenMosix] {
            assert_n1_identical(&RunConfig::new(scheme), &quick_spec(), 7);
        }

        ampom_sim::propcheck::forall("n1-identity", 96, |g| {
            let scheme = *g.choose(&[Scheme::Ampom, Scheme::NoPrefetch, Scheme::OpenMosix]);
            let mut cfg = RunConfig::new(scheme)
                .with_link(arbitrary::link(g))
                .with_policy(g.choose(&PolicySpec::all()).clone())
                .with_seed(g.u64(0..u64::MAX));
            if g.bool(0.3) {
                cfg.syscalls = Some(SyscallProfile {
                    every_refs: g.u64(1..200),
                    work: SimDuration::from_nanos(g.u64(0..50_000)),
                });
            }
            if g.bool(0.3) {
                cfg.sample_series_every = Some(g.u64(1..20));
            }
            cfg.trace = g.bool(0.3);
            if g.bool(0.3) {
                cfg.writeback = Some(WritebackSpec {
                    flush_every_faults: g.u64(1..16),
                    max_batch_pages: g.usize(1..80),
                });
            }
            if g.bool(0.3) {
                cfg.cross_traffic = Some(CrossTrafficSpec {
                    bytes_per_sec: g.u64(1..cfg.link.capacity_bytes_per_sec),
                    burst_bytes: g.u64(64..16_384),
                });
            }
            let spec = arbitrary::workload(g);
            assert_n1_identical(&cfg, &spec, g.u64(0..u64::MAX));
        });
    }

    #[test]
    fn n1_with_syscalls_and_series_is_bit_identical() {
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.syscalls = Some(crate::runner::SyscallProfile {
            every_refs: 37,
            work: SimDuration::from_micros(3),
        });
        cfg.sample_series_every = Some(5);
        cfg.trace = true;
        assert_n1_identical(&cfg, &quick_spec(), 11);
    }

    #[test]
    fn four_migrants_complete_and_report_fair_shares() {
        let cfg = RunConfig::new(Scheme::Ampom);
        let report = run_multi(&MultiRunSpec::homogeneous(cfg, quick_spec(), 42, 4))
            .expect("multi-run succeeds");
        assert_eq!(report.migrants(), 4);
        let share_sum: f64 = report.service_shares.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
        // Identical workloads: DRR must keep them close to even.
        assert!(
            report.fairness_ratio() < 1.5,
            "fairness ratio {} for identical workloads",
            report.fairness_ratio()
        );
        let sat = report.saturation();
        assert!(sat > 0.0 && sat <= 1.0, "saturation {sat}");
        // Shard stats sum exactly to the aggregate.
        let q: u64 = report.shard_stats.iter().map(|s| s.queued_requests).sum();
        assert_eq!(q, report.deputy.queued_requests);
        let busy: SimDuration = report.shard_stats.iter().map(|s| s.busy_time).sum();
        assert_eq!(busy, report.deputy.busy_time);
    }

    #[test]
    fn multi_runs_are_deterministic_across_invocations() {
        let cfg = RunConfig::new(Scheme::Ampom);
        let spec = MultiRunSpec::homogeneous(cfg, quick_spec(), 9, 3);
        let a = run_multi(&spec).expect("first run");
        let b = run_multi(&spec).expect("second run");
        let fa: Vec<u64> = a.reports.iter().map(|r| r.fingerprint()).collect();
        let fb: Vec<u64> = b.reports.iter().map(|r| r.fingerprint()).collect();
        assert_eq!(fa, fb, "thread scheduling leaked into the results");
        assert_eq!(a.deputy, b.deputy);
    }

    #[test]
    fn contended_migrants_slow_down_but_terminate() {
        let cfg = RunConfig::new(Scheme::NoPrefetch);
        let solo = solo_run(&cfg, &quick_spec(), 5);
        let multi = run_multi(&MultiRunSpec::homogeneous(cfg, quick_spec(), 5, 4))
            .expect("multi-run succeeds");
        for r in &multi.reports {
            assert!(
                r.total_time >= solo.total_time,
                "a contended run beat the solo baseline: {:?} < {:?}",
                r.total_time,
                solo.total_time
            );
        }
    }

    #[test]
    fn simulated_only_features_are_refused() {
        for cfg in [
            RunConfig::new(Scheme::Ffa),
            RunConfig::new(Scheme::Ampom).with_faults(FaultProfile::lossy(0.1)),
            RunConfig::new(Scheme::Ampom).with_resident_limit_mb(1),
        ] {
            let spec = MultiRunSpec::homogeneous(cfg, quick_spec(), 5, 2);
            assert!(matches!(
                run_multi(&spec),
                Err(AmpomError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn chaos_policies_other_than_stall_reconnect_are_refused() {
        let spec = |policy| {
            let profile = FaultProfile {
                policy,
                ..FaultProfile::lossy(0.2)
            };
            MultiRunSpec::homogeneous(RunConfig::new(Scheme::Ampom), quick_spec(), 5, 2)
                .with_chaos(profile)
        };
        for policy in [FailurePolicy::EagerFallback, FailurePolicy::Remigrate] {
            match run_multi(&spec(policy)) {
                Err(AmpomError::InvalidConfig(msg)) => {
                    assert!(msg.contains(policy.name()), "{msg}")
                }
                other => panic!("{policy:?} ran: {other:?}"),
            }
        }
        assert!(run_multi(&spec(FailurePolicy::StallReconnect)).is_ok());
        // A null profile draws no fates, so its policy never acts.
        let null = MultiRunSpec::homogeneous(RunConfig::new(Scheme::Ampom), quick_spec(), 5, 2)
            .with_chaos(FaultProfile {
                policy: FailurePolicy::Remigrate,
                ..FaultProfile::default()
            });
        assert!(run_multi(&null).is_ok());
    }

    #[test]
    fn empty_spec_is_rejected() {
        let spec = MultiRunSpec {
            cfg: RunConfig::new(Scheme::Ampom),
            migrants: Vec::new(),
            drr: DrrConfig::default(),
            chaos: None,
            admission: AdmissionConfig::default(),
        };
        assert!(matches!(
            run_multi(&spec),
            Err(AmpomError::InvalidConfig(_))
        ));
    }
}
