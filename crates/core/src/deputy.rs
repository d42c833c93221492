//! The deputy process on the home node.
//!
//! Paper §2.2: after migration "the original process instance will be
//! switched to a 'deputy' process which only answers remote paging
//! requests and executes system calls on behalf of the migrant".
//!
//! [`Deputy`] models the home-node side of the protocol: it serves paging
//! requests (page-table walk + copy into the socket buffer per page, then
//! FIFO transmission on the reply link) and forwards system calls — the
//! "home dependency" the paper's §7 flags as the main cost for
//! I/O-intensive applications.
//!
//! [`MultiDeputy`] generalises it to a *multi-migrant* page service: one
//! home node serving N migrated processes at once (the 300-node
//! deployment of §5 makes a busy home node the common case). Work is
//! sharded per migrant, overlapping requests for the same page coalesce
//! into one service event, and the shared service capacity is divided by
//! a deficit-round-robin scheduler so one hot migrant cannot starve the
//! rest. A single-shard `MultiDeputy` driven FIFO reproduces [`Deputy`]'s
//! service arithmetic exactly (pinned by tests below and by the
//! `multi_identity` differential goldens).
//!
//! ## Arrival tie-breaking (audited, pinned by regression tests)
//!
//! A request arriving *exactly* at `busy_until` is **not** counted as
//! queued ([`Deputy`]'s backlog test is strictly positive) and starts
//! service immediately; among requests with equal arrival the submission
//! order decides, and across shards the deficit-round-robin visit order
//! (ascending shard index from the scheduler cursor) decides. The
//! sharded scheduler keeps all three rules.

use std::collections::{HashSet, VecDeque};

use ampom_mem::page::PageId;
use ampom_mem::table::{PageLocation, PageTablePair};
use ampom_net::fault::Fate;
use ampom_sim::time::{SimDuration, SimTime};

use crate::cluster::NetPath;
use crate::metrics::DeputyStats;

/// Per-page service cost at the deputy: HPT lookup, page-table walk, copy
/// into an skb and socket submission on a 2.4-era kernel.
pub const PAGE_SERVICE_COST: SimDuration = SimDuration::from_micros(30);

/// Fixed cost to parse one paging request.
pub const REQUEST_PARSE_COST: SimDuration = SimDuration::from_micros(10);

/// CPU cost of executing a forwarded system call at the home node
/// (getpid-class; I/O calls pass `work` explicitly).
pub const SYSCALL_EXEC_COST: SimDuration = SimDuration::from_micros(20);

/// One served page: which page, and when it lands at the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedPage {
    /// The page sent.
    pub page: PageId,
    /// Arrival time at the destination node.
    pub arrives: SimTime,
}

/// The home-node deputy.
#[derive(Debug, Default)]
pub struct Deputy {
    /// When the deputy finishes its current work (requests queue behind
    /// one another — it is a single kernel thread).
    busy_until: SimTime,
    /// Pages served over this deputy's lifetime.
    pages_served: u64,
    /// Requests answered.
    requests_served: u64,
    /// Syscalls forwarded.
    syscalls_served: u64,
    /// Pages re-sent because the migrant re-requested a page already
    /// transferred (its reply was lost).
    pages_resent: u64,
    /// Saturation counters (queue depth, backlog, busy time).
    stats: DeputyStats,
}

impl Deputy {
    /// A fresh deputy.
    pub fn new() -> Self {
        Deputy::default()
    }

    /// Serves a paging request that arrived at the home node at
    /// `arrival`, asking for `pages` in request order. Updates the
    /// page-table pair (the origin's copy is deleted as each page ships,
    /// §2.2), enqueues the replies on the path and appends each page's
    /// destination arrival to `served`, in request order. The caller owns
    /// `served`, so a run reuses one buffer for every request.
    ///
    /// Pages not stored at the origin (already shipped, or created at the
    /// destination) are skipped defensively — the migrant's request may
    /// race a previous transfer.
    pub fn serve_request(
        &mut self,
        arrival: SimTime,
        pages: impl IntoIterator<Item = PageId>,
        table: &mut PageTablePair,
        path: &mut NetPath,
        served: &mut Vec<ServedPage>,
    ) {
        self.note_arrival(arrival);
        self.requests_served += 1;
        let mut start = arrival.max(self.busy_until) + REQUEST_PARSE_COST;
        self.stats.busy_time += REQUEST_PARSE_COST;
        for page in pages {
            if table.lookup(page) != Some(PageLocation::Origin) {
                continue;
            }
            start += PAGE_SERVICE_COST;
            self.stats.busy_time += PAGE_SERVICE_COST;
            table.transfer_to_destination(page);
            let arrives = path.send_page(start);
            self.pages_served += 1;
            served.push(ServedPage { page, arrives });
        }
        self.busy_until = start;
    }

    /// Serves a paging request over a faulty reply direction: each page
    /// reply is given a fate by `reply_fate` — dropped replies occupy the
    /// link but never arrive, jittered replies arrive late. The delivered
    /// replies are appended to `served` as [`Deputy::serve_request`]
    /// appends them.
    ///
    /// Unlike [`Deputy::serve_request`], pages already recorded at the
    /// destination are *re-sent* rather than skipped: with loss enabled
    /// the page table saying "transferred" no longer implies the migrant
    /// received the copy, and a re-request is the protocol's signal that
    /// the original reply was lost.
    pub fn serve_request_faulty(
        &mut self,
        arrival: SimTime,
        pages: impl IntoIterator<Item = PageId>,
        table: &mut PageTablePair,
        path: &mut NetPath,
        mut reply_fate: impl FnMut() -> Fate,
        served: &mut Vec<ServedPage>,
    ) {
        self.note_arrival(arrival);
        self.requests_served += 1;
        let mut start = arrival.max(self.busy_until) + REQUEST_PARSE_COST;
        self.stats.busy_time += REQUEST_PARSE_COST;
        for page in pages {
            let resend = match table.lookup(page) {
                Some(PageLocation::Origin) => false,
                Some(PageLocation::Destination) => true,
                _ => continue,
            };
            start += PAGE_SERVICE_COST;
            self.stats.busy_time += PAGE_SERVICE_COST;
            if resend {
                self.pages_resent += 1;
            } else {
                table.transfer_to_destination(page);
                self.pages_served += 1;
            }
            match reply_fate() {
                Fate::Dropped => path.send_page_lost(start),
                Fate::Delivered { extra_delay } => {
                    let arrives = path.send_page(start) + extra_delay;
                    served.push(ServedPage { page, arrives });
                }
            }
        }
        self.busy_until = start;
    }

    /// Records queue-depth/backlog observations for a request arriving at
    /// `arrival`.
    fn note_arrival(&mut self, arrival: SimTime) {
        let backlog = self.busy_until.saturating_since(arrival);
        if backlog > SimDuration::ZERO {
            self.stats.queued_requests += 1;
            self.stats.max_backlog = self.stats.max_backlog.max(backlog);
        }
    }

    /// Forwards a system call issued by the migrant at `now`: control
    /// message to the home node, execution there (`SYSCALL_EXEC_COST` plus
    /// the call's own `work`), result message back. Returns when the
    /// migrant can continue.
    pub fn forward_syscall(
        &mut self,
        now: SimTime,
        work: SimDuration,
        path: &mut NetPath,
    ) -> SimTime {
        self.syscalls_served += 1;
        let at_home = path.send_control_to_home(now, 128);
        self.note_arrival(at_home);
        let start = at_home.max(self.busy_until);
        let done = start + SYSCALL_EXEC_COST + work;
        self.stats.busy_time += SYSCALL_EXEC_COST + work;
        self.busy_until = done;
        path.send_control_to_dest(done, 128)
    }

    /// Pages served so far.
    pub fn pages_served(&self) -> u64 {
        self.pages_served
    }

    /// Requests answered so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Syscalls forwarded so far.
    pub fn syscalls_served(&self) -> u64 {
        self.syscalls_served
    }

    /// Pages re-sent in response to re-requests (fault runs only).
    pub fn pages_resent(&self) -> u64 {
        self.pages_resent
    }

    /// Saturation counters: queued requests, worst backlog, busy time.
    pub fn stats(&self) -> DeputyStats {
        self.stats
    }

    /// When the deputy finishes its currently queued work.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}

/// Identifies one migrant's shard in a [`MultiDeputy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MigrantId(pub u32);

impl MigrantId {
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Admission-control tuning for a [`MultiDeputy`] (and, with the same
/// semantics, the live `DeputyServer`).
///
/// Two independent mechanisms, both defaulting to "off" so existing
/// configurations keep today's unbounded behaviour bit-for-bit:
///
/// * **Per-shard page bound** — a shard whose pending (queued,
///   uncommitted) page set has reached `max_pending_pages` sheds further
///   *prefetch* pages from incoming requests. Demand pages are always
///   admitted: shedding speculative work first is the whole point, and a
///   shed prefetch merely degrades to a later demand fetch.
/// * **Hysteresis `Hello` gate** — new migrants are deferred once total
///   pending pages reach `gate_high` and re-admitted only after the
///   backlog drains below `gate_low`, so a deputy hovering at the
///   threshold does not flap between accepting and refusing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Pending-page bound per shard; `None` = unbounded (no shedding).
    pub max_pending_pages: Option<usize>,
    /// Total pending pages at which the `Hello` gate closes.
    pub gate_high: usize,
    /// Total pending pages below which a closed gate re-opens.
    pub gate_low: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_pending_pages: None,
            gate_high: usize::MAX,
            gate_low: usize::MAX,
        }
    }
}

impl AdmissionConfig {
    /// Bounds every shard at `max_pending_pages` and derives gate
    /// watermarks from it: close at four bounds' worth of total backlog,
    /// re-open at two.
    pub fn bounded(max_pending_pages: usize) -> Self {
        AdmissionConfig {
            max_pending_pages: Some(max_pending_pages),
            gate_high: max_pending_pages.saturating_mul(4),
            gate_low: max_pending_pages.saturating_mul(2),
        }
    }

    /// True when neither mechanism can ever fire.
    pub fn is_unbounded(&self) -> bool {
        self.max_pending_pages.is_none() && self.gate_high == usize::MAX
    }

    /// Checks the watermarks are ordered and the bound is non-degenerate.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_pending_pages == Some(0) {
            return Err(
                "max_pending_pages must be >= 1: a zero bound would shed every \
                 prefetch including the first"
                    .into(),
            );
        }
        if self.gate_low > self.gate_high {
            return Err(format!(
                "admission gate watermarks inverted: gate_low {} > gate_high {}",
                self.gate_low, self.gate_high
            ));
        }
        Ok(())
    }
}

/// The outcome of one admission-controlled request submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Admitted {
    /// Pages accepted for service, in request order (as
    /// [`MultiDeputy::submit_request`] returns them). Coalesced pages
    /// appear in neither list — their earlier acceptance covers them.
    pub accepted: Vec<PageId>,
    /// Prefetch pages refused by the per-shard bound. The caller must
    /// treat these as never requested (they stay at the origin and will
    /// be demand-fetched if actually needed).
    pub shed: Vec<PageId>,
}

/// Deficit-round-robin tuning for the shared service capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrrConfig {
    /// Service time credited to a backlogged shard per scheduler round.
    /// Every backlogged shard receives at least one quantum of service
    /// per round, which is the fairness floor the property suite pins.
    pub quantum: SimDuration,
}

impl Default for DrrConfig {
    fn default() -> Self {
        // One parsed request plus a four-page zone per round: small enough
        // to interleave migrants at page granularity, large enough that a
        // typical demand+zone request completes in one visit.
        DrrConfig {
            quantum: SimDuration::from_micros(130),
        }
    }
}

/// One unit of deputy work queued on a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkKind {
    /// Parsing one paging request.
    Parse,
    /// Serving one page (walk + copy + socket submission).
    Page(PageId),
    /// Executing one forwarded system call.
    Syscall,
}

#[derive(Debug, Clone, Copy)]
struct WorkItem {
    arrival: SimTime,
    cost: SimDuration,
    kind: WorkKind,
}

/// A committed service event: what finished, for whom, and when the
/// deputy CPU released it (reply transmission is the caller's path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// A page left the deputy at `finish`.
    Page {
        /// The shard it belongs to.
        migrant: MigrantId,
        /// The page served.
        page: PageId,
        /// When its service (and socket submission) completed.
        finish: SimTime,
    },
    /// A forwarded system call completed at `finish`.
    Syscall {
        /// The shard it belongs to.
        migrant: MigrantId,
        /// When the call's execution completed.
        finish: SimTime,
    },
}

impl Completion {
    /// The shard this completion belongs to.
    pub fn migrant(&self) -> MigrantId {
        match self {
            Completion::Page { migrant, .. } | Completion::Syscall { migrant, .. } => *migrant,
        }
    }
}

/// One migrant's slice of the deputy: its request queue, the pages
/// currently pending service (the coalescing set), and its attribution
/// of the shared service capacity.
#[derive(Debug, Default)]
struct Shard {
    queue: VecDeque<WorkItem>,
    /// Pages submitted and not yet committed: a re-request for one of
    /// these coalesces into the existing service event.
    pending: HashSet<PageId>,
    /// Unspent DRR service credit.
    deficit: SimDuration,
    stats: DeputyStats,
    pages_served: u64,
    requests_served: u64,
    syscalls_served: u64,
    pages_coalesced: u64,
}

/// The home-node deputy serving N concurrent migrants.
///
/// Submissions are accounted *at submission time* against a virtual
/// serial-server clock (`virtual_busy_until`), which follows exactly the
/// eager `max(busy, arrival) + cost` recurrence of [`Deputy`]; a
/// work-conserving serial server's completion of all submitted work does
/// not depend on its internal service order, so the saturation stats a
/// single migrant observes are bit-identical to the eager deputy's.
/// Actual service order is decided lazily by [`MultiDeputy::commit_next`]
/// under deficit round robin, producing per-migrant [`Completion`]s that
/// callers batch into replies.
#[derive(Debug)]
pub struct MultiDeputy {
    shards: Vec<Shard>,
    drr: DrrConfig,
    /// Finish time of the last committed item (the real service clock).
    clock: SimTime,
    /// Eager-recurrence busy horizon over all submitted work.
    virtual_busy_until: SimTime,
    /// Next shard the DRR scheduler visits.
    cursor: usize,
    /// Whether the shard at `cursor` has already received its quantum
    /// for the visit currently in progress (classic DRR credits a queue
    /// once per visit, then serves while the deficit lasts).
    credited: bool,
    /// Whether the hysteresis `Hello` gate is currently closed.
    gated: bool,
    /// Hellos deferred while the gate was closed (deputy-level: the
    /// refused migrant has no shard to charge).
    gate_deferrals: u64,
}

impl MultiDeputy {
    /// A deputy with `migrants` empty shards and default DRR tuning.
    pub fn new(migrants: usize) -> Self {
        MultiDeputy::with_drr(migrants, DrrConfig::default())
    }

    /// A deputy with `migrants` empty shards and explicit DRR tuning.
    pub fn with_drr(migrants: usize, drr: DrrConfig) -> Self {
        assert!(migrants > 0, "a deputy serves at least one migrant");
        assert!(
            drr.quantum > SimDuration::ZERO,
            "a zero quantum would never credit service"
        );
        MultiDeputy {
            shards: (0..migrants).map(|_| Shard::default()).collect(),
            drr,
            clock: SimTime::ZERO,
            virtual_busy_until: SimTime::ZERO,
            cursor: 0,
            credited: false,
            gated: false,
            gate_deferrals: 0,
        }
    }

    /// Number of shards.
    pub fn migrants(&self) -> usize {
        self.shards.len()
    }

    /// Submits one paging request for shard `m` arriving at `arrival` and
    /// returns the pages accepted for service, in request order. Pages
    /// already pending on the shard coalesce into their existing service
    /// event and are not returned (their earlier acceptance covers them);
    /// pages whose earlier service already committed are accepted again
    /// (a re-request after a lost reply must be re-sent).
    pub fn submit_request(
        &mut self,
        m: MigrantId,
        arrival: SimTime,
        pages: &[PageId],
    ) -> Vec<PageId> {
        self.submit_request_admitted(m, arrival, pages, None, &AdmissionConfig::default())
            .accepted
    }

    /// Admission-controlled variant of [`MultiDeputy::submit_request`]:
    /// pages beyond the shard's `max_pending_pages` bound are shed rather
    /// than queued — except `demand`, which is always admitted (only
    /// speculative work is shed). With the default (unbounded) config
    /// this is exactly `submit_request`: same acceptance, same
    /// accounting, nothing shed.
    pub fn submit_request_admitted(
        &mut self,
        m: MigrantId,
        arrival: SimTime,
        pages: &[PageId],
        demand: Option<PageId>,
        adm: &AdmissionConfig,
    ) -> Admitted {
        let bound = adm.max_pending_pages.unwrap_or(usize::MAX);
        let shard = &mut self.shards[m.idx()];
        let mut accepted = Vec::with_capacity(pages.len());
        let mut shed = Vec::new();
        for &page in pages {
            if shard.pending.contains(&page) {
                shard.pages_coalesced += 1;
            } else if demand != Some(page) && shard.pending.len() >= bound {
                shard.stats.prefetch_pages_shed += 1;
                shed.push(page);
            } else {
                shard.pending.insert(page);
                accepted.push(page);
            }
        }
        if !shed.is_empty() {
            shard.stats.shed_events += 1;
        }
        shard.requests_served += 1;
        note_arrival_against(self.virtual_busy_until, arrival, &mut shard.stats);
        let cost = REQUEST_PARSE_COST + PAGE_SERVICE_COST.saturating_mul(accepted.len() as u64);
        shard.stats.busy_time += cost;
        shard.pages_served += accepted.len() as u64;
        self.virtual_busy_until = self.virtual_busy_until.max(arrival) + cost;
        shard.queue.push_back(WorkItem {
            arrival,
            cost: REQUEST_PARSE_COST,
            kind: WorkKind::Parse,
        });
        for &page in &accepted {
            shard.queue.push_back(WorkItem {
                arrival,
                cost: PAGE_SERVICE_COST,
                kind: WorkKind::Page(page),
            });
        }
        Admitted { accepted, shed }
    }

    /// The hysteresis `Hello` gate: returns true when a new migrant may
    /// be admitted now. The gate closes once total pending pages reach
    /// `gate_high` and re-opens only after they drain below `gate_low`;
    /// each refused call counts one deferral.
    pub fn admission_gate(&mut self, adm: &AdmissionConfig) -> bool {
        let pending = self.total_pending_pages();
        if self.gated {
            if pending < adm.gate_low {
                self.gated = false;
            }
        } else if pending >= adm.gate_high {
            self.gated = true;
        }
        if self.gated {
            self.gate_deferrals += 1;
        }
        !self.gated
    }

    /// Pages queued and not yet committed, across all shards (the
    /// admission gate's saturation signal).
    pub fn total_pending_pages(&self) -> usize {
        self.shards.iter().map(|s| s.pending.len()).sum()
    }

    /// Submits one forwarded system call for shard `m`, arriving at the
    /// home node at `arrival` with `work` of call-specific execution.
    pub fn submit_syscall(&mut self, m: MigrantId, arrival: SimTime, work: SimDuration) {
        let shard = &mut self.shards[m.idx()];
        shard.syscalls_served += 1;
        note_arrival_against(self.virtual_busy_until, arrival, &mut shard.stats);
        let cost = SYSCALL_EXEC_COST + work;
        shard.stats.busy_time += cost;
        self.virtual_busy_until = self.virtual_busy_until.max(arrival) + cost;
        shard.queue.push_back(WorkItem {
            arrival,
            cost,
            kind: WorkKind::Syscall,
        });
    }

    /// Picks the next item under deficit round robin without mutating
    /// scheduler state. Returns `(shard, start, deficits, credited)`
    /// where `deficits` holds every shard's credit after the selection
    /// sweep and `credited` says the chosen shard already received its
    /// quantum for the visit in progress.
    fn select_next(&self) -> Option<(usize, SimTime, Vec<SimDuration>, bool)> {
        if self.shards.iter().all(|s| s.queue.is_empty()) {
            return None;
        }
        // An idle deputy jumps its clock to the earliest queued arrival;
        // an item arriving exactly at the clock is immediately eligible
        // (the `>` in `note_arrival_against` is the same strict rule).
        let min_arrival = self
            .shards
            .iter()
            .filter_map(|s| s.queue.front().map(|i| i.arrival))
            .min()
            .expect("some queue is non-empty");
        let clock = self.clock.max(min_arrival);
        let eligible = |s: &Shard| s.queue.front().is_some_and(|item| item.arrival <= clock);

        let mut deficits: Vec<SimDuration> = self.shards.iter().map(|s| s.deficit).collect();
        let mut cursor = self.cursor;
        let mut credited = self.credited;
        // Each full sweep credits every eligible shard one quantum, so
        // the costliest queued item (bounded at submission) is reachable
        // in finitely many sweeps; at least one shard is eligible at
        // `clock` by construction, so the sweep cannot spin on an empty
        // schedule.
        loop {
            let shard = &self.shards[cursor];
            if eligible(shard) {
                if !credited {
                    deficits[cursor] += self.drr.quantum;
                    credited = true;
                }
                let item = shard.queue.front().expect("eligible shard has a head");
                if item.cost <= deficits[cursor] {
                    let start = clock.max(item.arrival);
                    return Some((cursor, start, deficits, credited));
                }
            } else if shard.queue.is_empty() {
                // Classic DRR: an emptied queue forfeits leftover credit.
                deficits[cursor] = SimDuration::ZERO;
            }
            cursor = (cursor + 1) % self.shards.len();
            credited = false;
        }
    }

    /// Commits the next service event in DRR order, if any work is
    /// queued. `Parse` items are folded into the pages they precede (a
    /// parse alone produces no completion), so this loops internally
    /// until a page or syscall finishes.
    pub fn commit_next(&mut self) -> Option<Completion> {
        self.commit_next_bounded(None)
    }

    /// Like [`MultiDeputy::commit_next`], but refuses to commit an item
    /// whose service would *start* after `horizon`. Callers that know no
    /// future submission can arrive at or before `horizon` use this to
    /// commit exactly the causally-settled prefix.
    pub fn commit_next_bounded(&mut self, horizon: Option<SimTime>) -> Option<Completion> {
        loop {
            let (i, start, deficits, credited) = self.select_next()?;
            if horizon.is_some_and(|h| start > h) {
                return None;
            }
            // Apply the selection: the sweep's credit/reset decisions
            // become real only when an item is actually committed.
            self.cursor = i;
            self.credited = credited;
            for (shard, d) in self.shards.iter_mut().zip(deficits) {
                shard.deficit = d;
            }
            let shard = &mut self.shards[i];
            let item = shard.queue.pop_front().expect("selected shard has a head");
            shard.deficit -= item.cost;
            if shard.queue.is_empty() {
                shard.deficit = SimDuration::ZERO;
            }
            let finish = start + item.cost;
            self.clock = finish;
            let migrant = MigrantId(i as u32);
            match item.kind {
                WorkKind::Parse => continue,
                WorkKind::Page(page) => {
                    shard.pending.remove(&page);
                    return Some(Completion::Page {
                        migrant,
                        page,
                        finish,
                    });
                }
                WorkKind::Syscall => return Some(Completion::Syscall { migrant, finish }),
            }
        }
    }

    /// Commits every service event starting at or before `horizon`, in
    /// order, into `out`.
    pub fn commit_until(&mut self, horizon: SimTime, out: &mut Vec<Completion>) {
        while let Some(c) = self.commit_next_bounded(Some(horizon)) {
            out.push(c);
        }
    }

    /// Drains every queued item to completion.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = self.commit_next() {
            out.push(c);
        }
        out
    }

    /// Queued (uncommitted) work items across all shards.
    pub fn queued_items(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Total service cost still queued (uncommitted) on shard `m`.
    pub fn queued_cost(&self, m: MigrantId) -> SimDuration {
        self.shards[m.idx()].queue.iter().map(|i| i.cost).sum()
    }

    /// Saturation counters of one shard.
    pub fn shard_stats(&self, m: MigrantId) -> DeputyStats {
        self.shards[m.idx()].stats
    }

    /// Aggregate saturation counters: `queued_requests` and `busy_time`
    /// sum exactly across shards; `max_backlog` is the shard maximum.
    pub fn aggregate_stats(&self) -> DeputyStats {
        let mut agg = DeputyStats::default();
        for s in &self.shards {
            agg.queued_requests += s.stats.queued_requests;
            agg.busy_time += s.stats.busy_time;
            agg.max_backlog = agg.max_backlog.max(s.stats.max_backlog);
            agg.prefetch_pages_shed += s.stats.prefetch_pages_shed;
            agg.demand_pages_shed += s.stats.demand_pages_shed;
            agg.shed_events += s.stats.shed_events;
            agg.hellos_deferred += s.stats.hellos_deferred;
        }
        agg.hellos_deferred += self.gate_deferrals;
        agg
    }

    /// Pages accepted for service on shard `m` so far.
    pub fn pages_served(&self, m: MigrantId) -> u64 {
        self.shards[m.idx()].pages_served
    }

    /// Requests submitted on shard `m` so far.
    pub fn requests_served(&self, m: MigrantId) -> u64 {
        self.shards[m.idx()].requests_served
    }

    /// Syscalls submitted on shard `m` so far.
    pub fn syscalls_served(&self, m: MigrantId) -> u64 {
        self.shards[m.idx()].syscalls_served
    }

    /// Page submissions on shard `m` coalesced into an already-pending
    /// service event.
    pub fn pages_coalesced(&self, m: MigrantId) -> u64 {
        self.shards[m.idx()].pages_coalesced
    }

    /// Shard `m`'s share of total deputy service time so far, in
    /// `[0, 1]`; `1.0` when the deputy has done no work at all.
    pub fn service_share(&self, m: MigrantId) -> f64 {
        let total: SimDuration = self.shards.iter().map(|s| s.stats.busy_time).sum();
        if total.is_zero() {
            return 1.0;
        }
        self.shards[m.idx()].stats.busy_time.as_secs_f64() / total.as_secs_f64()
    }

    /// The eager serial-server busy horizon over all submitted work
    /// (equals [`Deputy::busy_until`] for a single-shard FIFO history).
    pub fn virtual_busy_until(&self) -> SimTime {
        self.virtual_busy_until
    }

    /// Finish time of the last committed service event.
    pub fn clock(&self) -> SimTime {
        self.clock
    }
}

/// The arrival-vs-backlog observation shared by [`Deputy`] and
/// [`MultiDeputy`]: a request is "queued" only when the server is
/// *strictly* busy past its arrival — arriving exactly at `busy_until`
/// starts service immediately and leaves the queue-depth counters alone.
fn note_arrival_against(busy_until: SimTime, arrival: SimTime, stats: &mut DeputyStats) {
    let backlog = busy_until.saturating_since(arrival);
    if backlog > SimDuration::ZERO {
        stats.queued_requests += 1;
        stats.max_backlog = stats.max_backlog.max(backlog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_net::calibration::fast_ethernet;

    fn setup(pages: u64) -> (Deputy, PageTablePair, NetPath) {
        (
            Deputy::new(),
            PageTablePair::at_migration((0..pages).map(PageId)),
            NetPath::new(fast_ethernet()),
        )
    }

    /// One request through [`Deputy::serve_request`], into a fresh buffer.
    fn serve(
        d: &mut Deputy,
        arrival: SimTime,
        pages: &[PageId],
        t: &mut PageTablePair,
        p: &mut NetPath,
    ) -> Vec<ServedPage> {
        let mut served = Vec::new();
        d.serve_request(arrival, pages.iter().copied(), t, p, &mut served);
        served
    }

    /// One request through [`Deputy::serve_request_faulty`], into a fresh
    /// buffer.
    fn serve_faulty(
        d: &mut Deputy,
        arrival: SimTime,
        pages: &[PageId],
        t: &mut PageTablePair,
        p: &mut NetPath,
        reply_fate: impl FnMut() -> Fate,
    ) -> Vec<ServedPage> {
        let mut served = Vec::new();
        d.serve_request_faulty(
            arrival,
            pages.iter().copied(),
            t,
            p,
            reply_fate,
            &mut served,
        );
        served
    }

    #[test]
    fn serves_pages_in_order_with_pipelined_arrivals() {
        let (mut d, mut t, mut p) = setup(10);
        let req: Vec<PageId> = (0..4).map(PageId).collect();
        let served = serve(&mut d, SimTime::ZERO, &req, &mut t, &mut p);
        assert_eq!(served.len(), 4);
        for w in served.windows(2) {
            assert!(w[1].arrives > w[0].arrives);
        }
        // The page table no longer stores them at the origin.
        for s in &served {
            assert_eq!(t.lookup(s.page), Some(PageLocation::Destination));
        }
        assert_eq!(d.pages_served(), 4);
    }

    #[test]
    fn already_transferred_pages_are_skipped() {
        let (mut d, mut t, mut p) = setup(4);
        t.transfer_to_destination(PageId(1));
        let served = serve(
            &mut d,
            SimTime::ZERO,
            &[PageId(0), PageId(1)],
            &mut t,
            &mut p,
        );
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].page, PageId(0));
    }

    #[test]
    fn unmapped_pages_are_skipped() {
        let (mut d, mut t, mut p) = setup(2);
        let served = serve(&mut d, SimTime::ZERO, &[PageId(99)], &mut t, &mut p);
        assert!(served.is_empty());
        assert_eq!(d.requests_served(), 1);
    }

    #[test]
    fn requests_queue_behind_each_other() {
        let (mut d, mut t, mut p) = setup(100);
        let big: Vec<PageId> = (0..50).map(PageId).collect();
        let first = serve(&mut d, SimTime::ZERO, &big, &mut t, &mut p);
        let second = serve(&mut d, SimTime::ZERO, &[PageId(60)], &mut t, &mut p);
        assert!(second[0].arrives > first.last().unwrap().arrives);
    }

    #[test]
    fn served_pages_append_to_the_callers_buffer() {
        // The demand page chained with its zone, twice into one buffer:
        // the second request's replies follow the first's.
        let (mut d, mut t, mut p) = setup(16);
        let (mut fresh, mut ft, mut fp) = setup(16);
        let zone = [PageId(3), PageId(4)];
        let mut served = Vec::new();
        for (arrival_us, demand) in [(0, PageId(1)), (7, PageId(9))] {
            let pages = std::iter::once(demand).chain(zone.iter().copied());
            d.serve_request(at(arrival_us), pages, &mut t, &mut p, &mut served);
        }
        let mut want = serve(
            &mut fresh,
            at(0),
            &[PageId(1), PageId(3), PageId(4)],
            &mut ft,
            &mut fp,
        );
        want.extend(serve(
            &mut fresh,
            at(7),
            &[PageId(9), PageId(3), PageId(4)],
            &mut ft,
            &mut fp,
        ));
        assert_eq!(served, want);
        let pages: Vec<u64> = served.iter().map(|s| s.page.index()).collect();
        assert_eq!(
            pages,
            [1, 3, 4, 9],
            "zone pages already shipped are skipped"
        );
    }

    #[test]
    fn syscall_round_trip_exceeds_rtt() {
        let (mut d, _t, mut p) = setup(1);
        let done = d.forward_syscall(SimTime::ZERO, SimDuration::ZERO, &mut p);
        assert!(done.since(SimTime::ZERO) >= p.latency() * 2);
        assert_eq!(d.syscalls_served(), 1);
    }

    #[test]
    fn saturation_stats_track_queueing() {
        let (mut d, mut t, mut p) = setup(100);
        let big: Vec<PageId> = (0..50).map(PageId).collect();
        serve(&mut d, SimTime::ZERO, &big, &mut t, &mut p);
        assert_eq!(
            d.stats().queued_requests,
            0,
            "first request saw idle deputy"
        );
        serve(&mut d, SimTime::ZERO, &[PageId(60)], &mut t, &mut p);
        let s = d.stats();
        assert_eq!(s.queued_requests, 1);
        assert!(s.max_backlog >= REQUEST_PARSE_COST + PAGE_SERVICE_COST * 50);
        assert!(s.busy_time >= REQUEST_PARSE_COST * 2 + PAGE_SERVICE_COST * 51);
        assert_eq!(d.busy_until(), SimTime::ZERO + s.busy_time);
    }

    #[test]
    fn faulty_serve_resends_transferred_pages_and_drops_on_fate() {
        let (mut d, mut t, mut p) = setup(4);
        // First reply dropped: page 0 transfers but never arrives.
        let served = serve_faulty(&mut d, SimTime::ZERO, &[PageId(0)], &mut t, &mut p, || {
            Fate::Dropped
        });
        assert!(served.is_empty());
        assert_eq!(t.lookup(PageId(0)), Some(PageLocation::Destination));
        // Re-request: the deputy re-sends even though the table says
        // Destination.
        let served = serve_faulty(&mut d, SimTime::ZERO, &[PageId(0)], &mut t, &mut p, || {
            Fate::Delivered {
                extra_delay: SimDuration::from_micros(5),
            }
        });
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].page, PageId(0));
        assert_eq!(d.pages_resent(), 1);
        assert_eq!(d.pages_served(), 1);
    }

    #[test]
    fn faulty_serve_with_clean_fates_matches_plain_serve() {
        let (mut d1, mut t1, mut p1) = setup(8);
        let (mut d2, mut t2, mut p2) = setup(8);
        let req: Vec<PageId> = (0..5).map(PageId).collect();
        let a = serve(&mut d1, SimTime::ZERO, &req, &mut t1, &mut p1);
        let b = serve_faulty(&mut d2, SimTime::ZERO, &req, &mut t2, &mut p2, || {
            Fate::Delivered {
                extra_delay: SimDuration::ZERO,
            }
        });
        assert_eq!(a, b);
    }

    #[test]
    fn syscall_work_adds_to_latency() {
        let (mut d, _t, mut p) = setup(1);
        let quick = d.forward_syscall(SimTime::ZERO, SimDuration::ZERO, &mut p);
        let (mut d2, _t2, mut p2) = setup(1);
        let slow = d2.forward_syscall(SimTime::ZERO, SimDuration::from_millis(5), &mut p2);
        assert!(
            slow.since(SimTime::ZERO) > quick.since(SimTime::ZERO) + SimDuration::from_millis(4)
        );
    }

    // --- MultiDeputy --------------------------------------------------

    const M0: MigrantId = MigrantId(0);
    const M1: MigrantId = MigrantId(1);

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + us(n)
    }

    /// Drives a `Deputy` and a single-shard `MultiDeputy` through the
    /// same request/syscall history and checks the service arithmetic
    /// (busy horizon, stats) agrees exactly.
    #[test]
    fn single_shard_matches_eager_deputy_arithmetic() {
        let (mut d, mut t, mut p) = setup(64);
        let mut md = MultiDeputy::new(1);
        let history: [(u64, Vec<u64>); 4] = [
            (0, vec![0, 1, 2]),
            (5, vec![3]),
            (400, vec![4, 5]),
            (401, vec![6, 7, 8, 9]),
        ];
        for (arrival_us, pages) in &history {
            let req: Vec<PageId> = pages.iter().copied().map(PageId).collect();
            serve(&mut d, at(*arrival_us), &req, &mut t, &mut p);
            let accepted = md.submit_request(M0, at(*arrival_us), &req);
            assert_eq!(accepted, req, "fault-free run never coalesces");
        }
        assert_eq!(md.virtual_busy_until(), d.busy_until());
        assert_eq!(md.aggregate_stats(), d.stats());
        assert_eq!(md.shard_stats(M0), d.stats());
        // Committing everything FIFO lands the clock on the same horizon.
        let all = md.drain();
        assert_eq!(all.len(), 10);
        assert_eq!(md.clock(), d.busy_until());
    }

    /// Tie-break audit, rule 1: a request arriving exactly at
    /// `busy_until` is not queued and starts service immediately.
    #[test]
    fn arrival_exactly_at_busy_until_is_not_queued() {
        // Eager deputy first: the audited baseline behaviour.
        let (mut d, mut t, mut p) = setup(8);
        serve(&mut d, SimTime::ZERO, &[PageId(0)], &mut t, &mut p);
        let horizon = d.busy_until();
        serve(&mut d, horizon, &[PageId(1)], &mut t, &mut p);
        assert_eq!(d.stats().queued_requests, 0);
        assert_eq!(d.stats().max_backlog, SimDuration::ZERO);
        // One nanosecond earlier *is* queued: the backlog test is strict.
        let (mut d2, mut t2, mut p2) = setup(8);
        serve(&mut d2, SimTime::ZERO, &[PageId(0)], &mut t2, &mut p2);
        let just_before = d2.busy_until() - SimDuration::from_nanos(1);
        serve(&mut d2, just_before, &[PageId(1)], &mut t2, &mut p2);
        assert_eq!(d2.stats().queued_requests, 1);
        assert_eq!(d2.stats().max_backlog, SimDuration::from_nanos(1));

        // The sharded scheduler keeps both rules.
        let mut md = MultiDeputy::new(1);
        md.submit_request(M0, SimTime::ZERO, &[PageId(0)]);
        let horizon = md.virtual_busy_until();
        md.submit_request(M0, horizon, &[PageId(1)]);
        assert_eq!(md.aggregate_stats().queued_requests, 0);
        let mut md2 = MultiDeputy::new(1);
        md2.submit_request(M0, SimTime::ZERO, &[PageId(0)]);
        let just_before = md2.virtual_busy_until() - SimDuration::from_nanos(1);
        md2.submit_request(M0, just_before, &[PageId(1)]);
        assert_eq!(md2.aggregate_stats().queued_requests, 1);
        assert_eq!(
            md2.aggregate_stats().max_backlog,
            SimDuration::from_nanos(1)
        );
    }

    /// Tie-break audit, rules 2 and 3: equal arrivals serve in
    /// submission order within a shard, and in ascending shard index
    /// (from the scheduler cursor) across shards.
    #[test]
    fn equal_arrival_order_is_submission_then_shard_index() {
        let mut md = MultiDeputy::new(2);
        // Same arrival on both shards; shard 1 submitted first.
        md.submit_request(M1, SimTime::ZERO, &[PageId(10), PageId(11)]);
        md.submit_request(M0, SimTime::ZERO, &[PageId(20)]);
        let order: Vec<(MigrantId, PageId)> = md
            .drain()
            .into_iter()
            .map(|c| match c {
                Completion::Page { migrant, page, .. } => (migrant, page),
                Completion::Syscall { .. } => unreachable!("no syscalls submitted"),
            })
            .collect();
        // Cursor starts at shard 0, so shard 0 serves first despite the
        // later submission; within shard 1, pages keep submission order.
        assert_eq!(
            order,
            vec![(M0, PageId(20)), (M1, PageId(10)), (M1, PageId(11))]
        );
    }

    #[test]
    fn coalescing_merges_pending_pages_and_revives_committed_ones() {
        let mut md = MultiDeputy::new(1);
        let first = md.submit_request(M0, SimTime::ZERO, &[PageId(0), PageId(1)]);
        assert_eq!(first, vec![PageId(0), PageId(1)]);
        // Page 1 is still pending: the re-request coalesces.
        let second = md.submit_request(M0, at(1), &[PageId(1), PageId(2)]);
        assert_eq!(second, vec![PageId(2)]);
        assert_eq!(md.pages_coalesced(M0), 1);
        // Coalescing never drops a page: all three distinct pages come out.
        let mut served: Vec<PageId> = md
            .drain()
            .iter()
            .filter_map(|c| match c {
                Completion::Page { page, .. } => Some(*page),
                Completion::Syscall { .. } => None,
            })
            .collect();
        assert_eq!(served, vec![PageId(0), PageId(1), PageId(2)]);
        // After commit the page is no longer pending: a lost-reply
        // re-request is accepted (and re-served) again.
        let revived = md.submit_request(M0, at(500), &[PageId(1)]);
        assert_eq!(revived, vec![PageId(1)]);
        served = md
            .drain()
            .iter()
            .filter_map(|c| match c {
                Completion::Page { page, .. } => Some(*page),
                Completion::Syscall { .. } => None,
            })
            .collect();
        assert_eq!(served, vec![PageId(1)]);
    }

    #[test]
    fn drr_interleaves_a_hot_and_a_light_shard() {
        // Shard 0 floods 40 pages; shard 1 asks for one page slightly
        // later. Under FIFO the light shard would wait ~1.2ms; DRR must
        // serve it within a few quanta.
        let mut md = MultiDeputy::new(2);
        let flood: Vec<PageId> = (0..40).map(PageId).collect();
        md.submit_request(M0, SimTime::ZERO, &flood);
        md.submit_request(M1, at(1), &[PageId(100)]);
        let light_finish = md
            .drain()
            .iter()
            .find_map(|c| match c {
                Completion::Page {
                    migrant: m, finish, ..
                } if *m == M1 => Some(*finish),
                _ => None,
            })
            .expect("light shard's page is served");
        // FIFO completion would be parse + 40 pages + parse + 1 page
        // = 10 + 1200 + 10 + 30 = 1250us. DRR serves it after at most a
        // handful of the hot shard's quanta.
        assert!(
            light_finish < at(400),
            "light shard starved until {light_finish:?}"
        );
        // And the hot shard still gets the lion's share of service time.
        assert!(md.service_share(M0) > 0.85);
    }

    #[test]
    fn aggregate_stats_sum_exactly_across_shards() {
        let mut md = MultiDeputy::new(3);
        md.submit_request(M0, SimTime::ZERO, &[PageId(0), PageId(1)]);
        md.submit_request(M1, SimTime::ZERO, &[PageId(2)]);
        md.submit_syscall(MigrantId(2), at(1), us(5));
        md.submit_request(M0, at(2), &[PageId(3)]);
        let agg = md.aggregate_stats();
        let shards: Vec<DeputyStats> = (0..3).map(|i| md.shard_stats(MigrantId(i))).collect();
        assert_eq!(
            agg.queued_requests,
            shards.iter().map(|s| s.queued_requests).sum::<u64>()
        );
        assert_eq!(
            agg.busy_time,
            shards.iter().map(|s| s.busy_time).sum::<SimDuration>()
        );
        assert_eq!(
            agg.max_backlog,
            shards
                .iter()
                .map(|s| s.max_backlog)
                .max()
                .expect("three shards")
        );
        // Busy time is exactly the submitted service costs.
        let expect = REQUEST_PARSE_COST.saturating_mul(3)
            + PAGE_SERVICE_COST.saturating_mul(4)
            + SYSCALL_EXEC_COST
            + us(5);
        assert_eq!(agg.busy_time, expect);
    }

    #[test]
    fn commit_until_respects_the_horizon() {
        let mut md = MultiDeputy::new(1);
        md.submit_request(M0, SimTime::ZERO, &[PageId(0), PageId(1), PageId(2)]);
        let mut out = Vec::new();
        // Parse ends at 10us, page 0 starts at 10us: a 10us horizon
        // admits exactly the first page's service event.
        md.commit_until(at(10), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(md.queued_items(), 2);
        md.commit_until(at(10_000), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(md.queued_items(), 0);
        // Completion finish times are nondecreasing.
        let finishes: Vec<SimTime> = out
            .iter()
            .map(|c| match c {
                Completion::Page { finish, .. } | Completion::Syscall { finish, .. } => *finish,
            })
            .collect();
        assert!(finishes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn syscalls_and_pages_share_the_service_clock() {
        let mut md = MultiDeputy::new(1);
        md.submit_request(M0, SimTime::ZERO, &[PageId(0)]);
        md.submit_syscall(M0, SimTime::ZERO, SimDuration::ZERO);
        let all = md.drain();
        assert_eq!(all.len(), 2);
        // parse(10) + page(30) then syscall(20): finishes at 40 and 60us.
        assert_eq!(
            all[0],
            Completion::Page {
                migrant: M0,
                page: PageId(0),
                finish: at(40)
            }
        );
        assert_eq!(
            all[1],
            Completion::Syscall {
                migrant: M0,
                finish: at(60)
            }
        );
        assert_eq!(md.syscalls_served(M0), 1);
    }

    #[test]
    fn idle_deputy_jumps_clock_to_next_arrival() {
        let mut md = MultiDeputy::new(1);
        md.submit_request(M0, at(1_000), &[PageId(0)]);
        let all = md.drain();
        // Service starts at the arrival, not at the stale clock.
        assert_eq!(
            all[0],
            Completion::Page {
                migrant: M0,
                page: PageId(0),
                finish: at(1_040)
            }
        );
    }

    #[test]
    fn demand_is_always_admitted_while_prefetch_sheds_at_the_bound() {
        let mut md = MultiDeputy::new(1);
        let adm = AdmissionConfig::bounded(2);
        // Fill the shard to the bound with prefetch.
        let a = md.submit_request_admitted(M0, SimTime::ZERO, &[PageId(0), PageId(1)], None, &adm);
        assert_eq!(a.accepted.len(), 2);
        assert!(a.shed.is_empty());
        // At the bound: prefetch sheds, the demand page still gets in.
        let b = md.submit_request_admitted(
            M0,
            SimTime::ZERO,
            &[PageId(2), PageId(3), PageId(4)],
            Some(PageId(2)),
            &adm,
        );
        assert_eq!(b.accepted, vec![PageId(2)]);
        assert_eq!(b.shed, vec![PageId(3), PageId(4)]);
        let stats = md.shard_stats(M0);
        assert_eq!(stats.prefetch_pages_shed, 2);
        assert_eq!(stats.demand_pages_shed, 0);
        assert_eq!(stats.shed_events, 1);
        // Shed pages were never queued: draining serves only the admitted
        // three.
        let pages: Vec<_> = md
            .drain()
            .iter()
            .filter_map(|c| match c {
                Completion::Page { page, .. } => Some(*page),
                _ => None,
            })
            .collect();
        assert_eq!(pages, vec![PageId(0), PageId(1), PageId(2)]);
    }

    #[test]
    fn unbounded_admission_is_submit_request_exactly() {
        let mut a = MultiDeputy::new(2);
        let mut b = MultiDeputy::new(2);
        let m1 = MigrantId(1);
        for (m, t, pages) in [
            (M0, 0, vec![PageId(0), PageId(1)]),
            (m1, 15, vec![PageId(0)]),
            (M0, 40, vec![PageId(1), PageId(2)]), // one coalesces
        ] {
            let legacy = a.submit_request(m, at(t), &pages);
            let admitted = b.submit_request_admitted(
                m,
                at(t),
                &pages,
                pages.first().copied(),
                &AdmissionConfig::default(),
            );
            assert_eq!(legacy, admitted.accepted);
            assert!(admitted.shed.is_empty());
        }
        assert_eq!(a.aggregate_stats(), b.aggregate_stats());
        assert_eq!(a.drain(), b.drain());
    }

    #[test]
    fn hello_gate_has_hysteresis() {
        let mut md = MultiDeputy::new(1);
        let adm = AdmissionConfig {
            max_pending_pages: None,
            gate_high: 3,
            gate_low: 2,
        };
        assert!(adm.validate().is_ok());
        assert!(md.admission_gate(&adm), "an idle deputy admits");
        md.submit_request(M0, SimTime::ZERO, &[PageId(0), PageId(1), PageId(2)]);
        assert!(!md.admission_gate(&adm), "gate closes at gate_high");
        // Drain one page: pending 2, still >= gate_low — stays closed.
        md.commit_next();
        assert!(!md.admission_gate(&adm), "hysteresis holds the gate shut");
        // Drain another: pending 1 < gate_low — re-opens.
        md.commit_next();
        assert!(md.admission_gate(&adm), "gate re-opens below gate_low");
        assert_eq!(md.aggregate_stats().hellos_deferred, 2);
    }

    #[test]
    fn admission_config_rejects_degenerate_settings() {
        assert!(AdmissionConfig::bounded(0).validate().is_err());
        assert!(AdmissionConfig {
            max_pending_pages: Some(4),
            gate_high: 2,
            gate_low: 5,
        }
        .validate()
        .is_err());
        assert!(AdmissionConfig::default().is_unbounded());
        assert!(!AdmissionConfig::bounded(8).is_unbounded());
    }
}
