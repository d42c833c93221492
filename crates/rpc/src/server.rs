//! The live deputy: serves remote-paging requests over real sockets.
//!
//! [`DeputyServer`] is the socket-facing analog of
//! [`ampom_core::deputy::MultiDeputy`]: a bounded pool of worker threads
//! accepts connections on a TCP or Unix-domain listener, and each worker
//! *multiplexes* every session assigned to it through one event loop —
//! non-blocking reads, per-connection pending-page queues, and a
//! deficit-round-robin service pass across the sessions. One
//! `DeputyServer` therefore serves N concurrent migrants over a worker
//! pool smaller than N, exactly as the simulated multi-migrant deputy
//! shares one service capacity across shards.
//!
//! Within a worker the service discipline mirrors the simulation:
//!
//! * **Sharded pending store**: each connection owns a [`PendingQueue`]
//!   — FIFO service order per migrant, with a pending-set that
//!   *coalesces* a request for a page an earlier request already queued
//!   into the same service event. A page re-requested after being served
//!   (a retry for a lost reply) queues again, so coalescing never strands
//!   a migrant.
//! * **DRR fairness**: a cursor sweeps the worker's sessions; each visit
//!   grants [`ServerConfig::quantum_pages`] of deficit and serves pages
//!   while the deficit lasts, so a migrant flooding prefetch batches
//!   cannot starve a neighbour's demand fetches.
//! * **Reply batching**: the pages one visit serves leave as a single
//!   [`Frame::PageBatchReply`] (legacy [`Frame::PageReply`] when the
//!   visit serves exactly one page), bounded by
//!   [`MAX_BATCH_PAGES`].
//!
//! Backpressure is structural: a request may name at most
//! [`ServerConfig::max_pages_per_request`] pages (violations earn an
//! `Error` frame and a closed connection), the client side keeps a
//! bounded in-flight quota, and outbound bytes queue per connection with
//! partial non-blocking writes, so neither side buffers unboundedly.
//!
//! On top of the structural limits sits *admission control*, the live
//! analog of the simulated deputy's `AdmissionConfig`:
//!
//! * [`ServerConfig::max_pending_pages`] bounds each session's pending
//!   queue. A demand page (the head of a [`Frame::PageRequest`]) is
//!   always admitted; prefetch pages past the bound are **shed** with a
//!   single non-fatal [`CODE_OVERLOADED`] error frame naming them — the
//!   connection stays open and the client reverts the refused pages to
//!   the origin, where they degrade to later demand fetches.
//! * [`ServerConfig::gate_high`]/[`ServerConfig::gate_low`] form a
//!   hysteresis `Hello` gate per worker: once the worker's total pending
//!   pages reach `gate_high`, new sessions are deferred with a
//!   [`CODE_OVERLOADED`] handshake error until the backlog drains below
//!   `gate_low`.
//!
//! For fault-injection tests, [`ServerConfig::drop_after_pages`] makes
//! each connection die abruptly after serving that many pages — the
//! live equivalent of `DowntimeSchedule`'s deputy crash.
//!
//! ## The reactor
//!
//! Each worker is a *reactor shard*: it owns its sessions outright (no
//! cross-worker locks on the hot path — the listener itself is shared,
//! but `accept(2)` is its own synchronization) and, where the platform
//! supports it, parks in a [`crate::poll`] readiness wait across the
//! listener plus every session socket instead of the portable 1 ms
//! sleep-poll scan. Idle shards burn no CPU and wake the instant bytes
//! arrive; busy shards only issue read syscalls for sockets the kernel
//! reported readable. Outbound bytes queue as pooled segments and leave
//! via `write_vectored`, so one DRR pass's replies go out in one
//! syscall and the segment buffers recycle through a per-shard arena
//! ([`crate::frame::page_payload_into`] synthesizes payloads directly
//! into them — no per-page allocation). [`ServerConfig::reactor`]
//! selects the mode; the sleep-poll loop remains as the non-Unix
//! fallback and as a baseline for `deputybench`.
//!
//! Per-session outbound backpressure rides on the same machinery: a
//! session whose unflushed reply backlog reaches
//! [`ServerConfig::write_high_water`] stops being served (a
//! `write_stall`) until the backlog drains to
//! [`ServerConfig::write_low_water`] — hysteresis exactly like the
//! hello gate, bounding deputy memory against a stalled reader.

use std::collections::{HashSet, VecDeque};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_mem::writeback::WritebackSink;

use crate::frame::{
    encode_page_batch_reply_into, encode_page_reply_into, Frame, FrameBuffer, WireStats,
    CODE_OVERLOADED, MAX_BATCH_PAGES, WIRE_VERSION,
};
use crate::RpcError;

/// Tuning knobs of a [`DeputyServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections. Each worker multiplexes any
    /// number of sessions, so N migrants complete on fewer workers.
    pub workers: usize,
    /// Upper bound on pages named by one request frame.
    pub max_pages_per_request: u32,
    /// Fault injection: close each connection abruptly after serving
    /// this many pages (`None` = reliable deputy).
    pub drop_after_pages: Option<u64>,
    /// DRR quantum: pages of deficit granted per scheduling visit to a
    /// session. Smaller quanta interleave migrants more finely.
    pub quantum_pages: u32,
    /// Admission bound on each session's pending queue (`None` =
    /// unbounded, the pre-v3 behaviour). Demand pages are always
    /// admitted; prefetch pages past the bound are shed with a non-fatal
    /// [`CODE_OVERLOADED`] frame.
    pub max_pending_pages: Option<usize>,
    /// Hello-gate high watermark: a worker whose total pending pages
    /// reach this defers new `Hello`s with [`CODE_OVERLOADED`]. The
    /// default (`usize::MAX`) never gates.
    pub gate_high: usize,
    /// Hello-gate low watermark: a gated worker re-opens admission once
    /// its total pending pages drop *below* this (hysteresis, so the
    /// gate does not flap at the boundary). Must be `<= gate_high`.
    pub gate_low: usize,
    /// Drive workers with readiness waits (`poll(2)`) instead of the
    /// 1 ms sleep-poll scan. Defaults on wherever [`crate::poll`]
    /// supports it; forced off (or on non-Unix targets) the portable
    /// sleep-poll loop runs instead. Wire behaviour is identical either
    /// way — the mode only changes how workers wait and which sockets
    /// they scan.
    pub reactor: bool,
    /// Outbound backpressure high-water mark, bytes: a session whose
    /// unflushed reply backlog reaches this stops being served (a
    /// `write_stall`) until the backlog drains. Bounds deputy memory
    /// against a slow or stalled reader; overshoot is at most one
    /// reply batch. Must be non-zero.
    pub write_high_water: usize,
    /// Outbound backpressure low-water mark, bytes: a stalled session
    /// resumes once its backlog drains to or below this (hysteresis,
    /// mirroring the hello gate). Must be `<= write_high_water`.
    pub write_low_water: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            max_pages_per_request: 4096,
            drop_after_pages: None,
            quantum_pages: 16,
            max_pending_pages: None,
            gate_high: usize::MAX,
            gate_low: usize::MAX,
            reactor: crate::poll::SUPPORTED,
            write_high_water: 8 * 1024 * 1024,
            write_low_water: 1024 * 1024,
        }
    }
}

/// Aggregate service counters across all sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames answered (demand + prefetch batches).
    pub requests_served: u64,
    /// Page replies written.
    pub pages_served: u64,
    /// Forwarded system calls answered.
    pub syscalls_served: u64,
    /// Ping probes answered.
    pub pings_served: u64,
    /// Connections the fault injector dropped.
    pub dropped_connections: u64,
    /// Connections accepted by a worker already serving other sessions
    /// (the pool multiplexed rather than dedicating a worker).
    pub queued_connections: u64,
    /// Page requests absorbed by coalescing across all sessions.
    pub pages_coalesced: u64,
    /// Batched reply frames written across all sessions.
    pub batch_replies: u64,
    /// Most concurrent live sessions observed server-wide.
    pub peak_sessions: u64,
    /// Prefetch pages shed by admission control (non-fatal 503s; the
    /// client reverts and re-fetches them on demand).
    pub prefetch_pages_shed: u64,
    /// Demand pages refused outright. Structurally zero: demand is
    /// always admitted.
    pub demand_pages_shed: u64,
    /// Request frames that had at least one page shed.
    pub shed_events: u64,
    /// `Hello`s deferred by the hysteresis admission gate.
    pub hellos_deferred: u64,
    /// Writeback batches applied by session sinks (fresh or duplicate).
    pub writeback_batches: u64,
    /// Dirty pages newly applied by writeback batches.
    pub writeback_pages_applied: u64,
    /// Writeback entries skipped as duplicates (batch- or version-level).
    pub writeback_duplicates: u64,
    /// Home-return negotiations answered with a [`Frame::ReturnAck`].
    pub returns_served: u64,
    /// Sessions paused by outbound backpressure (unflushed backlog
    /// reached [`ServerConfig::write_high_water`]).
    pub write_stalls: u64,
    /// Reply flushes that combined several queued segments into one
    /// `write_vectored` syscall.
    pub vectored_writes: u64,
    /// Worst unflushed outbound backlog any session reached, bytes.
    pub peak_write_backlog_bytes: u64,
    /// `accept` calls that failed (EMFILE/ENFILE descriptor exhaustion,
    /// or any other error). The connection stays queued and the shard
    /// backs off before accepting again.
    pub accept_errors: u64,
}

impl ampom_obs::MetricSource for ServerStats {
    fn export_metrics(&self, reg: &mut ampom_obs::MetricsRegistry) {
        reg.export_counter(
            "ampom_deputy_server_connections_total",
            "Connections accepted",
            self.connections,
        );
        reg.export_counter(
            "ampom_deputy_server_requests_served_total",
            "Request frames answered (demand + prefetch batches)",
            self.requests_served,
        );
        reg.export_counter(
            "ampom_deputy_server_pages_served_total",
            "Page replies written",
            self.pages_served,
        );
        reg.export_counter(
            "ampom_deputy_server_syscalls_served_total",
            "Forwarded system calls answered",
            self.syscalls_served,
        );
        reg.export_counter(
            "ampom_deputy_server_pings_served_total",
            "Ping probes answered",
            self.pings_served,
        );
        reg.export_counter(
            "ampom_deputy_server_dropped_connections_total",
            "Connections the fault injector dropped",
            self.dropped_connections,
        );
        reg.export_counter(
            "ampom_deputy_server_queued_connections_total",
            "Connections multiplexed onto an already-busy worker",
            self.queued_connections,
        );
        reg.export_counter(
            "ampom_deputy_server_pages_coalesced_total",
            "Page requests absorbed by coalescing",
            self.pages_coalesced,
        );
        reg.export_counter(
            "ampom_deputy_server_batch_replies_total",
            "Batched reply frames written",
            self.batch_replies,
        );
        reg.export_counter(
            "ampom_deputy_server_peak_sessions",
            "Most concurrent live sessions observed",
            self.peak_sessions,
        );
        reg.export_counter(
            "ampom_shed_server_prefetch_pages_total",
            "Prefetch pages shed by admission control (non-fatal 503s)",
            self.prefetch_pages_shed,
        );
        reg.export_counter(
            "ampom_shed_server_demand_pages_total",
            "Demand pages refused outright (structurally zero)",
            self.demand_pages_shed,
        );
        reg.export_counter(
            "ampom_shed_server_events_total",
            "Request frames that had at least one page shed",
            self.shed_events,
        );
        reg.export_counter(
            "ampom_shed_server_hellos_deferred_total",
            "Hellos deferred by the hysteresis admission gate",
            self.hellos_deferred,
        );
        reg.export_counter(
            "ampom_writeback_server_batches_total",
            "Writeback batches applied by session sinks",
            self.writeback_batches,
        );
        reg.export_counter(
            "ampom_writeback_server_pages_applied_total",
            "Dirty pages newly applied by writeback batches",
            self.writeback_pages_applied,
        );
        reg.export_counter(
            "ampom_writeback_server_duplicates_total",
            "Writeback entries skipped as duplicates",
            self.writeback_duplicates,
        );
        reg.export_counter(
            "ampom_returns_served_total",
            "Home-return negotiations answered",
            self.returns_served,
        );
        reg.export_counter(
            "ampom_deputy_server_write_stalls_total",
            "Sessions paused by outbound backpressure",
            self.write_stalls,
        );
        reg.export_counter(
            "ampom_deputy_server_vectored_writes_total",
            "Flushes combining several segments into one syscall",
            self.vectored_writes,
        );
        reg.export_counter(
            "ampom_deputy_server_peak_write_backlog_bytes",
            "Worst unflushed outbound backlog any session reached",
            self.peak_write_backlog_bytes,
        );
        reg.export_counter(
            "ampom_deputy_server_accept_errors_total",
            "Failed accept calls (descriptor exhaustion and other errors)",
            self.accept_errors,
        );
    }
}

/// A worker's service counters, tallied as plain integers on the shard's
/// own stack — the hot path touches no shared cache line. The shard
/// publishes the tally into its [`ShardCounters`] slot once per event
///-loop pass; [`StatsHub::snapshot`] aggregates the slots on demand
/// (the live analog of `StatsFetch`-time aggregation).
#[derive(Debug, Default, Clone, Copy)]
struct ShardTally {
    connections: u64,
    requests_served: u64,
    pages_served: u64,
    syscalls_served: u64,
    pings_served: u64,
    dropped_connections: u64,
    queued_connections: u64,
    pages_coalesced: u64,
    batch_replies: u64,
    prefetch_pages_shed: u64,
    demand_pages_shed: u64,
    shed_events: u64,
    writeback_batches: u64,
    writeback_pages_applied: u64,
    writeback_duplicates: u64,
    returns_served: u64,
    write_stalls: u64,
    vectored_writes: u64,
    peak_write_backlog: u64,
    accept_errors: u64,
}

/// One shard's published tally. Single writer (the owning worker),
/// many readers; plain relaxed stores suffice.
#[derive(Debug, Default)]
struct ShardCounters {
    connections: AtomicU64,
    requests_served: AtomicU64,
    pages_served: AtomicU64,
    syscalls_served: AtomicU64,
    pings_served: AtomicU64,
    dropped_connections: AtomicU64,
    queued_connections: AtomicU64,
    pages_coalesced: AtomicU64,
    batch_replies: AtomicU64,
    prefetch_pages_shed: AtomicU64,
    demand_pages_shed: AtomicU64,
    shed_events: AtomicU64,
    writeback_batches: AtomicU64,
    writeback_pages_applied: AtomicU64,
    writeback_duplicates: AtomicU64,
    returns_served: AtomicU64,
    write_stalls: AtomicU64,
    vectored_writes: AtomicU64,
    peak_write_backlog: AtomicU64,
    accept_errors: AtomicU64,
}

impl ShardCounters {
    fn publish(&self, t: &ShardTally) {
        self.connections.store(t.connections, Ordering::Relaxed);
        self.requests_served
            .store(t.requests_served, Ordering::Relaxed);
        self.pages_served.store(t.pages_served, Ordering::Relaxed);
        self.syscalls_served
            .store(t.syscalls_served, Ordering::Relaxed);
        self.pings_served.store(t.pings_served, Ordering::Relaxed);
        self.dropped_connections
            .store(t.dropped_connections, Ordering::Relaxed);
        self.queued_connections
            .store(t.queued_connections, Ordering::Relaxed);
        self.pages_coalesced
            .store(t.pages_coalesced, Ordering::Relaxed);
        self.batch_replies.store(t.batch_replies, Ordering::Relaxed);
        self.prefetch_pages_shed
            .store(t.prefetch_pages_shed, Ordering::Relaxed);
        self.demand_pages_shed
            .store(t.demand_pages_shed, Ordering::Relaxed);
        self.shed_events.store(t.shed_events, Ordering::Relaxed);
        self.writeback_batches
            .store(t.writeback_batches, Ordering::Relaxed);
        self.writeback_pages_applied
            .store(t.writeback_pages_applied, Ordering::Relaxed);
        self.writeback_duplicates
            .store(t.writeback_duplicates, Ordering::Relaxed);
        self.returns_served
            .store(t.returns_served, Ordering::Relaxed);
        self.write_stalls.store(t.write_stalls, Ordering::Relaxed);
        self.vectored_writes
            .store(t.vectored_writes, Ordering::Relaxed);
        self.peak_write_backlog
            .store(t.peak_write_backlog, Ordering::Relaxed);
        self.accept_errors.store(t.accept_errors, Ordering::Relaxed);
    }
}

/// The few truly cross-shard counters. `active`/`peak_sessions` need a
/// global view by definition, and a deferred `Hello` never becomes a
/// session, so its counter is deputy-wide too (the wire `StatsReply`
/// reports it per-deputy). All are cold-path.
#[derive(Debug, Default)]
struct SharedGauges {
    active_sessions: AtomicU64,
    peak_sessions: AtomicU64,
    hellos_deferred: AtomicU64,
}

impl SharedGauges {
    fn session_opened(&self) {
        let live = self.active_sessions.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_sessions.fetch_max(live, Ordering::Relaxed);
    }

    fn session_closed(&self) {
        self.active_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-shard counter slots plus the shared gauges.
#[derive(Debug)]
struct StatsHub {
    gauges: SharedGauges,
    shards: Vec<ShardCounters>,
}

impl StatsHub {
    fn new(workers: usize) -> StatsHub {
        StatsHub {
            gauges: SharedGauges::default(),
            shards: (0..workers).map(|_| ShardCounters::default()).collect(),
        }
    }

    fn snapshot(&self) -> ServerStats {
        let mut out = ServerStats::default();
        for sh in &self.shards {
            out.connections += sh.connections.load(Ordering::Relaxed);
            out.requests_served += sh.requests_served.load(Ordering::Relaxed);
            out.pages_served += sh.pages_served.load(Ordering::Relaxed);
            out.syscalls_served += sh.syscalls_served.load(Ordering::Relaxed);
            out.pings_served += sh.pings_served.load(Ordering::Relaxed);
            out.dropped_connections += sh.dropped_connections.load(Ordering::Relaxed);
            out.queued_connections += sh.queued_connections.load(Ordering::Relaxed);
            out.pages_coalesced += sh.pages_coalesced.load(Ordering::Relaxed);
            out.batch_replies += sh.batch_replies.load(Ordering::Relaxed);
            out.prefetch_pages_shed += sh.prefetch_pages_shed.load(Ordering::Relaxed);
            out.demand_pages_shed += sh.demand_pages_shed.load(Ordering::Relaxed);
            out.shed_events += sh.shed_events.load(Ordering::Relaxed);
            out.writeback_batches += sh.writeback_batches.load(Ordering::Relaxed);
            out.writeback_pages_applied += sh.writeback_pages_applied.load(Ordering::Relaxed);
            out.writeback_duplicates += sh.writeback_duplicates.load(Ordering::Relaxed);
            out.returns_served += sh.returns_served.load(Ordering::Relaxed);
            out.write_stalls += sh.write_stalls.load(Ordering::Relaxed);
            out.vectored_writes += sh.vectored_writes.load(Ordering::Relaxed);
            out.accept_errors += sh.accept_errors.load(Ordering::Relaxed);
            out.peak_write_backlog_bytes = out
                .peak_write_backlog_bytes
                .max(sh.peak_write_backlog.load(Ordering::Relaxed));
        }
        out.peak_sessions = self.gauges.peak_sessions.load(Ordering::Relaxed);
        out.hellos_deferred = self.gauges.hellos_deferred.load(Ordering::Relaxed);
        out
    }
}

/// What [`PendingQueue::push_bounded`] did with a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued for service.
    Queued,
    /// Absorbed into an earlier still-pending entry for the same page.
    Coalesced,
    /// Refused: the queue is at its admission bound and the page is not
    /// a demand page.
    Shed,
}

/// Per-connection pending page store with request coalescing.
///
/// Pages queue FIFO per connection. A request for a page that is already
/// queued-but-unserved is *coalesced*: the single queued entry answers
/// both requests, and the coalesce is counted. Once a page is taken for
/// service it leaves the pending set, so a later re-request (the
/// client's retry for a lost reply) queues — and is served — again.
/// These two rules are exactly the "never drops, never duplicates"
/// invariant the property suite pins.
///
/// The bounded push path adds admission control: past a depth bound,
/// non-demand pages are [`PushOutcome::Shed`] instead of queued (a
/// coalesce never sheds — the page is already paid for). Demand pages
/// bypass the bound entirely.
#[derive(Debug, Default)]
pub struct PendingQueue {
    queue: VecDeque<(u64, PageId)>,
    pending: HashSet<PageId>,
    coalesced: u64,
    max_depth: u64,
}

impl PendingQueue {
    /// An empty queue.
    pub fn new() -> Self {
        PendingQueue::default()
    }

    /// Enqueues `page` on behalf of `req_id` unless an earlier request
    /// for it is still pending. Returns `true` if enqueued, `false` if
    /// coalesced into the earlier entry.
    pub fn push(&mut self, req_id: u64, page: PageId) -> bool {
        self.push_bounded(req_id, page, None, true) != PushOutcome::Coalesced
    }

    /// The admission-controlled push. A `demand` page is always admitted
    /// (coalescing still applies); a prefetch page finding the queue at
    /// `bound` is shed untouched.
    pub fn push_bounded(
        &mut self,
        req_id: u64,
        page: PageId,
        bound: Option<usize>,
        demand: bool,
    ) -> PushOutcome {
        if self.pending.contains(&page) {
            self.coalesced += 1;
            return PushOutcome::Coalesced;
        }
        if !demand {
            if let Some(bound) = bound {
                if self.queue.len() >= bound {
                    return PushOutcome::Shed;
                }
            }
        }
        self.pending.insert(page);
        self.queue.push_back((req_id, page));
        self.max_depth = self.max_depth.max(self.queue.len() as u64);
        PushOutcome::Queued
    }

    /// Dequeues up to `n` pages for service, in FIFO order. The taken
    /// pages leave the pending set, so a re-request re-enqueues them.
    pub fn take(&mut self, n: usize) -> Vec<(u64, PageId)> {
        let n = n.min(self.queue.len());
        let out: Vec<(u64, PageId)> = self.queue.drain(..n).collect();
        for (_, page) in &out {
            self.pending.remove(page);
        }
        out
    }

    /// Pages queued and not yet taken.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Requests absorbed by coalescing so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Worst queue depth reached.
    pub fn max_depth(&self) -> u64 {
        self.max_depth
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Non-blocking accept; `Ok(None)` when no connection is pending.
    fn try_accept(&self) -> std::io::Result<Option<ServerStream>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true).ok();
                    Ok(Some(ServerStream::Tcp(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => Ok(Some(ServerStream::Unix(s))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

enum ServerStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl ServerStream {
    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            ServerStream::Tcp(s) => s.set_nonblocking(on),
            #[cfg(unix)]
            ServerStream::Unix(s) => s.set_nonblocking(on),
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd {
        match self {
            ServerStream::Tcp(s) => s.as_raw_fd(),
            ServerStream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for ServerStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ServerStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ServerStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ServerStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ServerStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ServerStream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            ServerStream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            ServerStream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ServerStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ServerStream::Unix(s) => s.flush(),
        }
    }
}

/// The per-shard segment arena: outbound buffers retire here when fully
/// flushed and are reissued (cleared, capacity intact) for the next
/// reply, so a steady-state shard serves pages with no allocation at
/// all — the reply encoder synthesizes payloads straight into a
/// recycled segment. Bounded so a burst cannot pin memory forever.
#[derive(Debug, Default)]
struct BufferPool {
    free: Vec<Vec<u8>>,
}

impl BufferPool {
    /// Segments retained; 64 maximal batch replies is ~16 MiB a shard.
    const MAX_FREE: usize = 64;

    fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, mut seg: Vec<u8>) {
        if self.free.len() < Self::MAX_FREE {
            seg.clear();
            self.free.push(seg);
        }
    }
}

/// A session's unflushed outbound bytes, kept as the queue of pooled
/// segments they were encoded into. `head_at` marks the flushed prefix
/// of the front segment; fully flushed segments return to the pool.
/// Keeping segments separate (instead of one growing `Vec`) is what
/// lets [`pump_writes`] hand a whole DRR pass to `write_vectored` in
/// one syscall and recycle the buffers.
#[derive(Debug, Default)]
struct OutQueue {
    segs: VecDeque<Vec<u8>>,
    head_at: usize,
    bytes: usize,
}

impl OutQueue {
    /// Unflushed bytes queued.
    fn unflushed(&self) -> usize {
        self.bytes
    }

    fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Queues an encoded segment (empty segments go straight back).
    fn push_seg(&mut self, seg: Vec<u8>, pool: &mut BufferPool) {
        if seg.is_empty() {
            pool.put(seg);
            return;
        }
        self.bytes += seg.len();
        self.segs.push_back(seg);
    }

    /// Encodes one frame into a pooled segment and queues it.
    fn frame(&mut self, f: &Frame, pool: &mut BufferPool) {
        let mut seg = pool.take();
        f.encode_into(&mut seg);
        self.push_seg(seg, pool);
    }

    /// Fills `bufs` with the unflushed regions, front first; returns how
    /// many slots were used.
    fn fill_slices<'a>(&'a self, bufs: &mut [IoSlice<'a>]) -> usize {
        let mut n = 0;
        for (i, seg) in self.segs.iter().enumerate() {
            if n == bufs.len() {
                break;
            }
            let region = if i == 0 {
                &seg[self.head_at..]
            } else {
                &seg[..]
            };
            if region.is_empty() {
                continue;
            }
            bufs[n] = IoSlice::new(region);
            n += 1;
        }
        n
    }

    /// Consumes `n` flushed bytes from the front, retiring drained
    /// segments to the pool. `n` must not exceed [`OutQueue::unflushed`].
    fn advance(&mut self, mut n: usize, pool: &mut BufferPool) {
        self.bytes -= n;
        while n > 0 {
            let head_len = self.segs.front().map(Vec::len).unwrap_or(0);
            let left = head_len - self.head_at;
            if n >= left {
                n -= left;
                self.head_at = 0;
                if let Some(seg) = self.segs.pop_front() {
                    pool.put(seg);
                }
            } else {
                self.head_at += n;
                n = 0;
            }
        }
    }
}

/// A running deputy server; dropping it (or calling
/// [`DeputyServer::shutdown`]) stops the workers.
pub struct DeputyServer {
    addr: String,
    stop: Arc<AtomicBool>,
    stats: Arc<StatsHub>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for DeputyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeputyServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl DeputyServer {
    /// Binds a TCP listener (use `"127.0.0.1:0"` for an ephemeral
    /// loopback port) and starts the worker pool.
    pub fn bind_tcp(addr: &str, cfg: ServerConfig) -> Result<DeputyServer, RpcError> {
        let listener = TcpListener::bind(addr).map_err(RpcError::Io)?;
        let local = listener.local_addr().map_err(RpcError::Io)?.to_string();
        listener.set_nonblocking(true).map_err(RpcError::Io)?;
        Self::start(Listener::Tcp(listener), local, cfg)
    }

    /// Binds a Unix-domain listener at `path` and starts the worker pool.
    #[cfg(unix)]
    pub fn bind_unix(path: &std::path::Path, cfg: ServerConfig) -> Result<DeputyServer, RpcError> {
        let listener = UnixListener::bind(path).map_err(RpcError::Io)?;
        listener.set_nonblocking(true).map_err(RpcError::Io)?;
        Self::start(Listener::Unix(listener), path.display().to_string(), cfg)
    }

    fn start(
        listener: Listener,
        addr: String,
        cfg: ServerConfig,
    ) -> Result<DeputyServer, RpcError> {
        if cfg.workers == 0 {
            return Err(RpcError::Protocol("server needs at least 1 worker".into()));
        }
        if cfg.quantum_pages == 0 {
            return Err(RpcError::Protocol(
                "server needs a DRR quantum of at least 1 page".into(),
            ));
        }
        if cfg.max_pending_pages == Some(0) {
            return Err(RpcError::Protocol(
                "a pending-page bound of 0 would shed every prefetch; use None for unbounded"
                    .into(),
            ));
        }
        if cfg.gate_low > cfg.gate_high {
            return Err(RpcError::Protocol(format!(
                "hello gate inverted: gate_low {} > gate_high {}",
                cfg.gate_low, cfg.gate_high
            )));
        }
        if cfg.write_high_water == 0 {
            return Err(RpcError::Protocol(
                "a write high-water mark of 0 would stall every session before \
                 its first reply"
                    .into(),
            ));
        }
        if cfg.write_low_water > cfg.write_high_water {
            return Err(RpcError::Protocol(format!(
                "write watermarks inverted: low {} > high {}",
                cfg.write_low_water, cfg.write_high_water
            )));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatsHub::new(cfg.workers));
        // The listener is the only shared descriptor: accept(2) is its
        // own synchronization, so every shard polls it and races to
        // accept — no mutex on the path.
        let listener = Arc::new(listener);
        let mut workers = Vec::with_capacity(cfg.workers);
        for shard_idx in 0..cfg.workers {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let listener = Arc::clone(&listener);
            let cfg = cfg.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&listener, &stop, &stats, shard_idx, &cfg);
            }));
        }
        Ok(DeputyServer {
            addr,
            stop,
            stats,
            workers,
        })
    }

    /// The bound address (`host:port` for TCP, the socket path for Unix).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// A snapshot of the aggregate service counters.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// Stops accepting, lets in-progress sessions wind down, and joins
    /// the workers.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for DeputyServer {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// How long an idle *sleep-poll* worker sleeps between passes (the
/// portable fallback; reactor shards park in `poll(2)` instead).
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// Longest a reactor shard parks in one readiness wait. Bounds shutdown
/// latency (the stop flag is only checked between waits); readiness
/// itself ends the wait immediately.
const REACTOR_WAIT: Duration = Duration::from_millis(25);

/// How long a shard leaves the listener alone after a failed `accept`
/// (typically descriptor exhaustion). Live sessions keep being served
/// meanwhile; pending connections wait in the listen backlog.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Most segments one `write_vectored` call flushes. Far below any
/// platform `IOV_MAX`; 32 maximal batch replies is ~8 MiB, well past
/// what one socket buffer accepts anyway.
const MAX_WRITE_IOV: usize = 32;

/// One multiplexed migrant session inside a worker's event loop.
struct SessionConn {
    conn: ServerStream,
    fb: FrameBuffer,
    /// Encoded outbound bytes awaiting flush, as pooled segments.
    out: OutQueue,
    greeted: bool,
    total_pages: u64,
    pages_this_conn: u64,
    pending: PendingQueue,
    /// DRR deficit, in pages.
    deficit: u64,
    /// Wall instant the pending queue last became non-empty; the wait
    /// since then is this session's observed backlog.
    backlog_since: Option<Instant>,
    local: WireStats,
    /// Idempotent writeback sink: applies dirty-page batches exactly
    /// once under retransmission (per-page version compare).
    sink: WritebackSink,
    /// Every page this session ever served — the "fetched" set the
    /// home-return accounting partitions into stub vs freed.
    served_pages: HashSet<PageId>,
    state: ConnState,
    /// Outbound backpressure: past the high-water mark the DRR pass
    /// skips this session until its backlog drains below the low mark.
    write_blocked: bool,
    /// Whether the last readiness wait reported bytes to read (always
    /// true in sleep-poll mode, which scans every socket).
    ready_read: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Reading and serving.
    Open,
    /// Flush the outbound queue (a final error/ack), then close.
    Closing,
    /// Close immediately, discarding unflushed output.
    Dropped,
}

impl SessionConn {
    fn new(conn: ServerStream) -> std::io::Result<SessionConn> {
        conn.set_nonblocking(true)?;
        Ok(SessionConn {
            conn,
            fb: FrameBuffer::new(),
            out: OutQueue::default(),
            greeted: false,
            total_pages: 0,
            pages_this_conn: 0,
            pending: PendingQueue::new(),
            deficit: 0,
            backlog_since: None,
            local: WireStats::default(),
            sink: WritebackSink::new(),
            served_pages: HashSet::new(),
            state: ConnState::Open,
            write_blocked: false,
            ready_read: true,
        })
    }

    fn finished(&self) -> bool {
        match self.state {
            ConnState::Open => false,
            ConnState::Dropped => true,
            ConnState::Closing => self.out.is_empty(),
        }
    }
}

/// How a shard waits for work: a [`crate::poll`] readiness wait where
/// supported and configured, the portable sleep-poll scan otherwise.
struct WaitMode {
    #[cfg(unix)]
    poller: Option<crate::poll::Poller>,
}

impl WaitMode {
    fn new(cfg: &ServerConfig) -> WaitMode {
        #[cfg(unix)]
        {
            WaitMode {
                poller: cfg.reactor.then(crate::poll::Poller::new),
            }
        }
        #[cfg(not(unix))]
        {
            let _ = cfg;
            WaitMode {}
        }
    }

    /// The wait phase of one pass. In reactor mode: parks in `poll(2)`
    /// (only when the previous pass was idle — a busy shard just
    /// refreshes readiness with a zero timeout), then marks each
    /// session's `ready_read`. In sleep-poll mode: sleeps when idle and
    /// marks everything ready, i.e. the original scan-everything loop.
    /// Returns whether the listener should be accepted from; a `None`
    /// listener (accepting is paused) is neither waited on nor ready.
    fn wait(
        &mut self,
        listener: Option<&Listener>,
        sessions: &mut [SessionConn],
        idle: bool,
    ) -> bool {
        #[cfg(unix)]
        if let Some(poller) = &mut self.poller {
            poller.clear();
            if let Some(l) = listener {
                poller.push(l.raw_fd(), true, false);
            }
            let first_session = usize::from(listener.is_some());
            for s in sessions.iter() {
                poller.push(
                    s.conn.raw_fd(),
                    s.state == ConnState::Open,
                    !s.out.is_empty(),
                );
            }
            let timeout = if idle { REACTOR_WAIT } else { Duration::ZERO };
            match poller.wait(timeout) {
                Ok(_) => {
                    for (i, s) in sessions.iter_mut().enumerate() {
                        s.ready_read = poller.readable(i + first_session);
                    }
                    return listener.is_some() && poller.readable(0);
                }
                Err(_) => {
                    // Readiness unavailable this pass: degrade to the
                    // sleep-poll scan rather than spin or stall.
                    for s in sessions.iter_mut() {
                        s.ready_read = true;
                    }
                    if idle {
                        std::thread::sleep(POLL_INTERVAL);
                    }
                    return listener.is_some();
                }
            }
        }
        for s in sessions.iter_mut() {
            s.ready_read = true;
        }
        if idle {
            std::thread::sleep(POLL_INTERVAL);
        }
        listener.is_some()
    }
}

fn worker_loop(
    listener: &Listener,
    stop: &AtomicBool,
    hub: &StatsHub,
    shard_idx: usize,
    cfg: &ServerConfig,
) {
    let gauges = &hub.gauges;
    let shard = &hub.shards[shard_idx];
    let mut tally = ShardTally::default();
    let mut sessions: Vec<SessionConn> = Vec::new();
    let mut cursor = 0usize;
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut pool = BufferPool::default();
    let mut wait_mode = WaitMode::new(cfg);
    // Hysteresis hello gate, per worker: closes at `gate_high` total
    // pending pages, re-opens below `gate_low`.
    let mut gated = false;
    // Whether the previous pass made no progress (the wait phase then
    // blocks instead of spinning).
    let mut idle = false;
    // Set after a failed accept: the listener is left alone until then.
    let mut accept_paused_until: Option<Instant> = None;
    loop {
        if stop.load(Ordering::SeqCst) {
            // Best-effort flush of what sessions are owed, then bail.
            for s in &mut sessions {
                pump_writes(s, &mut pool, &mut tally);
                gauges.session_closed();
            }
            shard.publish(&tally);
            return;
        }
        let accepting = !matches!(accept_paused_until, Some(t) if Instant::now() < t);
        let accept_ready = wait_mode.wait(accepting.then_some(listener), &mut sessions, idle);
        let mut progress = false;

        // Accept whatever is pending. Every shard polls the listener
        // and races to accept; the kernel hands each connection to
        // exactly one of them, and a shard already serving sessions
        // multiplexes the newcomer alongside.
        if accept_ready {
            loop {
                let conn = match listener.try_accept() {
                    Ok(Some(conn)) => conn,
                    Ok(None) => break,
                    Err(_) => {
                        // Out of descriptors (EMFILE/ENFILE) or another
                        // failure: the connection stays queued and a
                        // level-triggered listener stays readable, so
                        // retrying now would spin. Serve the live
                        // sessions and try again after a pause.
                        tally.accept_errors += 1;
                        accept_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
                        break;
                    }
                };
                tally.connections += 1;
                if !sessions.is_empty() {
                    tally.queued_connections += 1;
                }
                match SessionConn::new(conn) {
                    Ok(s) => {
                        gauges.session_opened();
                        sessions.push(s);
                        progress = true;
                    }
                    Err(e) => {
                        // An accepted socket we cannot put into
                        // non-blocking mode is unusable for the
                        // event loop; drop it *loudly*.
                        tally.dropped_connections += 1;
                        eprintln!(
                            "deputy shard {shard_idx}: dropping accepted \
                             connection (set_nonblocking failed: {e})"
                        );
                    }
                }
            }
        }

        let total_pending: usize = sessions.iter().map(|s| s.pending.len()).sum();
        gated = hello_gate(gated, total_pending, cfg);
        for s in &mut sessions {
            if s.ready_read {
                progress |= pump_reads(s, cfg, &mut tally, gauges, &mut pool, &mut read_buf, gated);
            }
        }
        progress |= drr_serve(&mut sessions, &mut cursor, cfg, &mut tally, &mut pool);
        // Publish protocol counters *before* draining output so a client
        // that observes a reply also observes the counters behind it;
        // the end-of-pass publish below picks up the write-side tallies.
        shard.publish(&tally);
        for s in &mut sessions {
            progress |= pump_writes(s, &mut pool, &mut tally);
            // Backpressure hysteresis: a stalled session resumes once
            // its backlog drains to the low-water mark.
            if s.write_blocked && s.out.unflushed() <= cfg.write_low_water {
                s.write_blocked = false;
            }
        }
        let before = sessions.len();
        sessions.retain(|s| {
            if s.finished() {
                gauges.session_closed();
                false
            } else {
                true
            }
        });
        if sessions.len() != before && !sessions.is_empty() {
            cursor %= sessions.len();
        }

        shard.publish(&tally);
        idle = !progress;
    }
}

/// One step of the hysteresis hello gate: closed at `gate_high` total
/// pending pages, open again strictly below `gate_low`. With
/// `gate_low <= gate_high` the gate cannot flap at a single boundary.
fn hello_gate(gated: bool, total_pending: usize, cfg: &ServerConfig) -> bool {
    if gated {
        total_pending >= cfg.gate_low
    } else {
        total_pending >= cfg.gate_high
    }
}

/// Reads available bytes and handles every complete frame. Control
/// frames are answered inline; page requests land in the pending queue
/// for the DRR pass.
fn pump_reads(
    s: &mut SessionConn,
    cfg: &ServerConfig,
    tally: &mut ShardTally,
    gauges: &SharedGauges,
    pool: &mut BufferPool,
    read_buf: &mut [u8],
    gated: bool,
) -> bool {
    if s.state != ConnState::Open {
        return false;
    }
    let mut progress = false;
    loop {
        match s.conn.read(read_buf) {
            Ok(0) => {
                s.state = ConnState::Dropped;
                break;
            }
            Ok(n) => {
                progress = true;
                s.fb.extend(&read_buf[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                s.state = ConnState::Dropped;
                break;
            }
        }
    }
    loop {
        if s.state != ConnState::Open {
            break;
        }
        let frame = match s.fb.pop() {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(e) => {
                s.out.frame(
                    &Frame::Error {
                        code: 400,
                        detail: format!("codec: {e}"),
                    },
                    pool,
                );
                s.state = ConnState::Closing;
                break;
            }
        };
        progress = true;
        let served_at = Instant::now();
        handle_frame(s, frame, cfg, tally, gauges, pool, gated);
        s.local.busy_time_ns += served_at.elapsed().as_nanos() as u64;
    }
    progress
}

fn handle_frame(
    s: &mut SessionConn,
    frame: Frame,
    cfg: &ServerConfig,
    tally: &mut ShardTally,
    gauges: &SharedGauges,
    pool: &mut BufferPool,
    gated: bool,
) {
    match frame {
        Frame::Hello {
            version,
            total_pages,
            ..
        } => {
            if version != WIRE_VERSION {
                s.out.frame(
                    &Frame::Error {
                        code: 426,
                        detail: format!("version {version}, deputy speaks {WIRE_VERSION}"),
                    },
                    pool,
                );
                s.state = ConnState::Closing;
                return;
            }
            if gated {
                // The admission gate is closed: defer the session. The
                // client's reconnect loop redials until the backlog
                // drains below the low watermark.
                gauges.hellos_deferred.fetch_add(1, Ordering::Relaxed);
                s.out.frame(
                    &Frame::Error {
                        code: CODE_OVERLOADED,
                        detail: "admission gate closed; retry later".into(),
                    },
                    pool,
                );
                s.state = ConnState::Closing;
                return;
            }
            s.greeted = true;
            s.total_pages = total_pages;
            s.out.frame(
                &Frame::HelloAck {
                    version: WIRE_VERSION,
                    page_size: PAGE_SIZE as u32,
                },
                pool,
            );
        }
        // A PageRequest leads with its demand page; a PrefetchBatch is
        // speculation only. The distinction is what admission control
        // keys on, so the two types take the same path with a flag.
        Frame::PageRequest { req_id, pages } => {
            queue_request(s, req_id, pages, true, cfg, tally, pool);
        }
        Frame::PrefetchBatch { req_id, pages } => {
            queue_request(s, req_id, pages, false, cfg, tally, pool);
        }
        Frame::SyscallForward { call_id, .. } => {
            // The call's `work` is charged virtually by the migrant; the
            // deputy only provides the round trip.
            tally.syscalls_served += 1;
            s.out.frame(&Frame::SyscallReply { call_id }, pool);
        }
        Frame::Ping { token } => {
            tally.pings_served += 1;
            s.out.frame(&Frame::Pong { token }, pool);
        }
        Frame::StatsFetch => {
            let mut ws = s.local;
            ws.pages_coalesced = s.pending.coalesced();
            ws.max_pending_pages = s.pending.max_depth();
            // Deferred hellos never become sessions, so the counter is
            // deputy-wide rather than session-local.
            ws.hellos_deferred = gauges.hellos_deferred.load(Ordering::Relaxed);
            s.out.frame(&Frame::StatsReply(ws), pool);
        }
        Frame::Bye => s.state = ConnState::Closing,
        Frame::WritebackBatch { seq, pages } => {
            if !s.greeted {
                s.out.frame(
                    &Frame::Error {
                        code: 401,
                        detail: "writeback before hello".into(),
                    },
                    pool,
                );
                s.state = ConnState::Closing;
                return;
            }
            for (page, _, _) in &pages {
                if page.0 >= s.total_pages {
                    s.out.frame(
                        &Frame::Error {
                            code: 416,
                            detail: format!(
                                "writeback page {page} beyond image ({})",
                                s.total_pages
                            ),
                        },
                        pool,
                    );
                    s.state = ConnState::Closing;
                    return;
                }
            }
            let entries: Vec<(PageId, u64)> = pages.iter().map(|&(p, v, _)| (p, v)).collect();
            let outcome = s.sink.apply_batch(seq, &entries);
            tally.writeback_batches += 1;
            tally.writeback_pages_applied += u64::from(outcome.applied);
            tally.writeback_duplicates += u64::from(outcome.duplicates);
            s.out.frame(
                &Frame::WritebackAck {
                    seq,
                    applied: outcome.applied,
                    duplicates: outcome.duplicates,
                },
                pool,
            );
        }
        Frame::ReturnRequest => {
            if !s.greeted {
                s.out.frame(
                    &Frame::Error {
                        code: 401,
                        detail: "return before hello".into(),
                    },
                    pool,
                );
                s.state = ConnState::Closing;
                return;
            }
            // Home-return accounting over the pages this session served:
            // a fetched page that was never written back stays behind as
            // the remote deputy stub; everything else is free at home
            // (never fetched, or fetched and since written back).
            let stub_pages = s
                .served_pages
                .iter()
                .filter(|p| s.sink.applied_version(**p) == 0)
                .count() as u64;
            let freed_pages = s.total_pages.saturating_sub(stub_pages);
            tally.returns_served += 1;
            s.out.frame(
                &Frame::ReturnAck {
                    stub_pages,
                    freed_pages,
                },
                pool,
            );
        }
        Frame::HelloAck { .. }
        | Frame::PageReply { .. }
        | Frame::PageBatchReply { .. }
        | Frame::SyscallReply { .. }
        | Frame::Pong { .. }
        | Frame::StatsReply(_)
        | Frame::WritebackAck { .. }
        | Frame::ReturnAck { .. }
        | Frame::Error { .. } => {
            s.out.frame(
                &Frame::Error {
                    code: 400,
                    detail: "deputy received a reply frame".into(),
                },
                pool,
            );
            s.state = ConnState::Closing;
        }
    }
}

/// Queues one request frame's pages for the DRR pass, applying the
/// session's admission bound. `has_demand` marks a [`Frame::PageRequest`],
/// whose head page is the faulting (demand) page — always admitted.
/// Prefetch pages past [`ServerConfig::max_pending_pages`] are shed and
/// answered with a single non-fatal [`CODE_OVERLOADED`] frame naming
/// them, so the client can revert exactly those pages to the origin.
fn queue_request(
    s: &mut SessionConn,
    req_id: u64,
    pages: Vec<PageId>,
    has_demand: bool,
    cfg: &ServerConfig,
    tally: &mut ShardTally,
    pool: &mut BufferPool,
) {
    if !s.greeted {
        s.out.frame(
            &Frame::Error {
                code: 401,
                detail: "request before hello".into(),
            },
            pool,
        );
        s.state = ConnState::Closing;
        return;
    }
    if exceeds_request_cap(pages.len(), cfg.max_pages_per_request) {
        s.out.frame(
            &Frame::Error {
                code: 413,
                detail: format!(
                    "{} pages exceeds per-request cap {}",
                    pages.len(),
                    cfg.max_pages_per_request
                ),
            },
            pool,
        );
        s.state = ConnState::Closing;
        return;
    }
    // A request arriving while earlier pages are still pending
    // found the deputy busy: that wait is this session's backlog.
    if !s.pending.is_empty() {
        s.local.queued_requests += 1;
        if let Some(since) = s.backlog_since {
            let waited = since.elapsed().as_nanos() as u64;
            s.local.max_backlog_ns = s.local.max_backlog_ns.max(waited);
        }
    }
    s.local.requests_served += 1;
    tally.requests_served += 1;
    let mut shed: Vec<PageId> = Vec::new();
    for (i, page) in pages.into_iter().enumerate() {
        if page.0 >= s.total_pages {
            s.out.frame(
                &Frame::Error {
                    code: 416,
                    detail: format!("page {page} beyond image ({})", s.total_pages),
                },
                pool,
            );
            s.state = ConnState::Closing;
            return;
        }
        let was_empty = s.pending.is_empty();
        let demand = has_demand && i == 0;
        match s
            .pending
            .push_bounded(req_id, page, cfg.max_pending_pages, demand)
        {
            PushOutcome::Queued => {
                if was_empty {
                    s.backlog_since = Some(Instant::now());
                }
            }
            PushOutcome::Coalesced => {
                tally.pages_coalesced += 1;
            }
            PushOutcome::Shed => shed.push(page),
        }
    }
    if !shed.is_empty() {
        s.local.prefetch_pages_shed += shed.len() as u64;
        s.local.shed_events += 1;
        tally.prefetch_pages_shed += shed.len() as u64;
        tally.shed_events += 1;
        let list = shed
            .iter()
            .map(|p| p.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        // Non-fatal by contract: the connection stays Open; the client
        // reverts the named pages and re-fetches them on demand later.
        s.out.frame(
            &Frame::Error {
                code: CODE_OVERLOADED,
                detail: format!("shed prefetch: {list}"),
            },
            pool,
        );
    }
}

/// Whether a request naming `len` pages exceeds `cap`, compared in
/// `u64`. The old `len as u32` comparison wrapped for lengths at or
/// above 2³² — a 2³²-page request truncated to 0 and sailed past the
/// cap entirely.
fn exceeds_request_cap(len: usize, cap: u32) -> bool {
    len as u64 > u64::from(cap)
}

/// One full DRR drain: the cursor sweeps the worker's sessions, each
/// visit grants a quantum of deficit and serves pages while it lasts.
/// Runs until no session has pending pages (the client in-flight quota
/// bounds the pass).
fn drr_serve(
    sessions: &mut [SessionConn],
    cursor: &mut usize,
    cfg: &ServerConfig,
    tally: &mut ShardTally,
    pool: &mut BufferPool,
) -> bool {
    /// Servable now: open, pages pending, reader keeping up.
    fn eligible(s: &SessionConn) -> bool {
        s.state == ConnState::Open && !s.pending.is_empty() && !s.write_blocked
    }
    if sessions.is_empty() {
        return false;
    }
    let quantum = u64::from(cfg.quantum_pages.max(1));
    let n = sessions.len();
    // Tracked incrementally: nothing *becomes* eligible during the pass
    // (reads are done, service only shrinks queues), so one count up
    // front plus a decrement when a visited session drains or stalls
    // replaces the O(sessions) rescan the old loop made per visit.
    let mut remaining = sessions.iter().filter(|s| eligible(s)).count();
    let mut progress = false;
    while remaining > 0 {
        let idx = *cursor % n;
        *cursor = (idx + 1) % n;
        let s = &mut sessions[idx];
        if !eligible(s) {
            continue;
        }
        s.deficit += quantum;
        while s.deficit > 0 && !s.pending.is_empty() && s.state == ConnState::Open {
            // Backpressure: past the high-water mark this session's
            // reader owes us a drain before we owe it more pages.
            if s.out.unflushed() >= cfg.write_high_water {
                if !s.write_blocked {
                    s.write_blocked = true;
                    tally.write_stalls += 1;
                }
                break;
            }
            let take = (s.deficit.min(MAX_BATCH_PAGES as u64)) as usize;
            let batch = s.pending.take(take);
            s.deficit -= batch.len() as u64;
            serve_batch(s, batch, cfg, tally, pool);
            progress = true;
        }
        if s.pending.is_empty() {
            s.deficit = 0;
            s.backlog_since = None;
        }
        if !eligible(s) {
            remaining -= 1;
        }
    }
    progress
}

/// Encodes one visit's pages into the session's outbound queue: a
/// [`Frame::PageBatchReply`] when the visit serves several pages, the
/// legacy single-page [`Frame::PageReply`] otherwise.
fn serve_batch(
    s: &mut SessionConn,
    batch: Vec<(u64, PageId)>,
    cfg: &ServerConfig,
    tally: &mut ShardTally,
    pool: &mut BufferPool,
) {
    if batch.is_empty() {
        return;
    }
    let served_at = Instant::now();
    let served = batch.len() as u64;
    // Served pages are the "fetched" set the home-return accounting
    // partitions; re-serves (retries) are already in the set.
    s.served_pages.extend(batch.iter().map(|&(_, page)| page));
    // One pooled segment per reply frame, payloads synthesized in
    // place: the steady-state serving path allocates nothing.
    let mut seg = pool.take();
    if batch.len() == 1 {
        let (req_id, page) = batch[0];
        encode_page_reply_into(req_id, page, &mut seg);
    } else {
        encode_page_batch_reply_into(&batch, &mut seg);
        s.local.batch_replies += 1;
        tally.batch_replies += 1;
    }
    s.out.push_seg(seg, pool);
    tally.peak_write_backlog = tally.peak_write_backlog.max(s.out.unflushed() as u64);
    s.local.pages_served += served;
    s.pages_this_conn += served;
    tally.pages_served += served;
    s.local.busy_time_ns += served_at.elapsed().as_nanos() as u64;
    if let Some(limit) = cfg.drop_after_pages {
        if s.pages_this_conn >= limit {
            // Abrupt: unflushed replies are discarded with the socket,
            // so the migrant sees an EOF mid-stream.
            tally.dropped_connections += 1;
            s.state = ConnState::Dropped;
        }
    }
}

/// Flushes as much of the outbound queue as the socket accepts, handing
/// up to [`MAX_WRITE_IOV`] queued segments to each `write_vectored`
/// call — a whole DRR pass leaves in one syscall. Drained segments
/// retire to the pool.
fn pump_writes(s: &mut SessionConn, pool: &mut BufferPool, tally: &mut ShardTally) -> bool {
    if s.state == ConnState::Dropped || s.out.is_empty() {
        return false;
    }
    let mut progress = false;
    loop {
        if s.out.is_empty() {
            break;
        }
        const EMPTY: &[u8] = &[];
        let mut bufs = [IoSlice::new(EMPTY); MAX_WRITE_IOV];
        let n = s.out.fill_slices(&mut bufs);
        match s.conn.write_vectored(&bufs[..n]) {
            Ok(0) => {
                s.state = ConnState::Dropped;
                return progress;
            }
            Ok(written) => {
                if n > 1 {
                    tally.vectored_writes += 1;
                }
                s.out.advance(written, pool);
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                s.state = ConnState::Dropped;
                return progress;
            }
        }
    }
    if s.out.is_empty() {
        let _ = s.conn.flush();
    }
    progress
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ephemeral_bind_reports_port() {
        let server = DeputyServer::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        assert!(addr.starts_with("127.0.0.1:"));
        assert!(!addr.ends_with(":0"));
        server.shutdown();
    }

    #[test]
    fn rejects_zero_workers() {
        let cfg = ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        };
        assert!(DeputyServer::bind_tcp("127.0.0.1:0", cfg).is_err());
    }

    #[test]
    fn rejects_zero_quantum() {
        let cfg = ServerConfig {
            quantum_pages: 0,
            ..ServerConfig::default()
        };
        assert!(DeputyServer::bind_tcp("127.0.0.1:0", cfg).is_err());
    }

    #[test]
    fn pending_queue_coalesces_and_revives() {
        let mut q = PendingQueue::new();
        assert!(q.push(1, PageId(5)));
        assert!(!q.push(2, PageId(5)), "second request coalesces");
        assert_eq!(q.coalesced(), 1);
        assert_eq!(q.len(), 1);
        let taken = q.take(4);
        assert_eq!(taken, vec![(1, PageId(5))]);
        assert!(q.push(3, PageId(5)), "re-request after service re-queues");
        assert_eq!(q.max_depth(), 1);
    }

    #[test]
    fn bounded_push_sheds_prefetch_never_demand() {
        let mut q = PendingQueue::new();
        let bound = Some(2);
        assert_eq!(
            q.push_bounded(1, PageId(0), bound, false),
            PushOutcome::Queued
        );
        assert_eq!(
            q.push_bounded(1, PageId(1), bound, false),
            PushOutcome::Queued
        );
        assert_eq!(
            q.push_bounded(1, PageId(2), bound, false),
            PushOutcome::Shed,
            "prefetch past the bound is shed"
        );
        assert_eq!(
            q.push_bounded(2, PageId(3), bound, true),
            PushOutcome::Queued,
            "demand bypasses the bound"
        );
        assert_eq!(
            q.push_bounded(3, PageId(1), bound, false),
            PushOutcome::Coalesced,
            "a coalesce is never shed: the page is already queued"
        );
        assert_eq!(q.len(), 3);
        // A shed page left no trace: re-requesting it within the bound
        // queues normally.
        q.take(3);
        assert_eq!(
            q.push_bounded(4, PageId(2), bound, false),
            PushOutcome::Queued
        );
    }

    #[test]
    fn hello_gate_hysteresis_opens_below_low_watermark() {
        let cfg = ServerConfig {
            gate_high: 10,
            gate_low: 4,
            ..ServerConfig::default()
        };
        assert!(!hello_gate(false, 9, &cfg), "below high: stays open");
        assert!(hello_gate(false, 10, &cfg), "at high: closes");
        assert!(hello_gate(true, 5, &cfg), "above low: stays closed");
        assert!(hello_gate(true, 4, &cfg), "at low: still closed");
        assert!(!hello_gate(true, 3, &cfg), "below low: re-opens");
        let default = ServerConfig::default();
        assert!(
            !hello_gate(false, usize::MAX - 1, &default),
            "the default config never gates"
        );
    }

    #[test]
    fn request_cap_compares_in_full_width() {
        // The boundary: exactly at the cap is admitted, one past is not.
        assert!(!exceeds_request_cap(4096, 4096));
        assert!(exceeds_request_cap(4097, 4096));
        assert!(!exceeds_request_cap(0, 0));
        assert!(exceeds_request_cap(1, 0));
        // The regression: `len as u32` wrapped 2³² to 0 and let the
        // request through. (Lengths this large cannot arrive off the
        // wire — MAX_FRAME_BYTES bounds a real request to ~131k pages —
        // so the helper is the honest place to pin the arithmetic.)
        #[cfg(target_pointer_width = "64")]
        {
            let wrap = (u32::MAX as usize) + 1; // == 2^32, wraps to 0u32
            assert_eq!(wrap as u32, 0, "the old comparison saw this as 0");
            assert!(exceeds_request_cap(wrap, 4096));
            assert!(exceeds_request_cap(usize::MAX, u32::MAX));
        }
        assert!(!exceeds_request_cap(u32::MAX as usize, u32::MAX));
    }

    #[test]
    fn inverted_or_zero_write_watermarks_are_rejected() {
        let cfg = ServerConfig {
            write_high_water: 1024,
            write_low_water: 4096,
            ..ServerConfig::default()
        };
        assert!(DeputyServer::bind_tcp("127.0.0.1:0", cfg).is_err());
        let cfg = ServerConfig {
            write_high_water: 0,
            write_low_water: 0,
            ..ServerConfig::default()
        };
        assert!(DeputyServer::bind_tcp("127.0.0.1:0", cfg).is_err());
        // Equal watermarks are legal (degenerate hysteresis).
        let cfg = ServerConfig {
            write_high_water: 4096,
            write_low_water: 4096,
            ..ServerConfig::default()
        };
        let server = DeputyServer::bind_tcp("127.0.0.1:0", cfg).expect("equal marks bind");
        server.shutdown();
    }

    #[test]
    fn out_queue_accounts_and_recycles_segments() {
        let mut pool = BufferPool::default();
        let mut q = OutQueue::default();
        assert!(q.is_empty());

        q.push_seg(vec![1, 2, 3], &mut pool);
        q.push_seg(Vec::new(), &mut pool); // empty: straight to the pool
        q.push_seg(vec![4, 5], &mut pool);
        assert_eq!(q.unflushed(), 5);

        let mut bufs = [IoSlice::new(&[]); MAX_WRITE_IOV];
        let n = q.fill_slices(&mut bufs);
        assert_eq!(n, 2);
        assert_eq!(&*bufs[0], &[1, 2, 3]);
        assert_eq!(&*bufs[1], &[4, 5]);

        // Partial flush inside the first segment...
        q.advance(2, &mut pool);
        assert_eq!(q.unflushed(), 3);
        let mut bufs = [IoSlice::new(&[]); MAX_WRITE_IOV];
        let n = q.fill_slices(&mut bufs);
        assert_eq!(n, 2);
        assert_eq!(&*bufs[0], &[3], "head_at skips the flushed prefix");

        // ...then a flush spanning the segment boundary.
        q.advance(3, &mut pool);
        assert!(q.is_empty());
        let mut bufs = [IoSlice::new(&[]); MAX_WRITE_IOV];
        assert_eq!(q.fill_slices(&mut bufs), 0);

        // Both drained segments (plus the empty push) were recycled.
        assert_eq!(pool.free.len(), 3);
        let seg = pool.take();
        assert!(seg.is_empty(), "pooled segments come back cleared");
        assert!(seg.capacity() >= 2, "capacity survives the recycle");
    }

    #[test]
    fn frames_queued_via_pool_round_trip() {
        let mut pool = BufferPool::default();
        let mut q = OutQueue::default();
        q.frame(&Frame::Ping { token: 9 }, &mut pool);
        q.frame(&Frame::Bye, &mut pool);
        let mut bufs = [IoSlice::new(&[]); MAX_WRITE_IOV];
        let n = q.fill_slices(&mut bufs);
        let wire: Vec<u8> = bufs[..n].iter().flat_map(|b| b.to_vec()).collect();
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        assert_eq!(fb.pop().unwrap(), Some(Frame::Ping { token: 9 }));
        assert_eq!(fb.pop().unwrap(), Some(Frame::Bye));
        assert_eq!(fb.pop().unwrap(), None);
    }

    #[test]
    fn inverted_gate_and_zero_bound_are_rejected() {
        let cfg = ServerConfig {
            gate_high: 4,
            gate_low: 10,
            ..ServerConfig::default()
        };
        assert!(DeputyServer::bind_tcp("127.0.0.1:0", cfg).is_err());
        let cfg = ServerConfig {
            max_pending_pages: Some(0),
            ..ServerConfig::default()
        };
        assert!(DeputyServer::bind_tcp("127.0.0.1:0", cfg).is_err());
    }

    #[test]
    fn overload_sheds_prefetch_with_nonfatal_503_and_keeps_demand() {
        use crate::client::{Endpoint, MigrantClient};

        let cfg = ServerConfig {
            workers: 1,
            max_pending_pages: Some(4),
            ..ServerConfig::default()
        };
        let server = DeputyServer::bind_tcp("127.0.0.1:0", cfg).expect("bind");
        let mut client =
            MigrantClient::connect(Endpoint::tcp(server.local_addr()), 64, 2).expect("connect");

        // One frame: demand page 0 plus nine prefetch pages. The demand
        // and the first three prefetches fill the bound of 4; the other
        // six prefetches are shed in one 503.
        let prefetch: Vec<PageId> = (1..10).map(PageId).collect();
        client
            .send_request(Some(PageId(0)), &prefetch)
            .expect("send");

        let mut served = std::collections::HashSet::new();
        let mut shed_errors = 0u32;
        let deadline = Instant::now() + Duration::from_secs(5);
        while served.len() < 4 || shed_errors == 0 {
            assert!(Instant::now() < deadline, "replies never arrived");
            let remaining = deadline.saturating_duration_since(Instant::now());
            match client.recv(remaining).expect("recv") {
                Some(Frame::PageReply { page, .. }) => {
                    served.insert(page);
                }
                Some(Frame::PageBatchReply { pages, .. }) => {
                    served.extend(pages.into_iter().map(|(p, _)| p));
                }
                Some(Frame::Error { code, detail }) => {
                    assert_eq!(code, CODE_OVERLOADED, "unexpected error: {detail}");
                    shed_errors += 1;
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        assert!(served.contains(&PageId(0)), "the demand page was shed");
        assert_eq!(shed_errors, 1, "one request sheds once");

        // Non-fatal by contract: the same connection still answers.
        client.ping(Duration::from_secs(5)).expect("ping after 503");
        client.send(&Frame::StatsFetch).expect("stats fetch");
        let ws = loop {
            match client.recv(Duration::from_secs(5)).expect("recv") {
                Some(Frame::StatsReply(ws)) => break ws,
                Some(_) => continue,
                None => panic!("stats reply timed out"),
            }
        };
        assert_eq!(ws.prefetch_pages_shed, 6);
        assert_eq!(ws.demand_pages_shed, 0);
        assert_eq!(ws.shed_events, 1);
        assert_eq!(server.stats().prefetch_pages_shed, 6);
        assert_eq!(server.stats().shed_events, 1);

        drop(client);
        server.shutdown();
    }

    #[test]
    fn closed_hello_gate_defers_new_sessions() {
        use crate::client::{Endpoint, MigrantClient};

        // gate_high = gate_low = 0: the gate closes on the first pass and
        // (total pending never drops below 0) never re-opens.
        let cfg = ServerConfig {
            workers: 1,
            gate_high: 0,
            gate_low: 0,
            ..ServerConfig::default()
        };
        let server = DeputyServer::bind_tcp("127.0.0.1:0", cfg).expect("bind");
        let refused = MigrantClient::connect(Endpoint::tcp(server.local_addr()), 64, 2);
        assert!(refused.is_err(), "a gated deputy accepted a hello");
        assert!(server.stats().hellos_deferred >= 1);
        server.shutdown();
    }
}
