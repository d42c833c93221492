//! `hpcc-repro deputybench` — saturate one deputy with a C10K-shaped
//! session sweep and report the serving path's throughput and tail.
//!
//! Each cell binds a fresh loopback [`DeputyServer`] in one wait mode
//! (`reactor` — readiness-driven `poll(2)` shards — or `sleep-poll`, the
//! portable 1 ms scan loop the reactor replaced), measures the process's
//! *idle* CPU before any migrant connects, then drives N concurrent
//! sessions from one multiplexed non-blocking client loop.
//!
//! The load is C10K-shaped, not embarrassingly saturated: all N sessions
//! stay connected for the whole cell, but only a bounded window
//! (`ACTIVE_WINDOW`) is faulting at any instant — a deputy's real
//! regime, where most migrants compute and a few page-fault. This is
//! exactly the shape that separates the wait disciplines: a
//! readiness-driven shard pays one `poll(2)` per pass regardless of how
//! many sockets are quiet, while the scan loop pays one wasted `read(2)`
//! per *connected* session per pass (measured ~13x more expensive per
//! pass at 1k idle sockets), so its throughput decays as sessions are
//! added even though the active work is constant.
//!
//! An active session keeps exactly one 16-page request outstanding and
//! the driver accounts each page against the request that named it, so
//! the sweep doubles as an exactly-once audit: a duplicate, lost or
//! corrupt page fails the run's self-verification.
//!
//! A cell produces a table row, a `deputy-cell` JSONL fact in the
//! [`crate::facts`] format (parsed back by [`verify_facts`] before
//! anything is written), and an entry in `BENCH_deputy.json` — the
//! repo's committed perf-trajectory fact for the deputy serving path.
//! `--baseline PATH` compares the fresh run against a committed fact and
//! fails the command on a >20 % pages/s regression in any matching
//! (mode, sessions) cell.
//!
//! Session counts past the file-descriptor limit are truncated loudly
//! (each session costs two descriptors on loopback), never silently.

use std::time::{Duration, Instant};

use ampom_core::slo::QuantileSketch;
use ampom_core::AmpomError;
use ampom_mem::page::PageId;
use ampom_obs::{JsonValue, JsonWriter, MetricsRegistry};
use ampom_rpc::{DeputyServer, Endpoint, Frame, MigrantClient, ServerConfig};
use ampom_sim::time::SimDuration;

use crate::facts::{self, env_seed, Facts};
use crate::report::AsciiTable;

/// The shape of the `deputybench` facts: one `deputy-cell` line per
/// (mode, sessions) cell under a `deputybench-run` header, gated on each
/// cell's pages/s.
pub const FACTS: facts::Spec = facts::Spec {
    command: "deputybench",
    header: "deputybench-run",
    cell: "deputy-cell",
    others: &[],
    bench: "deputy",
    verify: verify_facts,
    gate: Some(facts::Gate {
        keys: &["mode", "sessions"],
        metric: "pages_per_sec",
    }),
};

/// Pages per in-flight request: one demand page plus a 15-page prefetch
/// zone, the shape the AMPoM window analysis emits on a striding kernel.
const REQ_PAGES: u64 = 16;

/// Sessions faulting concurrently. The rest stay connected but quiet —
/// the population whose mere existence the scan loop pays for and the
/// reactor does not. One, because that is the openMosix fault model: a
/// migrant's demand faults are serialized by the faulting process
/// itself (fault → request → reply → resume), so a mostly-quiet deputy
/// sees one fault at a time against N held-open sessions. It is also
/// the regime that exposes the old loop: each fault eats the 1 ms idle
/// nap plus a read()-scan of every connected socket.
const ACTIVE_WINDOW: usize = 1;

/// The sleep-poll fallback is measured only up to this many sessions —
/// past it the 1 ms scan loop is the known-bad configuration the reactor
/// exists to replace, and the cells just burn CI minutes.
const SLEEP_POLL_MAX: usize = 1000;

/// Address-space span every session handshakes with; request windows are
/// placed inside it.
const IMAGE_PAGES: u64 = 1 << 20;

/// What to run.
#[derive(Debug, Clone)]
pub struct DeputyBenchOptions {
    /// Session-count panel; `None` picks the quick/full default.
    pub sessions: Option<Vec<usize>>,
    /// Pages each session fetches; `None` picks the quick/full default.
    pub pages_per_session: Option<u64>,
    /// Quick mode: the smaller panel and per-session volume.
    pub quick: bool,
    /// Seed placing each session's request window (`AMPOM_FAULT_SEED`).
    pub seed: u64,
}

impl Default for DeputyBenchOptions {
    fn default() -> Self {
        DeputyBenchOptions {
            sessions: None,
            pages_per_session: None,
            quick: false,
            seed: env_seed(),
        }
    }
}

impl DeputyBenchOptions {
    fn panel(&self) -> Vec<usize> {
        match &self.sessions {
            Some(s) => s.clone(),
            None if self.quick => vec![64, 256, 1000],
            None => vec![64, 256, 1000, 4000, 10000],
        }
    }

    fn pages(&self) -> u64 {
        self.pages_per_session
            .unwrap_or(if self.quick { 128 } else { 512 })
    }
}

/// One (mode, sessions) measurement.
#[derive(Debug, Clone)]
pub struct DeputyCell {
    /// `"reactor"` or `"sleep-poll"`.
    pub mode: &'static str,
    /// Sessions requested for the cell.
    pub sessions_requested: usize,
    /// Sessions that actually connected (fd-limit truncation shrinks it).
    pub sessions: usize,
    /// Pages each session fetched.
    pub pages_per_session: u64,
    /// Total pages delivered across the cell.
    pub pages_total: u64,
    /// Serving-phase wall time (connect phase excluded).
    pub elapsed: Duration,
    /// Pages delivered per second of serving phase.
    pub pages_per_sec: f64,
    /// Request-completion latency quantiles.
    pub p50: Duration,
    pub p99: Duration,
    pub max: Duration,
    /// Pages delivered that no outstanding request named.
    pub duplicate_pages: u64,
    /// Pages whose payload failed integrity verification.
    pub corrupt_pages: u64,
    /// Frames that were neither page replies nor expected.
    pub stray_frames: u64,
    /// Process CPU fraction over the pre-connect idle window
    /// (`/proc/self/stat`; `None` off Linux).
    pub idle_cpu_frac: Option<f64>,
    /// Deputy-side counters after the cell drained.
    pub write_stalls: u64,
    pub vectored_writes: u64,
    pub peak_write_backlog_bytes: u64,
}

/// Everything the `deputybench` command produced.
#[derive(Debug)]
pub struct DeputyBenchRun {
    pub cells: Vec<DeputyCell>,
    /// The JSONL facts, the `ampom_deputybench_*` dump and
    /// `BENCH_deputy.json`.
    pub facts: Facts,
}

/// Cumulative process CPU in clock ticks (utime + stime), Linux only.
#[cfg(target_os = "linux")]
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised comm: state is field 3, utime 14,
    // stime 15 — indices 11 and 12 of the post-comm split.
    let rest = stat.rsplit(')').next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(not(target_os = "linux"))]
fn process_cpu_ticks() -> Option<u64> {
    None
}

/// CPU fraction this process burns over an idle window of `dur` — the
/// deputy is bound but serving nobody, so this is the cost of its wait
/// discipline (near zero for the reactor, the scan tax for sleep-poll).
fn idle_cpu_fraction(dur: Duration) -> Option<f64> {
    let before = process_cpu_ticks()?;
    let started = Instant::now();
    std::thread::sleep(dur);
    let after = process_cpu_ticks()?;
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed <= 0.0 {
        return None;
    }
    // USER_HZ is 100 on every Linux configuration Rust targets.
    Some((after.saturating_sub(before)) as f64 / 100.0 / elapsed)
}

/// Driver-side state for one migrant session.
struct BenchSession {
    client: MigrantClient,
    /// First page id of this session's request window.
    base: u64,
    /// Pages requested so far (== window offset of the next request).
    requested: u64,
    /// Pages of the current request not yet delivered.
    outstanding: Vec<PageId>,
    sent_at: Instant,
    done: bool,
}

impl BenchSession {
    /// Sends the next 16-page (or remainder) request.
    fn send_next(&mut self, target: u64) -> Result<(), AmpomError> {
        let n = REQ_PAGES.min(target - self.requested);
        let ids: Vec<PageId> = (0..n)
            .map(|i| PageId(self.base + self.requested + i))
            .collect();
        self.client
            .send_request(Some(ids[0]), &ids[1..])
            .map_err(|e| AmpomError::Transport(e.to_string()))?;
        self.outstanding = ids;
        self.requested += n;
        self.sent_at = Instant::now();
        Ok(())
    }
}

/// Books one delivered page against the session's outstanding request.
fn book_page(
    s: &mut BenchSession,
    page: PageId,
    data: &[u8],
    cell: &mut DeputyCell,
    sketch: &mut QuantileSketch,
    target: u64,
) -> Result<(), AmpomError> {
    if !ampom_rpc::frame::payload_matches(page, data) {
        cell.corrupt_pages += 1;
    }
    match s.outstanding.iter().position(|p| *p == page) {
        Some(at) => {
            s.outstanding.swap_remove(at);
            cell.pages_total += 1;
        }
        None => {
            cell.duplicate_pages += 1;
            return Ok(());
        }
    }
    if s.outstanding.is_empty() {
        let ns = u64::try_from(s.sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        sketch.record(SimDuration::from_nanos(ns));
        if s.requested < target {
            s.send_next(target)?;
        } else {
            s.done = true;
        }
    }
    Ok(())
}

/// Drains every frame a session's socket has buffered right now.
fn drain_session(
    s: &mut BenchSession,
    cell: &mut DeputyCell,
    sketch: &mut QuantileSketch,
    target: u64,
) -> Result<bool, AmpomError> {
    let mut progressed = false;
    loop {
        match s.client.try_recv() {
            Ok(Some(Frame::PageReply { page, data, .. })) => {
                progressed = true;
                book_page(s, page, &data, cell, sketch, target)?;
            }
            Ok(Some(Frame::PageBatchReply { pages, .. })) => {
                progressed = true;
                for (page, data) in pages {
                    book_page(s, page, &data, cell, sketch, target)?;
                }
            }
            Ok(Some(_)) => cell.stray_frames += 1,
            Ok(None) => return Ok(progressed),
            Err(e) => return Err(AmpomError::Transport(e.to_string())),
        }
    }
}

/// Runs one (mode, sessions) cell against a fresh loopback deputy.
fn run_cell(
    mode: &'static str,
    reactor: bool,
    sessions: usize,
    pages_per_session: u64,
    seed: u64,
) -> Result<DeputyCell, AmpomError> {
    let server = DeputyServer::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            reactor,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr().to_string();

    let mut cell = DeputyCell {
        mode,
        sessions_requested: sessions,
        sessions: 0,
        pages_per_session,
        pages_total: 0,
        elapsed: Duration::ZERO,
        pages_per_sec: 0.0,
        p50: Duration::ZERO,
        p99: Duration::ZERO,
        max: Duration::ZERO,
        duplicate_pages: 0,
        corrupt_pages: 0,
        stray_frames: 0,
        idle_cpu_frac: None,
        write_stalls: 0,
        vectored_writes: 0,
        peak_write_backlog_bytes: 0,
    };

    // Connect phase: blocking handshakes, then flip non-blocking for the
    // multiplexed serving phase. A failed dial past the first session is
    // the descriptor limit — truncate loudly and measure what connected.
    let mut pool: Vec<BenchSession> = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let endpoint = Endpoint::tcp(addr.clone());
        let mut client = match MigrantClient::connect(endpoint, IMAGE_PAGES, 2) {
            Ok(c) => c,
            Err(e) if i > 0 => {
                eprintln!(
                    "deputybench: {mode}/{sessions}: session {i} failed to \
                     connect ({e}); truncating the cell to {i} sessions \
                     (descriptor limit?)"
                );
                break;
            }
            Err(e) => return Err(AmpomError::Transport(e.to_string())),
        };
        client
            .set_nonblocking(true)
            .map_err(|e| AmpomError::Transport(e.to_string()))?;
        // Windows wrap inside the image; consecutive ids keep every
        // request's pages distinct, so coalescing never hides a page.
        let base = (seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64 * 8191))
            % (IMAGE_PAGES - pages_per_session);
        pool.push(BenchSession {
            client,
            base,
            requested: 0,
            outstanding: Vec::new(),
            sent_at: Instant::now(),
            done: false,
        });
    }
    cell.sessions = pool.len();

    // Idle probe: every session is connected but nobody faults, which
    // is the steady state of a mostly-quiet deputy. Whatever CPU the
    // process burns now is pure wait-discipline cost — near zero for
    // the parked reactor, nap-plus-scan for the legacy loop.
    // One full second: utime+stime tick at USER_HZ (10 ms), so a short
    // probe cannot resolve single-digit percentages.
    cell.idle_cpu_frac = idle_cpu_fraction(Duration::from_millis(1000));

    // Serving phase: every session stays connected, but only
    // ACTIVE_WINDOW fault concurrently; a session that finishes its
    // whole window hands its slot to the next quiet one. The driver
    // parks in poll(2) where available — registering only the active
    // sessions — and scans otherwise. An active session's tiny request
    // frame is only sent when its pipe is fully drained, so the
    // non-blocking send cannot hit a full buffer.
    let target = pages_per_session;
    let mut sketch = QuantileSketch::new();
    let started = Instant::now();
    let mut next_to_start = 0usize;
    while next_to_start < pool.len().min(ACTIVE_WINDOW) {
        pool[next_to_start].send_next(target)?;
        next_to_start += 1;
    }
    let mut remaining = pool.len();
    let deadline = started + Duration::from_secs(600);
    let mut finished: Vec<usize> = Vec::new();
    #[cfg(unix)]
    let mut poller = ampom_rpc::Poller::new();
    while remaining > 0 {
        if Instant::now() > deadline {
            return Err(AmpomError::Transport(format!(
                "deputybench {mode}/{sessions}: stalled with {remaining} \
                 sessions unfinished"
            )));
        }
        finished.clear();
        #[cfg(unix)]
        {
            poller.clear();
            let mut slots: Vec<usize> = Vec::with_capacity(ACTIVE_WINDOW);
            for (i, s) in pool.iter().enumerate() {
                if s.requested > 0 && !s.done {
                    poller.push(s.client.as_raw_fd(), true, false);
                    slots.push(i);
                }
            }
            poller
                .wait(Duration::from_millis(50))
                .map_err(|e| AmpomError::Transport(e.to_string()))?;
            for (slot, &i) in slots.iter().enumerate() {
                if poller.readable(slot) {
                    let s = &mut pool[i];
                    drain_session(s, &mut cell, &mut sketch, target)?;
                    if s.done {
                        finished.push(i);
                    }
                }
            }
        }
        #[cfg(not(unix))]
        {
            let mut progressed = false;
            for i in 0..pool.len() {
                let s = &mut pool[i];
                if s.requested == 0 || s.done {
                    continue;
                }
                progressed |= drain_session(s, &mut cell, &mut sketch, target)?;
                if s.done {
                    finished.push(i);
                }
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Retired sessions hand their active slot to the next quiet one.
        for _ in &finished {
            remaining -= 1;
            if next_to_start < pool.len() {
                pool[next_to_start].send_next(target)?;
                next_to_start += 1;
            }
        }
    }
    cell.elapsed = started.elapsed();
    let secs = cell.elapsed.as_secs_f64();
    cell.pages_per_sec = if secs > 0.0 {
        cell.pages_total as f64 / secs
    } else {
        0.0
    };
    cell.p50 = Duration::from_nanos(sketch.quantile(0.50).as_nanos());
    cell.p99 = Duration::from_nanos(sketch.quantile(0.99).as_nanos());
    cell.max = Duration::from_nanos(sketch.max().as_nanos());

    drop(pool);
    let stats = server.stats();
    cell.write_stalls = stats.write_stalls;
    cell.vectored_writes = stats.vectored_writes;
    cell.peak_write_backlog_bytes = stats.peak_write_backlog_bytes;
    server.shutdown();
    Ok(cell)
}

/// Runs the full sweep: the reactor at every panel entry, the sleep-poll
/// fallback up to `SLEEP_POLL_MAX` sessions for the before/after
/// comparison.
pub fn run_deputybench(opts: &DeputyBenchOptions) -> Result<DeputyBenchRun, AmpomError> {
    let panel = opts.panel();
    let pages = opts.pages();
    let mut cells = Vec::new();
    for &n in &panel {
        eprintln!("deputybench: reactor, {n} sessions x {pages} pages...");
        cells.push(run_cell("reactor", true, n, pages, opts.seed)?);
    }
    for &n in panel.iter().filter(|&&n| n <= SLEEP_POLL_MAX) {
        eprintln!("deputybench: sleep-poll, {n} sessions x {pages} pages...");
        cells.push(run_cell("sleep-poll", false, n, pages, opts.seed)?);
    }
    let dropped: Vec<usize> = panel
        .iter()
        .copied()
        .filter(|&n| n > SLEEP_POLL_MAX)
        .collect();
    if !dropped.is_empty() {
        eprintln!(
            "deputybench: sleep-poll skipped at {dropped:?} sessions \
             (bounded to {SLEEP_POLL_MAX}; the scan loop is the known-bad \
             configuration under measurement)"
        );
    }

    let facts = Facts {
        jsonl: render_facts(&cells, opts.seed),
        prometheus: render_metrics(&cells),
        bench: Some(render_bench(&cells, opts.seed, pages)),
    };
    Ok(DeputyBenchRun { cells, facts })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `deputy-cell` JSONL line per cell under a `deputybench-run`
/// header, every line schema-stamped.
fn render_facts(cells: &[DeputyCell], seed: u64) -> String {
    let mut lines = vec![facts::header(&FACTS, seed, cells.len()).close()];
    for c in cells {
        let mut w = facts::fact(FACTS.cell);
        w.field_str("mode", c.mode);
        w.field_u64("sessions", c.sessions as u64);
        w.field_u64("sessions_requested", c.sessions_requested as u64);
        w.field_u64("pages_per_session", c.pages_per_session);
        w.field_u64("pages_total", c.pages_total);
        w.field_f64("elapsed_s", c.elapsed.as_secs_f64());
        w.field_f64("pages_per_sec", c.pages_per_sec);
        w.field_f64("p50_ms", ms(c.p50));
        w.field_f64("p99_ms", ms(c.p99));
        w.field_f64("max_ms", ms(c.max));
        w.field_u64("duplicate_pages", c.duplicate_pages);
        w.field_u64("corrupt_pages", c.corrupt_pages);
        w.field_u64("stray_frames", c.stray_frames);
        if let Some(f) = c.idle_cpu_frac {
            w.field_f64("idle_cpu_frac", f);
        }
        w.field_u64("write_stalls", c.write_stalls);
        w.field_u64("vectored_writes", c.vectored_writes);
        w.field_u64("peak_write_backlog_bytes", c.peak_write_backlog_bytes);
        lines.push(w.close());
    }
    lines.join("\n") + "\n"
}

/// `ampom_deputybench_<mode>_s<sessions>_*` gauges.
fn render_metrics(cells: &[DeputyCell]) -> String {
    let mut reg = MetricsRegistry::new();
    for c in cells {
        let key = format!("{}_s{}", c.mode.replace('-', "_"), c.sessions_requested);
        reg.export_gauge(
            &format!("ampom_deputybench_{key}_pages_per_sec"),
            "deputy serving throughput at this session count",
            c.pages_per_sec,
        );
        reg.export_gauge(
            &format!("ampom_deputybench_{key}_p99_ms"),
            "p99 request-completion latency, milliseconds",
            ms(c.p99),
        );
        reg.export_counter(
            &format!("ampom_deputybench_{key}_duplicate_pages_total"),
            "pages delivered that no outstanding request named",
            c.duplicate_pages,
        );
    }
    reg.render_prometheus()
}

/// The `BENCH_deputy.json` fact: one compact cell entry per measurement.
fn render_bench(cells: &[DeputyCell], seed: u64, pages: u64) -> String {
    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            let mut w = JsonWriter::object();
            w.field_str("mode", c.mode);
            w.field_u64("sessions", c.sessions as u64);
            w.field_f64("pages_per_sec", c.pages_per_sec);
            w.field_f64("p99_ms", ms(c.p99));
            w.close()
        })
        .collect();
    let mut w = facts::bench(&FACTS, seed);
    w.field_u64("pages_per_session", pages);
    w.field_raw("cells", &format!("[{}]", entries.join(",")));
    w.close() + "\n"
}

/// Self-verification: the shared envelope, and the exactly-once audit —
/// no cell saw a duplicate or corrupt page or finished empty.
pub fn verify_facts(jsonl: &str) -> Result<(), String> {
    facts::verify(&FACTS, jsonl, |f| {
        if f.kind != FACTS.cell {
            return Ok(());
        }
        if f.u64("duplicate_pages")? != 0 {
            return Err(f.error("duplicate pages delivered"));
        }
        if f.u64("corrupt_pages")? != 0 {
            return Err(f.error("corrupt pages delivered"));
        }
        if f.u64("pages_total")? != f.u64("sessions")? * f.u64("pages_per_session")? {
            return Err(f.error("pages_total != sessions x pages_per_session"));
        }
        if f.get("pages_per_sec")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            <= 0.0
        {
            return Err(f.error("non-positive pages_per_sec"));
        }
        Ok(())
    })
}

/// The deputybench table: one row per cell.
pub fn deputybench_table(run: &DeputyBenchRun) -> AsciiTable {
    let mut t = AsciiTable::new(
        "deputybench: deputy serving path vs concurrent sessions",
        &[
            "mode", "sessions", "pages/s", "p50 (ms)", "p99 (ms)", "max (ms)", "idle cpu",
            "stalls", "vectored", "dup",
        ],
    );
    for c in &run.cells {
        t.row(vec![
            c.mode.to_string(),
            if c.sessions == c.sessions_requested {
                c.sessions.to_string()
            } else {
                format!("{} (of {})", c.sessions, c.sessions_requested)
            },
            format!("{:.0}", c.pages_per_sec),
            format!("{:.2}", ms(c.p50)),
            format!("{:.2}", ms(c.p99)),
            format!("{:.2}", ms(c.max)),
            match c.idle_cpu_frac {
                Some(f) => format!("{:.2}%", f * 100.0),
                None => "n/a".into(),
            },
            c.write_stalls.to_string(),
            c.vectored_writes.to_string(),
            c.duplicate_pages.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DeputyBenchRun {
        run_deputybench(&DeputyBenchOptions {
            sessions: Some(vec![8]),
            pages_per_session: Some(64),
            quick: true,
            seed: 42,
        })
        .expect("deputybench run")
    }

    #[test]
    fn tiny_sweep_is_exactly_once_and_self_verifies() {
        let run = tiny();
        assert_eq!(run.cells.len(), 2, "reactor + sleep-poll at one count");
        for c in &run.cells {
            assert_eq!(c.sessions, 8);
            assert_eq!(c.pages_total, 8 * 64, "{}: dup or loss", c.mode);
            assert_eq!(c.duplicate_pages, 0);
            assert_eq!(c.corrupt_pages, 0);
            assert!(c.pages_per_sec > 0.0);
            assert!(c.p99 >= c.p50);
        }
        verify_facts(&run.facts.jsonl).expect("facts self-verify");
        assert_eq!(run.facts.jsonl.lines().count(), 3, "header + two cells");
        assert!(run
            .facts
            .prometheus
            .contains("ampom_deputybench_reactor_s8_pages_per_sec"));
    }

    #[test]
    fn bench_fact_parses_and_baselines_against_itself() {
        let run = tiny();
        let bench = run.facts.bench.as_deref().expect("bench fact");
        assert!(bench.starts_with("{\"bench\":\"deputy\",\"schema\":1,\"seed\":42,"));
        // The BENCH document is gated by its own (mode, sessions) cells.
        let gate = FACTS.gate.as_ref().unwrap();
        // A run is never a regression against itself...
        let summary = facts::check_baseline(gate, bench, bench).expect("self-baseline");
        assert!(summary.starts_with("2 cell(s)"), "{summary}");
        // ...but a 10x-inflated baseline trips the 20 % gate.
        let inflated = bench.replace("\"pages_per_sec\":", "\"pages_per_sec\":1e10,\"was\":");
        let err = facts::check_baseline(gate, bench, &inflated).unwrap_err();
        assert!(err.contains("mode/sessions reactor/8 regressed"), "{err}");
    }

    #[test]
    fn verify_facts_rejects_duplicates_and_miscounts() {
        let run = tiny();
        let doctored = run
            .facts
            .jsonl
            .replace("\"duplicate_pages\":0", "\"duplicate_pages\":3");
        assert!(verify_facts(&doctored).unwrap_err().contains("duplicate"));
        let doctored = run
            .facts
            .jsonl
            .replace("\"pages_total\":512", "\"pages_total\":511");
        assert!(verify_facts(&doctored).unwrap_err().contains("pages_total"));
    }
}
