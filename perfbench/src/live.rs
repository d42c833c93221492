//! `live-loopback`: the wall-clock serving path of the live deputy.
//!
//! One in-process `DeputyServer` with a single worker listens on
//! 127.0.0.1, and one client thread runs two sessions against it, closed
//! loop. Both sessions replay the traffic the four `sim-paper` cells send
//! at seed 1 (their `RunReport` counters and `PagingRequest` trace
//! events):
//!
//! * the read session is a migrant walking a Table-1-sized image once, in
//!   a seeded order, never asking for a page twice. Each request takes
//!   one of the three shapes in [`MIX`], drawn from the seed with the
//!   cells' own frequencies. As in the simulated runner, a demand request
//!   waits for its demand page and a prefetch-only batch is pipelined:
//!   its pages arrive while the next demand request waits. When the
//!   image is done the session collects what is in flight and re-dials as
//!   the next migrant, so the deputy's per-session served set stays
//!   bounded;
//! * the write session sends one writeback batch of [`WRITEBACK_PAGES`]
//!   pages every [`WRITEBACK_EVERY`] read requests and waits for its ack:
//!   what the same cells send with `WritebackSpec::default()` on.
//!
//! Both sessions share the one worker, so a read-path gain that costs
//! writes shows up. Load stays within one process, one client thread and
//! two connections; C10K-scale serving is `hpcc-repro deputybench`'s job.
//!
//! Latency percentiles are exact nearest-rank order statistics of the raw
//! per-request samples, never read from a bucketed sketch.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ampom_core::sweep::percentile;
use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_rpc::frame::{
    encode_page_batch_reply_into, page_payload, payload_matches, MAX_BATCH_PAGES,
};
use ampom_rpc::{
    calibrate_endpoint, CalibrateOptions, DeputyServer, Endpoint, Frame, FrameBuffer,
    MigrantClient, RpcError, ServerConfig, ServerStats,
};
use ampom_sim::rng::SimRng;

use crate::clock::{median, peak_rss_mb, process_cpu, thread_cpu};
use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::{Ctx, Setups};

/// One request shape of the read session.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Requests of this shape the `sim-paper` cells send at seed 1.
    requests: u64,
    /// Pages per request, the demand page included.
    pages: usize,
    /// The first page is a demand page (a fault waits on it); otherwise
    /// the request is a prefetch-only batch.
    demand: bool,
}

/// The read session's request shapes. At seed 1 the `sim-paper` cells
/// take 33,490 faults and send 29,947 requests carrying 92,264 pages.
const MIX: [Shape; 3] = [
    // RandomAccess's demand requests: 16,650 pages in 2,229 requests,
    // the demand page plus about six zone pages.
    Shape {
        requests: 2_229,
        pages: 7,
        demand: true,
    },
    // DGEMM's, STREAM's and FFT's demand requests: 19,823 pages in 109,
    // each opening a large zone.
    Shape {
        requests: 109,
        pages: 182,
        demand: true,
    },
    // Prefetch-only requests, nearly all from DGEMM, STREAM and FFT
    // faulting on pages still in flight: 55,791 pages in 27,609.
    Shape {
        requests: 27_609,
        pages: 2,
        demand: false,
    },
];

/// Pages per writeback batch: with `WritebackSpec::default()` on, the
/// `sim-paper` cells at seed 1 send 152,712 pages in 5,871 batches.
const WRITEBACK_PAGES: usize = 26;
/// Read requests per writeback batch: 29,947 requests per 5,871 batches.
const WRITEBACK_EVERY: u64 = 5;
/// Read requests per block of the timed loop.
const BLOCK: u64 = 250;
/// Reply deadline for any single frame.
const TIMEOUT: Duration = Duration::from_secs(5);
/// `Hello` scheme byte of the migrant (AMPoM).
const SCHEME_BYTE: u8 = 2;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Image walked by each migrant, in pages.
    image_pages: u64,
    /// Read requests issued while warming up.
    warmup_requests: u64,
}

impl Sizes {
    fn new(tiny: bool) -> Self {
        if tiny {
            Sizes {
                image_pages: 1024,
                warmup_requests: 50,
            }
        } else {
            // Table 1's smallest DGEMM/STREAM footprint (115 MB).
            Sizes {
                image_pages: 115 * 256,
                warmup_requests: 24_000,
            }
        }
    }
}

/// The read session's walk over one image, in a seeded order.
#[derive(Debug)]
struct Walk {
    order: Vec<PageId>,
    next: usize,
    shapes: SimRng,
}

impl Walk {
    fn new(pages: u64, seed: u64, lap: u64) -> Self {
        let lap_rng = SimRng::seed_from_u64(seed).fork(lap);
        let mut order: Vec<PageId> = (0..pages).map(PageId).collect();
        lap_rng.fork(0).shuffle(&mut order);
        Walk {
            order,
            next: 0,
            shapes: lap_rng.fork(1),
        }
    }

    /// The next request: its shape and its pages, demand page first;
    /// `None` once the image is done.
    fn next_request(&mut self) -> Option<(Shape, Vec<PageId>)> {
        if self.next >= self.order.len() {
            return None;
        }
        let total: u64 = MIX.iter().map(|s| s.requests).sum();
        let mut draw = self.shapes.below(total);
        let shape = *MIX
            .iter()
            .find(|s| {
                let hit = draw < s.requests;
                draw = draw.saturating_sub(s.requests);
                hit
            })
            .expect("the draw falls in one shape");
        let end = (self.next + shape.pages).min(self.order.len());
        let pages = self.order[self.next..end].to_vec();
        self.next = end;
        Some((shape, pages))
    }
}

/// Raw measurements of the closed loop.
#[derive(Debug, Default)]
struct Samples {
    fault_us: Vec<f64>,
    writeback_us: Vec<f64>,
    connect_us: Vec<f64>,
    read_requests: u64,
    pages_read: u64,
    pages_written: u64,
    reply_frames: u64,
    wire_bytes: u64,
}

/// A deputy with its two sessions.
struct Rig {
    server: DeputyServer,
    endpoint: Endpoint,
    reader: MigrantClient,
    writer: MigrantClient,
    sizes: Sizes,
    seed: u64,
    walk: Walk,
    laps: u64,
    reads: u64,
    outstanding: Vec<bool>,
    in_flight: usize,
    wb_cursor: u64,
    wb_seq: u64,
}

impl Rig {
    /// Set-up: bind, calibrate, dial both sessions, warm up.
    fn start(seed: u64, tiny: bool) -> Result<Rig, RpcError> {
        let sizes = Sizes::new(tiny);
        let cfg = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = DeputyServer::bind_tcp("127.0.0.1:0", cfg)?;
        let endpoint = Endpoint::tcp(server.local_addr());
        calibrate_endpoint(&endpoint, &CalibrateOptions::default())?;
        let reader = MigrantClient::connect(endpoint.clone(), sizes.image_pages, SCHEME_BYTE)?;
        let writer = MigrantClient::connect(endpoint.clone(), sizes.image_pages, SCHEME_BYTE)?;
        let mut rig = Rig {
            server,
            endpoint,
            reader,
            writer,
            sizes,
            seed,
            walk: Walk::new(sizes.image_pages, seed, 0),
            laps: 0,
            reads: 0,
            outstanding: vec![false; sizes.image_pages as usize],
            in_flight: 0,
            wb_cursor: 0,
            wb_seq: 1,
        };
        let mut scratch = Samples::default();
        let mut audit = Outcome::default();
        let mut spans = Spans::new(false);
        for _ in 0..sizes.warmup_requests {
            rig.step(&mut scratch, &mut audit, &mut spans)?;
        }
        // Collect the warm-up's last replies before the deputy's counters
        // are read as the run's baseline.
        if !rig.collect(&mut scratch, None)? || audit.failed > 0 {
            return Err(RpcError::Protocol(format!(
                "warm-up failed its checks: {:?}",
                audit.failures
            )));
        }
        rig.redial(&mut scratch)?;
        Ok(rig)
    }

    /// The next migrant: a fresh session over a freshly ordered image.
    /// Pages still in flight on the old session are abandoned.
    fn redial(&mut self, s: &mut Samples) -> Result<(), RpcError> {
        s.wire_bytes += self.reader.bytes_sent() + self.reader.bytes_received();
        let t = Instant::now();
        self.reader =
            MigrantClient::connect(self.endpoint.clone(), self.sizes.image_pages, SCHEME_BYTE)?;
        s.connect_us.push(micros(t));
        self.laps += 1;
        self.walk = Walk::new(self.sizes.image_pages, self.seed, self.laps);
        self.outstanding.iter_mut().for_each(|o| *o = false);
        self.in_flight = 0;
        Ok(())
    }

    /// One read request, plus a writeback batch when one is due.
    fn step(
        &mut self,
        s: &mut Samples,
        out: &mut Outcome,
        spans: &mut Spans,
    ) -> Result<(), RpcError> {
        let Some((shape, pages)) = self.walk.next_request() else {
            // The image is done: collect what is still in flight, then
            // the next migrant dials in.
            let lap = self.laps;
            match self.collect(s, None) {
                Ok(ok) => out.check(ok, || format!("migrant {lap}: a page failed the audit")),
                Err(e) => out.check(false, || format!("migrant {lap}: {e}")),
            }
            return self.redial(s);
        };
        let id = out.attempted;
        let span = spans.open("rpc.request", id);
        let result = self.read(shape.demand, &pages, s);
        spans.close(span);
        match result {
            Ok(ok) => out.check(ok, || format!("read request {id} failed the page audit")),
            Err(e) => {
                out.check(false, || format!("read request {id}: {e}"));
                self.redial(s)?;
            }
        }
        self.reads += 1;
        if self.reads.is_multiple_of(WRITEBACK_EVERY) {
            let id = out.attempted;
            let span = spans.open("rpc.writeback", id);
            let result = self.write_back(WRITEBACK_PAGES, s);
            spans.close(span);
            match result {
                Ok(ok) => out.check(ok, || format!("writeback batch {id} was not applied once")),
                Err(e) => out.check(false, || format!("writeback batch {id}: {e}")),
            }
        }
        Ok(())
    }

    /// Sends one read request. A prefetch-only batch is pipelined, as the
    /// migrant pipelines it: nothing waits for its pages, which arrive
    /// while a later request waits. A demand request waits until its
    /// demand page arrives; the time until then is a fault-latency
    /// sample. Returns whether every page received meanwhile passed the
    /// audit.
    fn read(&mut self, demand: bool, pages: &[PageId], s: &mut Samples) -> Result<bool, RpcError> {
        for p in pages {
            self.outstanding[p.index() as usize] = true;
        }
        self.in_flight += pages.len();
        s.read_requests += 1;
        if !demand {
            self.reader.send_request(None, pages)?;
            return Ok(true);
        }
        let sent = Instant::now();
        self.reader.send_request(Some(pages[0]), &pages[1..])?;
        let ok = self.collect(s, Some(pages[0]))?;
        s.fault_us.push(micros(sent));
        Ok(ok)
    }

    /// Receives replies until `until` has arrived, or with `None` until
    /// nothing is in flight. Every page must be outstanding and carry its
    /// own payload, so a duplicate, stray or corrupt page fails the
    /// audit; a page that never arrives times out.
    fn collect(&mut self, s: &mut Samples, until: Option<PageId>) -> Result<bool, RpcError> {
        let mut ok = true;
        let mut waiting = true;
        while waiting && self.in_flight > 0 {
            let frame = self.reader.recv(TIMEOUT)?.ok_or_else(|| {
                RpcError::Protocol(format!("{} pages never arrived", self.in_flight))
            })?;
            s.reply_frames += 1;
            let mut take = |page: PageId, data: &[u8]| {
                waiting &= Some(page) != until;
                match self.outstanding.get_mut(page.index() as usize) {
                    Some(o) if *o && payload_matches(page, data) => {
                        *o = false;
                        self.in_flight -= 1;
                        s.pages_read += 1;
                    }
                    _ => ok = false,
                }
            };
            match frame {
                Frame::PageBatchReply { pages, .. } => {
                    for (page, data) in pages {
                        take(page, &data);
                    }
                }
                Frame::PageReply { page, data, .. } => take(page, &data),
                other => {
                    return Err(RpcError::Protocol(format!(
                        "unexpected frame type {:#04x}",
                        other.type_byte()
                    )))
                }
            }
        }
        Ok(ok)
    }

    /// Sends one writeback batch and waits for its ack. Page versions
    /// rise by one per lap over the image, so every entry is new.
    fn write_back(&mut self, batch: usize, s: &mut Samples) -> Result<bool, RpcError> {
        let total = self.sizes.image_pages;
        let entries: Vec<(PageId, u64)> = (0..batch as u64)
            .map(|j| {
                let k = self.wb_cursor + j;
                (PageId(k % total), 1 + k / total)
            })
            .collect();
        self.wb_cursor += batch as u64;
        let seq = self.wb_seq;
        self.wb_seq += 1;
        let sent = Instant::now();
        self.writer.send_writeback(seq, &entries)?;
        match self.writer.recv(TIMEOUT)? {
            Some(Frame::WritebackAck {
                seq: acked,
                applied,
                duplicates,
            }) => {
                s.writeback_us.push(micros(sent));
                s.pages_written += u64::from(applied);
                Ok(acked == seq && applied as usize == batch && duplicates == 0)
            }
            Some(other) => Err(RpcError::Protocol(format!(
                "expected a writeback ack, got frame type {:#04x}",
                other.type_byte()
            ))),
            None => Err(RpcError::Protocol("writeback ack never arrived".into())),
        }
    }
}

/// Wall microseconds since `t`.
fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Counter growth between two snapshots.
fn delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        requests_served: after.requests_served - before.requests_served,
        pages_served: after.pages_served - before.pages_served,
        writeback_pages_applied: after.writeback_pages_applied - before.writeback_pages_applied,
        writeback_duplicates: after.writeback_duplicates - before.writeback_duplicates,
        write_stalls: after.write_stalls - before.write_stalls,
        vectored_writes: after.vectored_writes - before.vectored_writes,
        ..after
    }
}

/// Runs the closed loop for the time budget.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let seed = ctx.seed;
    let tiny = ctx.tiny;
    // Set-up runs in the deputy's worker thread too.
    let mut setups = Setups::new(process_cpu);
    let start_rig = || Rig::start(seed, tiny).map_err(|e| e.to_string());
    let mut rig = setups.time(start_rig)?;
    let mut out = Outcome::default();
    let mut s = Samples::default();

    let before = rig.server.stats();
    let reader_bytes = rig.reader.bytes_sent() + rig.reader.bytes_received();
    let writer_bytes = rig.writer.bytes_sent() + rig.writer.bytes_received();
    // The loop runs in blocks of requests, timed one by one, so set-up
    // repeats between blocks stay out of every measurement. A block's
    // rate is its pages per wall second; stalls from other tenants hit a
    // few blocks hard, so rates are summarised by their median. The
    // traced run records spans on every other block; the two kinds'
    // median rates give the tracing overhead.
    let kinds = if ctx.traced { 2 } else { 1 };
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let (mut wall, mut process_s, mut client_s) = (0.0, 0.0, 0.0);
    let mut blocks = 0;
    let start = Instant::now();
    while blocks < kinds || setups.measured_since(start) < ctx.seconds {
        if setups.due(start, ctx.seconds) {
            setups.time(start_rig)?;
        }
        let kind = blocks % kinds;
        ctx.spans.set_enabled(kind == 1);
        let pages0 = s.pages_read + s.pages_written;
        let (p0, c0, t) = (process_cpu(), thread_cpu(), Instant::now());
        for _ in 0..BLOCK {
            rig.step(&mut s, &mut out, &mut ctx.spans)
                .map_err(|e| e.to_string())?;
        }
        let block_s = t.elapsed().as_secs_f64();
        process_s += (process_cpu() - p0).as_secs_f64();
        client_s += (thread_cpu() - c0).as_secs_f64();
        wall += block_s;
        rates[kind].push((s.pages_read + s.pages_written - pages0) as f64 / block_s);
        blocks += 1;
    }
    ctx.spans.set_enabled(ctx.traced);
    // Collect the replies still in flight, so the audits see every page.
    match rig.collect(&mut s, None) {
        Ok(ok) => out.check(ok, || "the last replies failed the page audit".into()),
        Err(e) => out.check(false, || format!("the last replies: {e}")),
    }
    s.wire_bytes += rig.reader.bytes_sent() + rig.reader.bytes_received();
    s.wire_bytes += rig.writer.bytes_sent() + rig.writer.bytes_received();
    s.wire_bytes -= reader_bytes + writer_bytes;
    let d = delta(rig.server.stats(), before);
    while setups.pending() {
        setups.time(start_rig)?;
    }

    // Deputy-side audit: everything requested was served, and every page
    // sent home was applied exactly once.
    out.check(d.pages_served == s.pages_read, || {
        format!(
            "deputy served {} pages, the migrants received {}",
            d.pages_served, s.pages_read
        )
    });
    out.check(
        d.writeback_pages_applied == s.pages_written && d.writeback_duplicates == 0,
        || {
            format!(
                "deputy applied {} writeback pages ({} duplicates), the writer sent {}",
                d.writeback_pages_applied, d.writeback_duplicates, s.pages_written
            )
        },
    );
    if s.fault_us.is_empty() || s.writeback_us.is_empty() {
        return Err(format!(
            "{} fault and {} writeback samples: the run is too short to measure",
            s.fault_us.len(),
            s.writeback_us.len()
        ));
    }

    let faults = s.fault_us.len();
    let batches = s.writeback_us.len();
    let fault_p50 = percentile(&s.fault_us, 0.50);
    let fault_p99 = percentile(&s.fault_us, 0.99);
    let wb_p50 = percentile(&s.writeback_us, 0.50);
    let pages = (s.pages_read + s.pages_written) as f64;
    let pages_per_s = median(&rates[0]);
    out.set("setup_s", setups.median());
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("throughput_per_s", pages_per_s);
    out.set("op_p50_us", fault_p50);
    out.set("slowdown", fault_p99 / fault_p50);
    let n = |k: usize| format!("exact, {k} samples");
    out.name("fault_p50_us", fault_p50, "us", "lower", n(faults));
    out.name("fault_p99_us", fault_p99, "us", "lower", n(faults));
    out.name("writeback_p50_us", wb_p50, "us", "lower", n(batches));
    out.name(
        "pages_per_s",
        pages_per_s,
        "1/s",
        "higher",
        format!(
            "median of {} blocks of {BLOCK} requests; {pages} pages in {wall:.3} s",
            rates[0].len()
        ),
    );

    if ctx.traced {
        out.set(
            "bench.tracing_overhead",
            pages_per_s / median(&rates[1]) - 1.0,
        );
        out.set("rpc.fault_p99_us", fault_p99);
        out.set("rpc.writeback_p50_us", wb_p50);
        out.set("rpc.requests", s.read_requests as f64);
        out.set("rpc.writeback_batches", batches as f64);
        out.set("rpc.pages_served", d.pages_served as f64);
        out.set("rpc.write_stalls", d.write_stalls as f64);
        out.set(
            "mem.writeback_pages_applied",
            d.writeback_pages_applied as f64,
        );
        out.set("mem.writeback_duplicates", d.writeback_duplicates as f64);
        out.set(
            "rpc.server_cpu_us_per_page",
            (process_s - client_s) * 1e6 / pages,
        );
        out.set("rpc.client_cpu_us_per_page", client_s * 1e6 / pages);
        out.set("rpc.client_wait_share", 1.0 - client_s / wall);
        out.set(
            "rpc.pages_per_reply_frame",
            s.pages_read as f64 / s.reply_frames as f64,
        );
        out.set(
            "rpc.vectored_writes_per_request",
            d.vectored_writes as f64 / d.requests_served.max(1) as f64,
        );
        out.set("rpc.wire_bytes_per_page", s.wire_bytes as f64 / pages);
        transport_floor(ctx, &mut out, &mut rig, &mut s).map_err(|e| e.to_string())?;
        codec_costs(ctx, &mut out);
    }
    rig.server.shutdown();
    Ok(out)
}

/// Round trips per ping measurement.
const PINGS: u64 = 2_000;
/// Dials per connect measurement.
const DIALS: u64 = 50;

/// The transport floor: round trips with no page work, and session
/// set-up.
fn transport_floor(
    ctx: &mut Ctx,
    out: &mut Outcome,
    rig: &mut Rig,
    s: &mut Samples,
) -> Result<(), RpcError> {
    let mut rtt = Vec::with_capacity(PINGS as usize);
    for i in 0..PINGS {
        let span = ctx.spans.open("rpc.ping", i);
        let (d, stray) = rig.reader.ping(TIMEOUT)?;
        ctx.spans.close(span);
        if !stray.is_empty() {
            return Err(RpcError::Protocol("stray frames during pings".into()));
        }
        rtt.push(d.as_secs_f64() * 1e6);
    }
    out.set("rpc.ping_p50_us", percentile(&rtt, 0.5));
    for i in 0..DIALS {
        let span = ctx.spans.open("rpc.connect", i);
        let t = Instant::now();
        let c = MigrantClient::connect(rig.endpoint.clone(), rig.sizes.image_pages, SCHEME_BYTE)?;
        s.connect_us.push(micros(t));
        ctx.spans.close(span);
        drop(c);
    }
    out.set("rpc.connect_us", median(&s.connect_us));
    Ok(())
}

/// Reply batches per codec measurement.
const BATCHES: u64 = 2_000;

/// Per-page codec costs on full reply batches.
fn codec_costs(ctx: &mut Ctx, out: &mut Outcome) {
    let batch: Vec<(u64, PageId)> = (0..MAX_BATCH_PAGES as u64)
        .map(|i| (1, PageId(i * 7 + 3)))
        .collect();
    let pages = (BATCHES * MAX_BATCH_PAGES as u64) as f64;
    let mut wire = Vec::with_capacity(MAX_BATCH_PAGES * (PAGE_SIZE as usize + 16) + 64);

    let span = ctx.spans.open("rpc.encode", 0);
    let t = Instant::now();
    for _ in 0..BATCHES {
        wire.clear();
        encode_page_batch_reply_into(black_box(&batch), &mut wire);
        black_box(&wire);
    }
    out.set(
        "rpc.encode_ns_per_page",
        t.elapsed().as_nanos() as f64 / pages,
    );
    ctx.spans.close(span);

    let mut fb = FrameBuffer::new();
    let span = ctx.spans.open("rpc.decode", 0);
    let t = Instant::now();
    for _ in 0..BATCHES {
        fb.extend(black_box(&wire));
        black_box(fb.pop().expect("the encoder's own frame decodes"));
    }
    out.set(
        "rpc.decode_ns_per_page",
        t.elapsed().as_nanos() as f64 / pages,
    );
    ctx.spans.close(span);

    let span = ctx.spans.open("rpc.payload", 0);
    let t = Instant::now();
    let mut all = true;
    for i in 0..BATCHES * MAX_BATCH_PAGES as u64 {
        let page = PageId(black_box(i));
        all &= payload_matches(page, &page_payload(page));
    }
    out.set(
        "rpc.payload_ns_per_page",
        t.elapsed().as_nanos() as f64 / pages,
    );
    ctx.spans.close(span);
    assert!(all, "page_payload must satisfy payload_matches");
}
