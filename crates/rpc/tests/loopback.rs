//! Loopback smoke tests: a real [`DeputyServer`] on 127.0.0.1, a real
//! [`MigrantClient`] underneath the shared runner loop, and the PR 2
//! reliability layer arbitrating timeouts over genuine sockets.
//!
//! These run in CI. They are deliberately small (a few MB of address
//! space) and use generous retry budgets so scheduler jitter on a busy
//! runner cannot produce spurious policy degradations.

use ampom_core::migration::Scheme;
use ampom_core::reliability::{FailurePolicy, RetryPolicy};
use ampom_core::runner::RunConfig;
use ampom_rpc::{
    calibrate_endpoint, run_live, CalibrateOptions, DeputyServer, Endpoint, LiveOptions,
    ServerConfig,
};
use ampom_workloads::stream_kernel::StreamKernel;

/// A retry budget wide enough that loopback jitter never exhausts it.
fn generous() -> LiveOptions {
    LiveOptions {
        retry: RetryPolicy {
            timeout_factor: 50,
            max_retries: 6,
        },
        policy: FailurePolicy::StallReconnect,
        calibrate: CalibrateOptions {
            pings: 8,
            bulk_pages: 64,
        },
    }
}

#[test]
fn stream_migrant_completes_over_tcp_loopback() {
    let server = DeputyServer::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let endpoint = Endpoint::tcp(server.local_addr());

    let mut kernel = StreamKernel::new(4 * 1024 * 1024);
    let cfg = RunConfig::new(Scheme::Ampom);
    let live = run_live(&mut kernel, &cfg, endpoint, &generous()).expect("live run");

    let report = &live.report;
    assert!(report.total_time.as_nanos() > 0);
    assert!(
        report.pages_demand_fetched > 0,
        "a migrant starts empty; something must be demand-fetched"
    );
    assert!(
        report.pages_prefetched > 0,
        "AMPoM over a sequential STREAM pass must prefetch"
    );
    // Zero retry-budget exhaustions: the reliable loopback deputy never
    // forces a degradation.
    assert_eq!(report.faults.reconnects, 0, "no policy degradations");
    assert_eq!(report.faults.deputy_unavailable, 0);
    assert_eq!(report.faults.fallback_pages, 0);
    // The link was actually measured, not defaulted.
    assert!(live.measured.capacity_bytes_per_sec > 0);
    assert!(live.measured.t0.as_nanos() >= 1);

    let stats = server.stats();
    assert!(stats.pages_served > 0);
    assert_eq!(stats.dropped_connections, 0);
    server.shutdown();
}

#[cfg(unix)]
#[test]
fn calibration_and_migrant_work_over_unix_socket() {
    let path = std::env::temp_dir().join(format!("ampom-loopback-{}.sock", std::process::id()));
    let server = DeputyServer::bind_unix(&path, ServerConfig::default()).expect("bind");
    let endpoint = Endpoint::unix(&path);

    let measured = calibrate_endpoint(
        &endpoint,
        &CalibrateOptions {
            pings: 8,
            bulk_pages: 32,
        },
    )
    .expect("calibration");
    assert!(measured.capacity_bytes_per_sec > 0);
    assert!(measured.td.as_nanos() > 0);
    // td is the serialization time of one reply at the measured
    // capacity, so the two must be consistent.
    let lc = measured.link_config();
    assert_eq!(lc.capacity_bytes_per_sec, measured.capacity_bytes_per_sec);
    assert_eq!(lc.latency, measured.t0);

    let mut kernel = StreamKernel::new(1024 * 1024);
    let cfg = RunConfig::new(Scheme::NoPrefetch);
    let live = run_live(&mut kernel, &cfg, endpoint, &generous()).expect("live run");
    assert_eq!(live.report.pages_prefetched, 0);
    assert!(live.report.pages_demand_fetched > 0);
    assert_eq!(live.report.faults.reconnects, 0);

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Four concurrent migrants against one deputy with a two-worker pool:
/// the multiplexed event loop must interleave all sessions (no migrant
/// waits for a whole neighbour run), every run must complete cleanly,
/// and the sharded accounting must add up across connections.
#[test]
fn four_concurrent_migrants_share_one_deputy() {
    let server = DeputyServer::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // Hold four raw sessions open at once: with two workers, at least
    // one must multiplex, and the peak-session gauge must see all four.
    {
        let mut probes: Vec<ampom_rpc::MigrantClient> = (0..4)
            .map(|_| {
                ampom_rpc::MigrantClient::connect(Endpoint::tcp(&addr), 64, 2).expect("connect")
            })
            .collect();
        for c in probes.iter_mut() {
            c.ping(std::time::Duration::from_secs(5)).expect("ping");
        }
        let stats = server.stats();
        assert!(
            stats.peak_sessions >= 4,
            "4 live probes, peak {}",
            stats.peak_sessions
        );
        assert!(
            stats.queued_connections >= 2,
            "two workers holding four sessions must have multiplexed"
        );
    }

    let reports: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let endpoint = Endpoint::tcp(&addr);
                s.spawn(move || {
                    let mut kernel = StreamKernel::new(2 * 1024 * 1024);
                    let scheme = if i % 2 == 0 {
                        Scheme::Ampom
                    } else {
                        Scheme::NoPrefetch
                    };
                    let cfg = RunConfig::new(scheme);
                    run_live(&mut kernel, &cfg, endpoint, &generous()).expect("live run")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut fetched = 0u64;
    for live in &reports {
        let report = &live.report;
        assert!(report.pages_demand_fetched > 0);
        assert_eq!(report.faults.reconnects, 0, "reliable deputy, no drops");
        assert_eq!(report.faults.fallback_pages, 0);
        fetched += report.pages_demand_fetched + report.pages_prefetched;
    }
    let stats = server.stats();
    assert!(
        stats.pages_served >= fetched,
        "served {} < the {} pages migrants booked",
        stats.pages_served,
        fetched
    );
    assert_eq!(stats.dropped_connections, 0);
    server.shutdown();
}

/// An admission-bounded deputy sheds prefetch load with non-fatal 503s;
/// the migrant reverts the refused pages, re-fetches them on demand, and
/// the run still completes with every page delivered exactly once.
#[test]
fn bounded_admission_sheds_prefetch_and_the_run_completes() {
    let server = DeputyServer::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            // Well under the client's 64-page in-flight quota, so an
            // AMPoM prefetch storm must overflow the bound.
            max_pending_pages: Some(8),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let endpoint = Endpoint::tcp(server.local_addr());

    let mut kernel = StreamKernel::new(2 * 1024 * 1024);
    let cfg = RunConfig::new(Scheme::Ampom);
    let live = run_live(&mut kernel, &cfg, endpoint, &generous()).expect("live run");

    let report = &live.report;
    assert!(report.pages_demand_fetched > 0);
    assert_eq!(report.faults.fallback_pages, 0, "no eager fallback needed");
    let stats = server.stats();
    assert!(
        stats.prefetch_pages_shed > 0,
        "an 8-page bound under an AMPoM prefetch storm shed nothing"
    );
    assert_eq!(stats.demand_pages_shed, 0, "demand is never shed");
    assert!(stats.shed_events > 0);
    // The deputy-side report the migrant fetched over the wire carries
    // the same counters.
    assert!(report.deputy.prefetch_pages_shed > 0);
    assert_eq!(report.deputy.demand_pages_shed, 0);
    server.shutdown();
}

/// A deputy that drops every connection after a handful of pages: the
/// stall/reconnect policy must fire (degradations over the live path)
/// and the run must still complete correctly.
#[test]
fn dropped_connections_trigger_stall_reconnect_degradations() {
    let server = DeputyServer::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            drop_after_pages: Some(24),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let endpoint = Endpoint::tcp(server.local_addr());

    let opts = LiveOptions {
        // A tight budget so a dropped connection degrades quickly instead
        // of pacing through a long resend ladder.
        retry: RetryPolicy {
            timeout_factor: 1,
            max_retries: 1,
        },
        policy: FailurePolicy::StallReconnect,
        calibrate: CalibrateOptions {
            pings: 4,
            // Fewer bulk pages than the drop threshold, so the
            // calibration session itself survives its connection.
            bulk_pages: 16,
        },
    };

    let mut kernel = StreamKernel::new(1024 * 1024);
    let cfg = RunConfig::new(Scheme::NoPrefetch);
    let live = run_live(&mut kernel, &cfg, endpoint, &opts).expect("live run survives drops");

    let report = &live.report;
    assert!(report.pages_demand_fetched > 0);
    assert!(
        report.faults.reconnects > 0,
        "the failure policy must have fired: {:?}",
        report.faults
    );
    assert!(report.faults.timeouts > 0);
    assert!(report.faults.recovery_time.as_nanos() > 0);

    let stats = server.stats();
    assert!(
        stats.dropped_connections > 0,
        "the fault injector must actually have dropped connections"
    );
    assert!(stats.connections > stats.dropped_connections);
    server.shutdown();
}

/// The full forward half of the page lifecycle over a real socket: a
/// stores-heavy migrant with background writeback enabled must drain
/// every dirty page into the deputy's sink by the end of the run.
#[test]
fn live_run_with_writeback_drains_every_dirty_page() {
    use ampom_core::WritebackSpec;
    use ampom_sim::time::SimDuration;
    use ampom_workloads::synthetic::SequentialWrite;

    let server = DeputyServer::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let endpoint = Endpoint::tcp(server.local_addr());

    let mut w = SequentialWrite::new(512, SimDuration::from_micros(5));
    let cfg = RunConfig::new(Scheme::Ampom).with_writeback(WritebackSpec::default());
    let live = run_live(&mut w, &cfg, endpoint, &generous()).expect("live run");

    let wb = &live.report.writeback;
    assert!(wb.writes_noted > 0, "stores must be noted");
    assert!(wb.batches_sent > 0, "batches must flush");
    assert_eq!(
        wb.pages_written_back, wb.writes_noted,
        "the final drain leaves no page dirty"
    );
    assert!(wb.writeback_bytes > 0);

    let stats = server.stats();
    assert_eq!(stats.writeback_pages_applied, wb.pages_written_back);
    assert!(stats.writeback_batches >= wb.batches_sent);
    assert_eq!(stats.writeback_duplicates, 0, "reliable loopback: no dups");
    server.shutdown();
}

/// Protocol-level writeback + home-return round trip: duplicate batches
/// re-ack idempotently (batch- and version-level), and the ReturnAck
/// partitions the served set into stub (fetched, not written back) and
/// freed (everything else) pages.
#[test]
fn writeback_and_return_round_trip_over_loopback() {
    use ampom_mem::page::PageId;
    use ampom_rpc::Frame;
    use std::time::Duration;

    let server = DeputyServer::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = ampom_rpc::MigrantClient::connect(Endpoint::tcp(server.local_addr()), 64, 2)
        .expect("connect");

    // Fetch pages 0..8 so the session's served set is known.
    let prefetch: Vec<PageId> = (1..8).map(PageId).collect();
    client
        .send_request(Some(PageId(0)), &prefetch)
        .expect("send");
    let mut served = std::collections::HashSet::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while served.len() < 8 {
        assert!(std::time::Instant::now() < deadline, "pages never arrived");
        match client.recv(Duration::from_secs(5)).expect("recv") {
            Some(Frame::PageReply { page, .. }) => {
                served.insert(page);
            }
            Some(Frame::PageBatchReply { pages, .. }) => {
                served.extend(pages.into_iter().map(|(p, _)| p));
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }

    let wait_ack = |client: &mut ampom_rpc::MigrantClient, seq: u64| match client
        .recv(Duration::from_secs(5))
        .expect("recv")
    {
        Some(Frame::WritebackAck {
            seq: s,
            applied,
            duplicates,
        }) if s == seq => (applied, duplicates),
        Some(other) => panic!("unexpected frame: {other:?}"),
        None => panic!("writeback ack timed out"),
    };

    // Write back pages 0..4 at version 1.
    let entries: Vec<(PageId, u64)> = (0..4).map(|p| (PageId(p), 1)).collect();
    client.send_writeback(1, &entries).expect("writeback");
    assert_eq!(wait_ack(&mut client, 1), (4, 0), "fresh batch applies");

    // The same sequence again: a retransmit, recognised wholesale.
    client.send_writeback(1, &entries).expect("retransmit");
    assert_eq!(wait_ack(&mut client, 1), (0, 4), "duplicate seq re-acks");

    // A new sequence carrying already-applied versions: the per-page
    // version compare skips every entry (the post-restart replay path).
    client.send_writeback(2, &entries).expect("replay");
    assert_eq!(wait_ack(&mut client, 2), (0, 4), "stale versions skipped");

    // Home return: pages 4..8 were fetched but never written back, so
    // they stay behind as the deputy stub; the other 60 of 64 are free.
    let ((stub, freed), stray) = client.send_return(Duration::from_secs(5)).expect("return");
    assert!(stray.is_empty(), "unexpected strays: {stray:?}");
    assert_eq!(stub, 4, "fetched-but-dirty pages stay behind");
    assert_eq!(freed, 60, "never-fetched and written-back pages are free");

    let stats = server.stats();
    assert_eq!(stats.returns_served, 1);
    assert_eq!(stats.writeback_pages_applied, 4);
    assert_eq!(stats.writeback_duplicates, 8);
    drop(client);
    server.shutdown();
}

/// Collects page replies (single and batch) until `want` total pages
/// have arrived, verifying payload integrity on each.
fn collect_pages(
    client: &mut ampom_rpc::MigrantClient,
    want: usize,
) -> Vec<(ampom_mem::page::PageId, ampom_rpc::PageView)> {
    use ampom_rpc::Frame;
    use std::time::{Duration, Instant};
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    while got.len() < want {
        assert!(
            Instant::now() < deadline,
            "only {} of {want} pages arrived",
            got.len()
        );
        match client.recv(Duration::from_secs(10)).expect("recv") {
            Some(Frame::PageReply { page, data, .. }) => got.push((page, data)),
            Some(Frame::PageBatchReply { pages, .. }) => got.extend(pages),
            Some(other) => panic!("unexpected frame: {other:?}"),
            None => {}
        }
    }
    for (page, data) in &got {
        assert!(
            ampom_rpc::frame::payload_matches(*page, data),
            "corrupt payload for {page}"
        );
    }
    got
}

/// Backpressure regression: a migrant that requests the full per-request
/// cap and then stops reading must not balloon the deputy's memory. The
/// session stalls at the high-water mark (counted), the backlog stays
/// bounded near it, and once the reader drains, every page still arrives
/// exactly once — backpressure pauses service, it loses nothing.
#[test]
fn slow_reader_stalls_bounded_and_resumes() {
    use ampom_mem::page::PageId;
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    const HIGH: usize = 256 * 1024;
    let server = DeputyServer::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            write_high_water: HIGH,
            write_low_water: 32 * 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = ampom_rpc::MigrantClient::connect(Endpoint::tcp(server.local_addr()), 8192, 2)
        .expect("connect");

    // 4096 pages ≈ 16 MB of replies: far beyond the socket buffer plus
    // the high-water mark, so the deputy must stall.
    let prefetch: Vec<PageId> = (1..4096).map(PageId).collect();
    client
        .send_request(Some(PageId(0)), &prefetch)
        .expect("send");

    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().write_stalls == 0 {
        assert!(Instant::now() < deadline, "deputy never hit the high-water");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The unflushed backlog must sit near the watermark, not near the
    // 16 MB the request describes. Overshoot is bounded by one DRR
    // batch (quantum × page frames) plus one frame.
    let peak = server.stats().peak_write_backlog_bytes;
    assert!(
        peak as usize <= HIGH + 128 * 1024,
        "backlog {peak} blew past the high-water mark {HIGH}"
    );

    // Drain: service resumes and delivers every page exactly once.
    let got = collect_pages(&mut client, 4096);
    let distinct: HashSet<u64> = got.iter().map(|(p, _)| p.0).collect();
    assert_eq!(got.len(), 4096, "no page lost, none duplicated");
    assert_eq!(distinct.len(), 4096);

    let stats = server.stats();
    assert!(stats.write_stalls >= 1);
    assert_eq!(stats.pages_served, 4096);
    drop(client);
    server.shutdown();
}

/// C10K-shaped smoke at CI scale: 256 concurrent migrant sessions over
/// two reactor shards, each fetching its own 64-page window. Every
/// session must see its exact window back — no loss, no duplication, no
/// cross-session bleed — and the sharded tallies must add up.
#[test]
fn two_hundred_fifty_six_sessions_fetch_exactly_once() {
    use ampom_mem::page::PageId;
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    const SESSIONS: usize = 256;
    const PAGES: u64 = 64;
    let server = DeputyServer::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();

    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                // Stagger the dials slightly so 256 simultaneous SYNs
                // don't overflow the listen backlog on slow runners.
                std::thread::sleep(Duration::from_millis((i % 16) as u64));
                let mut client = ampom_rpc::MigrantClient::connect(Endpoint::tcp(addr), PAGES, 2)
                    .expect("connect");
                let prefetch: Vec<PageId> = (1..PAGES).map(PageId).collect();
                client
                    .send_request(Some(PageId(0)), &prefetch)
                    .expect("send");
                let got = collect_pages(&mut client, PAGES as usize);
                let distinct: HashSet<u64> = got.iter().map(|(p, _)| p.0).collect();
                assert_eq!(got.len(), PAGES as usize, "session {i}: dup or loss");
                assert_eq!(distinct, (0..PAGES).collect::<HashSet<u64>>());
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session thread");
    }

    // Shard tallies publish per pass; poll briefly for the last one.
    let want = (SESSIONS as u64) * PAGES;
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().pages_served < want {
        assert!(Instant::now() < deadline, "tallies never reached {want}");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.stats();
    assert_eq!(stats.pages_served, want);
    assert_eq!(stats.connections, SESSIONS as u64);
    assert_eq!(stats.dropped_connections, 0);
    server.shutdown();
}

/// The reactor is a scheduling change, not a protocol change: the same
/// seeded request sequence against a readiness-driven deputy and a
/// sleep-poll deputy must produce bit-identical page sets and payloads.
#[test]
fn reactor_and_sleep_poll_serve_identical_bytes() {
    use ampom_mem::page::PageId;

    // FNV-1a over the sorted (page, payload) stream: any lost page,
    // duplicate, or corrupt byte changes the fingerprint.
    fn fingerprint(mut pages: Vec<(PageId, ampom_rpc::PageView)>) -> u64 {
        pages.sort_by_key(|(p, _)| p.0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for (page, data) in &pages {
            for b in page.0.to_be_bytes() {
                eat(b);
            }
            for &b in data.iter() {
                eat(b);
            }
        }
        h
    }

    let run = |reactor: bool| -> u64 {
        let server = DeputyServer::bind_tcp(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                reactor,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let mut client =
            ampom_rpc::MigrantClient::connect(Endpoint::tcp(server.local_addr()), 4096, 2)
                .expect("connect");
        // A fixed multiplicative-congruential walk: same page sequence
        // on both runs, including repeats (served twice, counted twice).
        let mut seed: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut total = 0usize;
        let mut pages = Vec::new();
        for _ in 0..8 {
            let mut batch = Vec::new();
            for _ in 0..16 {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                batch.push(PageId(seed % 4096));
            }
            let demand = batch[0];
            client
                .send_request(Some(demand), &batch[1..])
                .expect("send");
            // Requests are served in order and duplicates within one
            // frame coalesce; count what will actually come back.
            let mut seen = std::collections::HashSet::new();
            total += batch.iter().filter(|p| seen.insert(p.0)).count();
            pages.extend(collect_pages(&mut client, total - (pages.len())));
        }
        drop(client);
        server.shutdown();
        fingerprint(pages)
    };

    let fp_reactor = run(true);
    let fp_sleep = run(false);
    assert_eq!(
        fp_reactor, fp_sleep,
        "wait-mode change altered the served byte stream"
    );
}

/// Wire-level regression for the request-cap width fix: a request at the
/// cap is served in full; one past the cap draws the 413 protocol error
/// instead of silently truncated (or, before the fix, wrapped) service.
#[test]
fn request_cap_enforced_at_wire_boundary() {
    use ampom_mem::page::PageId;
    use ampom_rpc::Frame;
    use std::time::Duration;

    let server = DeputyServer::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            max_pages_per_request: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Exactly at the cap: all four pages come back.
    let mut ok = ampom_rpc::MigrantClient::connect(Endpoint::tcp(server.local_addr()), 64, 2)
        .expect("connect");
    ok.send_request(Some(PageId(0)), &[PageId(1), PageId(2), PageId(3)])
        .expect("send");
    let got = collect_pages(&mut ok, 4);
    assert_eq!(got.len(), 4);

    // One past the cap: a 413, not service.
    let mut over = ampom_rpc::MigrantClient::connect(Endpoint::tcp(server.local_addr()), 64, 2)
        .expect("connect");
    over.send_request(
        Some(PageId(0)),
        &[PageId(1), PageId(2), PageId(3), PageId(4)],
    )
    .expect("send");
    match over.recv(Duration::from_secs(5)).expect("recv") {
        Some(Frame::Error { code, .. }) => assert_eq!(code, 413),
        other => panic!("expected the cap error, got {other:?}"),
    }

    drop(ok);
    drop(over);
    server.shutdown();
}
