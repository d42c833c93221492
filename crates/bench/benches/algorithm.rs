//! Microbenchmarks of the AMPoM analysis path.
//!
//! Figure 11's claim is that the dependent-zone analysis costs well under
//! 0.6% of execution time. Our simulator charges a fixed
//! `AMPOM_ANALYSIS_COST` (2 µs) per fault; these benches measure what the
//! *actual Rust implementation* costs per invocation so the constant can
//! be sanity-checked. Every shape below, up to a pipelined fault at the
//! 512-page cap, stays under the 2 µs charge (DESIGN §7 lists the
//! measured costs).
//!
//! The `paging` group times the per-page bookkeeping an eviction-bound
//! run repeats around each fault, at `sim-scatter`'s shape: the MPT/HPT
//! transitions behind every served and every evicted page, and the
//! write-set's note-then-flush cycle.
//!
//! The `multirun` group times the whole migrant loop on its own and
//! inside `run_multi`: a 16,384-page sequential sweep solo and as the one
//! migrant of a multi-run, under AMPoM and NoPrefetch, then 4 and 64
//! migrants of a 2,048-page sweep against the same runs solo.
//!
//! The `fault_path` group times what every simulated fault pays for:
//! the census on a full 20-entry window, into storage reused from the
//! last fault as the prefetcher runs it, and a whole capped,
//! writeback-on `sim-scatter` cell at 1/16 size (RandomAccess on a 4 MB
//! heap under a 2 MB RAM cap). Beside them it times the hit path: the
//! `sim-paper` DGEMM cell at 1/16 size, 41,472 references for 903
//! faults, which must make at least 30 references per fault. Neither
//! cell's fingerprint may change from sample to sample.
//!
//! The `gossip` group times cluster-life's load dissemination at its
//! 300-node shape: an absent, fresher peer merged into a full 64-entry
//! window (the eviction path, over half of all merges in a 300-node run),
//! `plan_gossip` on a full window, and a whole 60 s run of a 300-node
//! cluster, whose fingerprint must not change from sample to sample.
//!
//! The `rng` group times the draws under the gossip payload: a shuffle
//! of a full window's 64 indices, reported per shuffle.
//!
//! The `rpc_codec` group times the live deputy's and migrant's per-page
//! codec work, reported per page: synthesizing a page's contents, a
//! 64-page reply batch and a 26-page writeback batch (`sim-paper`'s mean
//! batch) encoded into a reused buffer, and both batches decoded through
//! a `FrameBuffer` (the writeback's page ids and versions checked too).
//! Every sample checks a digest of its output (a word from each 64-byte
//! line) against the same digest of the bytes `page_payload` gives.

use ampom_bench::{black_box, Harness};
use ampom_cluster::gossip::{plan_gossip, LoadEntry, WindowView};
use ampom_cluster::{run_cluster_life, LifeConfig};
use ampom_core::census::{census, census_into, OutstandingStream};
use ampom_core::experiment::WorkloadSpec;
use ampom_core::lifecycle::WritebackSpec;
use ampom_core::multirun::{run_multi, MultiRunSpec};
use ampom_core::policy::{extend_by_word, Fetchable, PolicySpec};
use ampom_core::prefetcher::{AmpomConfig, AmpomPrefetcher, NetEstimates};
use ampom_core::runner::{try_run_workload, RunConfig};
use ampom_core::score::spatial_score;
use ampom_core::transport::{run_with_transport, SimulatedTransport};
use ampom_core::window::LookbackWindow;
use ampom_core::zone::{dependent_zone_size, select_zone, ZoneSizeInputs};
use ampom_core::{RunReport, Scheme};
use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_mem::table::{PageLocation, PageTablePair};
use ampom_mem::writeback::WriteSet;
use ampom_rpc::frame::{
    encode_page_batch_reply_into, encode_writeback_batch_into, page_payload, page_payload_into,
    Frame, FrameBuffer, MAX_BATCH_PAGES,
};
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_workloads::sizes::sizes_for;
use ampom_workloads::{Kernel, ProblemSize};

fn bench_window_record(h: &mut Harness) {
    let mut g = h.group("window");
    let mut w = LookbackWindow::new(20);
    let mut i = 0u64;
    g.bench("record", || {
        i += 1;
        w.record(PageId(black_box(i)), SimTime::from_nanos(i * 1000), 1.0)
    });
    g.finish();
}

fn bench_census(h: &mut Harness) {
    // Three representative window contents.
    let sequential: Vec<u64> = (100..120).collect();
    let interleaved: Vec<u64> = (0..20)
        .map(|i| {
            if i % 2 == 0 {
                1000 + i / 2
            } else {
                5000 + i / 2
            }
        })
        .collect();
    let random: Vec<u64> = (0..20).map(|i| (i * 104_729 + 13) % 1_000_000).collect();

    let mut g = h.group("census");
    g.bench("sequential", || census(black_box(&sequential), 4));
    g.bench("interleaved", || census(black_box(&interleaved), 4));
    g.bench("random", || census(black_box(&random), 4));
    g.finish();
}

fn bench_score_and_zone(h: &mut Harness) {
    let pages: Vec<u64> = (100..120).collect();
    let cen = census(&pages, 4);
    let mut g = h.group("score");
    g.bench("eq1", || spatial_score(black_box(&cen)));
    g.finish();

    let inputs = ZoneSizeInputs {
        spatial_score: 0.33,
        paging_rate: 40_000.0,
        mean_cpu: 0.8,
        next_cpu: 0.9,
        t0: SimDuration::from_micros(120),
        td: SimDuration::from_micros(392),
    };
    let mut g = h.group("zone");
    g.bench("eq3", || dependent_zone_size(black_box(&inputs)));
    g.bench("select_128", || {
        select_zone(
            black_box(&cen.outstanding),
            128,
            PageId(119),
            PageId(1_000_000),
        )
    });
    // The budget the runner reaches on the stride kernels, split over
    // four streams, two of which close on the same page (their walks
    // overlap, so the second spends its quota past the first's).
    let streams: Vec<OutstandingStream> = [(1_000, 1), (50_000, 1), (50_000, 2), (90_000, 3)]
        .iter()
        .map(|&(pivot, d)| OutstandingStream {
            end_page: pivot - 1,
            d,
            pivot,
        })
        .collect();
    g.bench("select_512_4streams", || {
        select_zone(black_box(&streams), 512, PageId(999), PageId(1_000_000))
    });
    g.finish();
}

fn bench_full_analysis(h: &mut Harness) {
    // The complete per-fault path of Algorithm 1's analysis lines — the
    // quantity AMPOM_ANALYSIS_COST models.
    let mut g = h.group("prefetcher");
    let mut pf = AmpomPrefetcher::new(AmpomConfig::default());
    let net = NetEstimates {
        t0: SimDuration::from_micros(120),
        td: SimDuration::from_micros(392),
    };
    let mut i = 0u64;
    g.bench("on_fault", || {
        i += 1;
        pf.on_fault(
            PageId(black_box(i)),
            SimTime::from_nanos(i * 20_000),
            0.9,
            net,
            PageId(10_000_000),
            |_| true,
        )
    });
    // A pipelined fault on a sequential stream: faults 1 µs apart push
    // the zone to its 512-page cap, and every candidate but the last few
    // is already in flight, so the filter refuses almost all of them.
    let mut pf = AmpomPrefetcher::new(AmpomConfig::default());
    let mut i = 0u64;
    let mut pipelined = move || {
        i += 1;
        let frontier = i + 508;
        pf.on_fault(
            PageId(black_box(i)),
            SimTime::from_nanos(i * 1_000),
            0.9,
            net,
            PageId(10_000_000),
            |p| p.index() > frontier,
        )
    };
    // Fill the lookback window so every timed call sees the capped zone.
    let warm = (0..20)
        .map(|_| pipelined())
        .last()
        .expect("20 warm-up faults");
    assert_eq!((warm.analysis.budget, warm.prefetch.len()), (512, 4));
    g.bench("on_fault_pipelined_512", pipelined);

    // The same fault through the `Prefetcher` trait, as the runner makes
    // it: the zone's runs go to a query over two page bitsets, which
    // answers 64 pages per word, and the zone to a list every fault
    // reuses.
    let mut pf = PolicySpec::Ampom.build(&AmpomConfig::default());
    let limit = PageId(10_000_000);
    let mut bits = PageBits::new(limit);
    for p in 0..=508 {
        bits.set_in_flight(PageId(p));
    }
    let mut i = 0u64;
    let mut prefetch = Vec::new();
    let mut pipelined_words = move || {
        i += 1;
        bits.set_in_flight(PageId(i + 508));
        let analysis = pf.on_fault(
            PageId(black_box(i)),
            SimTime::from_nanos(i * 1_000),
            0.9,
            net,
            limit,
            &mut bits,
            &mut prefetch,
        );
        (analysis.budget, prefetch.len())
    };
    let warm = (0..20)
        .map(|_| pipelined_words())
        .last()
        .expect("20 warm-up faults");
    assert_eq!(warm, (512, 4));
    g.bench("on_fault_pipelined_512_words", pipelined_words);
    g.finish();
}

/// Remote and in-flight page bitsets, read a word at a time the way the
/// forward loop's zone filter reads the address space and the transport.
struct PageBits {
    remote: Vec<u64>,
    in_flight: Vec<u64>,
}

impl PageBits {
    /// Every page below `limit` remote, none in flight.
    fn new(limit: PageId) -> Self {
        let words = limit.index().div_ceil(64) as usize;
        PageBits {
            remote: vec![u64::MAX; words],
            in_flight: vec![0; words],
        }
    }

    fn set_in_flight(&mut self, page: PageId) {
        self.in_flight[(page.index() / 64) as usize] |= 1 << (page.index() % 64);
    }
}

impl Fetchable for PageBits {
    fn extend_fetchable(&mut self, start: PageId, end: PageId, out: &mut Vec<PageId>) {
        extend_by_word(start, end, out, |word, run| {
            let w = word as usize;
            let left = run & !self.in_flight[w];
            if left == 0 {
                0
            } else {
                left & self.remote[w]
            }
        });
    }
}

fn bench_paging(h: &mut Harness) {
    // A 64 MB heap with half of it resident, visited at a scattered
    // stride (odd, so it permutes the pages): call `i` serves page `i`
    // of the permutation and evicts page `i - RESIDENT`, the lookups
    // guarding each transition as the deputy and the evictor do.
    const PAGES: u64 = 16_384;
    const RESIDENT: u64 = PAGES / 2;
    const STRIDE: u64 = 7_919;
    let nth = |i: u64| PageId(i * STRIDE % PAGES);
    let mut g = h.group("paging");
    let mut table = PageTablePair::at_migration((0..PAGES).map(PageId));
    for i in 0..RESIDENT {
        table.transfer_to_destination(nth(i));
    }
    let mut i = RESIDENT;
    g.bench("serve_evict_16k", || {
        let (served, evicted) = (nth(i), nth(i - RESIDENT));
        i += 1;
        if table.lookup(served) == Some(PageLocation::Origin) {
            table.transfer_to_destination(served);
        }
        if table.lookup(evicted) == Some(PageLocation::Destination) {
            table.return_to_origin(evicted);
        }
    });
    assert_eq!(table.pages_at_destination(), RESIDENT);

    // Eight stores to scattered pages between flushes, then one batch
    // built into reused storage, acknowledged as it is built.
    let mut ws = WriteSet::new();
    let mut batch = Vec::new();
    let mut j = 0u64;
    g.bench("writeset_note_flush", || {
        for _ in 0..8 {
            ws.note_write(nth(j));
            j += 1;
        }
        ws.build_acked_batch(64, &mut batch)
            .expect("eight dirty pages");
        batch.len()
    });
    assert_eq!(ws.dirty_len(), 0);
    g.finish();
}

fn bench_multirun(h: &mut Harness) {
    let sweep = |pages| WorkloadSpec::Sequential {
        pages,
        cpu: SimDuration::from_micros(10),
    };
    let solo = |cfg: &RunConfig, spec: &WorkloadSpec, seed| -> RunReport {
        let mut w = spec.build(seed).expect("valid sweep");
        run_with_transport(w.as_mut(), cfg, &mut SimulatedTransport::new(cfg)).expect("valid run")
    };
    let mut g = h.group("multirun");
    for (scheme, name) in [(Scheme::Ampom, "ampom"), (Scheme::NoPrefetch, "noprefetch")] {
        let cfg = RunConfig::new(scheme);
        let spec = MultiRunSpec::homogeneous(cfg.clone(), sweep(16_384), 1, 1);
        let one = run_multi(&spec).expect("valid multi-run");
        assert_eq!(
            one.reports[0].fingerprint(),
            solo(&cfg, &sweep(16_384), 1).fingerprint()
        );
        g.bench(&format!("solo_16k_{name}"), || {
            solo(&cfg, &sweep(16_384), 1).faults_total
        });
        g.bench(&format!("n1_16k_{name}"), || {
            run_multi(&spec).expect("valid multi-run").makespan
        });
    }
    for n in [4, 64] {
        let spec = MultiRunSpec::homogeneous(RunConfig::new(Scheme::Ampom), sweep(2_048), 1, n);
        g.bench(&format!("solo_2k_x{n}"), || {
            spec.migrants
                .iter()
                .map(|m| solo(&spec.cfg, &m.workload, m.seed).total_time)
                .max()
        });
        g.bench(&format!("n{n}_2k"), || {
            run_multi(&spec).expect("valid multi-run").makespan
        });
    }
    g.finish();
}

fn bench_fault_path(h: &mut Harness) {
    // Two interleaved sequential streams with a stray page: stride-2
    // chains, one d-link ending where the next starts at every step.
    let window: Vec<u64> = (0..20u64)
        .map(|i| {
            if i == 13 {
                77_777
            } else if i % 2 == 0 {
                1_000 + i / 2
            } else {
                5_000 + i / 2
            }
        })
        .collect();
    let mut reused = census(&[3, 4, 5], 1);
    census_into(&window, 4, &mut reused);
    assert_eq!(reused, census(&window, 4));
    let mut g = h.group("fault_path");
    g.bench("census_into_20", || {
        census_into(black_box(&window), 4, &mut reused);
        reused.outstanding.len()
    });

    let spec = WorkloadSpec::kernel(
        Kernel::RandomAccess,
        ProblemSize {
            problem: 0,
            memory_mb: 4,
        },
    );
    let cfg = RunConfig::new(Scheme::Ampom)
        .with_resident_limit_mb(2)
        .with_writeback(WritebackSpec::default())
        .with_seed(1);
    let run = || {
        let mut w = spec.build(1).expect("valid workload");
        try_run_workload(w.as_mut(), &cfg).expect("valid run")
    };
    let first = run();
    assert!(first.pages_evicted > 0 && first.writeback.batches_sent > 0);
    g.bench("scatter_random_access_4mb", || {
        let r = run();
        assert_eq!(r.fingerprint(), first.fingerprint());
        r.faults_total
    });

    // perfbench's sim-paper DGEMM cell at 1/16 size: tens of hits per
    // fault, so the per-reference path is most of what it times.
    let table1 = sizes_for(Kernel::Dgemm)[0];
    let spec = WorkloadSpec::kernel(
        Kernel::Dgemm,
        ProblemSize {
            memory_mb: table1.memory_mb / 16,
            ..table1
        },
    );
    let cfg = RunConfig::new(Scheme::Ampom).with_seed(1);
    let run = || {
        let mut w = spec.build(1).expect("valid workload");
        try_run_workload(w.as_mut(), &cfg).expect("valid run")
    };
    let first = run();
    let refs = spec.build(1).expect("valid workload").count() as u64;
    assert!(
        refs >= 30 * first.faults_total,
        "{refs} references for {} faults",
        first.faults_total
    );
    g.bench("paper_dgemm_1_16", || {
        let r = run();
        assert_eq!(r.fingerprint(), first.fingerprint());
        r.faults_total
    });
    g.finish();
}

fn bench_gossip(h: &mut Harness) {
    const NODES: usize = 300;
    const WINDOW: usize = 64;
    const MERGES: u64 = 1_000;
    let max_age = SimDuration::from_secs(8);
    // Merge `k` brings node `1 + k % 299` at time `k` ns. Each merge is
    // the freshest, so the window holds the last 64 merged nodes, and the
    // next node was last merged 299 merges ago: always absent, always
    // evicting.
    let merge = |view: &mut WindowView, k: u64| {
        let at = SimTime::from_nanos(k);
        let entry = LoadEntry {
            load: (k % 8) as f64,
            measured_at: at,
        };
        view.merge(1 + k as usize % (NODES - 1), entry, at, max_age)
    };
    let mut view = WindowView::new(0, WINDOW);
    let mut k = 0;
    while k < WINDOW as u64 {
        merge(&mut view, k);
        k += 1;
    }
    let mut g = h.group("gossip");
    let mut changed = 0u64;
    g.bench("merge_absent_into_full_64_x1000", || {
        for _ in 0..MERGES {
            changed += u64::from(merge(&mut view, black_box(k)));
            k += 1;
        }
    });
    assert_eq!(changed, k - WINDOW as u64, "every merge evicted");
    assert_eq!(view.known_peers(), WINDOW);

    let mut rng = SimRng::seed_from_u64(1);
    g.bench("plan_gossip_full_64", || {
        plan_gossip(black_box(&view), NODES, &mut rng)
    });

    let mut cfg = LifeConfig::standard(NODES, Scheme::Ampom);
    cfg.horizon = SimDuration::from_secs(60);
    let fingerprint = run_cluster_life(&cfg).fingerprint();
    g.bench("life_300_nodes_60s", || {
        let out = run_cluster_life(&cfg);
        assert_eq!(out.fingerprint(), fingerprint);
        out.completed
    });
    g.finish();
}

fn bench_rng(h: &mut Harness) {
    // One shuffle is a third of a microsecond, too short for one
    // `Instant` pair to resolve; a sample times a thousand of them and
    // reports the time of one.
    const SHUFFLES: u32 = 1_000;
    let mut rng = SimRng::seed_from_u64(1);
    let mut order: [u16; 64] = std::array::from_fn(|i| i as u16);
    let mut g = h.group("rng");
    g.bench_per("shuffle_64", SHUFFLES, || {
        for _ in 0..SHUFFLES {
            rng.shuffle(black_box(&mut order));
        }
        order[0]
    });
    g.finish();
}

/// XOR of the first 8 bytes of each 64-byte line of `bytes`: a check
/// on every line of a sample's output that reads one word in eight, so
/// it adds little to the time of writing the page.
fn digest(bytes: &[u8]) -> u64 {
    let lines = bytes.chunks_exact(64);
    let tail = lines.remainder().len() as u64;
    lines.fold(tail, |h, line| {
        h ^ u64::from_le_bytes(line[..8].try_into().expect("an 8-byte word"))
    })
}

fn bench_rpc_codec(h: &mut Harness) {
    const WRITEBACK_PAGES: usize = 26;
    let page_bytes = PAGE_SIZE as usize;
    let pages: Vec<PageId> = (0..MAX_BATCH_PAGES as u64)
        .map(|i| PageId(i * 7 + 3))
        .collect();
    let batch: Vec<(u64, PageId)> = pages.iter().map(|&p| (1, p)).collect();
    let entries: Vec<(PageId, u64)> = pages[..WRITEBACK_PAGES].iter().map(|&p| (p, 2)).collect();
    let reply = Frame::PageBatchReply {
        req_id: 1,
        pages: pages.iter().map(|&p| (p, page_payload(p).into())).collect(),
    }
    .encode();
    let writeback = Frame::WritebackBatch {
        seq: 5,
        pages: entries
            .iter()
            .map(|&(p, v)| (p, v, page_payload(p).into()))
            .collect(),
    }
    .encode();
    let contents: Vec<u8> = pages.iter().flat_map(|&p| page_payload(p)).collect();
    let mut g = h.group("rpc_codec");

    let mut data = vec![0u8; contents.len()];
    g.bench_per("payload_synthesis", MAX_BATCH_PAGES as u32, || {
        for (&page, out) in pages.iter().zip(data.chunks_exact_mut(page_bytes)) {
            page_payload_into(black_box(page), out);
        }
        assert_eq!(digest(&data), digest(&contents));
    });

    let mut wire = Vec::with_capacity(reply.len());
    g.bench_per("reply_batch_encode_64", MAX_BATCH_PAGES as u32, || {
        wire.clear();
        encode_page_batch_reply_into(black_box(&batch), &mut wire);
        assert_eq!(digest(&wire), digest(&reply));
    });

    g.bench_per("writeback_batch_encode_26", WRITEBACK_PAGES as u32, || {
        wire.clear();
        encode_writeback_batch_into(5, black_box(&entries), &mut wire);
        assert_eq!(digest(&wire), digest(&writeback));
    });

    let mut fb = FrameBuffer::new();
    g.bench_per("reply_decode_64", MAX_BATCH_PAGES as u32, || {
        fb.extend(black_box(&reply));
        let Some(Frame::PageBatchReply { pages: got, .. }) = fb.pop().expect("a valid frame")
        else {
            panic!("the encoder's own batch decodes to a batch reply");
        };
        let decoded = got.iter().fold(0, |h, (_, d)| h ^ digest(d));
        assert_eq!(decoded, digest(&contents));
    });

    let wb_contents = &contents[..WRITEBACK_PAGES * page_bytes];
    g.bench_per("writeback_decode_26", WRITEBACK_PAGES as u32, || {
        fb.extend(black_box(&writeback));
        let Some(Frame::WritebackBatch { seq: 5, pages: got }) = fb.pop().expect("a valid frame")
        else {
            panic!("the encoder's own batch decodes to writeback batch 5");
        };
        assert!(got
            .iter()
            .zip(&entries)
            .all(|((p, v, _), &(page, version))| *p == page && *v == version));
        let decoded = got.iter().fold(0, |h, (_, _, d)| h ^ digest(d));
        assert_eq!(decoded, digest(wb_contents));
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    bench_window_record(&mut h);
    bench_census(&mut h);
    bench_score_and_zone(&mut h);
    bench_full_analysis(&mut h);
    bench_paging(&mut h);
    bench_multirun(&mut h);
    bench_fault_path(&mut h);
    bench_gossip(&mut h);
    bench_rng(&mut h);
    bench_rpc_codec(&mut h);
    h.finish();
}
