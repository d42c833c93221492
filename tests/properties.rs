//! Cross-crate property-based tests: invariants that must hold for *any*
//! workload shape, checked with the in-tree propcheck harness over
//! randomized synthetic reference streams and randomized AMPoM
//! configurations.

use std::collections::HashSet;

use ampom::core::migration::Scheme;
use ampom::core::policy::{extend_by_word, Fetchable};
use ampom::core::prefetcher::{AmpomConfig, NetEstimates};
use ampom::core::runner::{run_workload, RunConfig};
use ampom::core::{PolicySpec, PrefetchFeedback, RunReport};
use ampom::mem::page::PageId;
use ampom::sim::propcheck::{forall, Gen};
use ampom::sim::rng::SimRng;
use ampom::sim::time::{SimDuration, SimTime};
use ampom::workloads::synthetic::{Interleaved, Scripted, Sequential, UniformRandom};
use ampom::workloads::Workload;

fn run_with(w: &mut dyn Workload, scheme: Scheme) -> RunReport {
    run_workload(w, &RunConfig::new(scheme))
}

/// A randomized scripted workload over up to 256 pages.
fn random_script(g: &mut Gen) -> (u64, Vec<u64>) {
    let pages = g.u64(16..257);
    let seq = g.vec_u64(1..400, 0..pages);
    (pages, seq)
}

#[test]
fn all_schemes_complete_any_scripted_workload() {
    forall("all-schemes-complete", 24, |g| {
        let (pages, seq) = random_script(g);
        for scheme in [
            Scheme::OpenMosix,
            Scheme::NoPrefetch,
            Scheme::Ampom,
            Scheme::Ffa,
        ] {
            let mut w = Scripted::new(pages, &seq, SimDuration::from_micros(5));
            let r = run_with(&mut w, scheme);
            assert!(r.total_time.as_nanos() > 0);
            assert!(r.total_time >= r.freeze_time);
        }
    });
}

#[test]
fn compute_time_matches_stream_cpu() {
    forall("compute-matches-cpu", 24, |g| {
        let (pages, seq) = random_script(g);
        let cpu = SimDuration::from_micros(5);
        let expected = cpu * seq.len() as u64;
        for scheme in [Scheme::OpenMosix, Scheme::Ampom] {
            let mut w = Scripted::new(pages, &seq, cpu);
            let r = run_with(&mut w, scheme);
            assert_eq!(r.compute_time, expected);
        }
    });
}

#[test]
fn ampom_never_requests_more_than_noprefetch() {
    forall("ampom-fewer-requests", 24, |g| {
        let (pages, seq) = random_script(g);
        let cpu = SimDuration::from_micros(5);
        let mut w = Scripted::new(pages, &seq, cpu);
        let ampom = run_with(&mut w, Scheme::Ampom);
        let mut w = Scripted::new(pages, &seq, cpu);
        let nopf = run_with(&mut w, Scheme::NoPrefetch);
        assert!(ampom.fault_requests <= nopf.fault_requests);
        // And NoPrefetch's demand count equals its distinct remote pages.
        assert_eq!(nopf.pages_demand_fetched, nopf.fault_requests);
    });
}

#[test]
fn page_conservation_under_ampom() {
    forall("page-conservation", 24, |g| {
        let (pages, seq) = random_script(g);
        let mut distinct: Vec<u64> = seq.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut w = Scripted::new(pages, &seq, SimDuration::from_micros(5));
        let r = run_with(&mut w, Scheme::Ampom);
        // Every distinct touched page was satisfied from exactly one of:
        // freeze pages (3), demand fetch, prefetch, or local allocation.
        assert!(
            r.pages_demand_fetched + r.prefetched_pages_used + r.pages_local_alloc + 3
                >= distinct.len() as u64
        );
        // Total fetched never exceeds the mapped footprint (the deputy
        // refuses to ship a page twice).
        assert!(r.pages_demand_fetched + r.pages_prefetched <= pages + 200 /* code+stack margin */);
    });
}

#[test]
fn openmosix_never_faults_remotely() {
    forall("openmosix-no-faults", 24, |g| {
        let (pages, seq) = random_script(g);
        let mut w = Scripted::new(pages, &seq, SimDuration::from_micros(5));
        let r = run_with(&mut w, Scheme::OpenMosix);
        assert_eq!(r.fault_requests, 0);
        assert_eq!(r.pages_prefetched, 0);
        assert_eq!(r.stall_time, SimDuration::ZERO);
    });
}

#[test]
fn random_ampom_configs_are_safe() {
    forall("random-configs-safe", 24, |g| {
        let window_len = g.usize(2..64);
        let dmax = g.usize(1..8);
        if dmax >= window_len {
            return; // equivalent of prop_assume!
        }
        let baseline = g.u64(0..64);
        let cap = g.u64(1..1024);
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.ampom = AmpomConfig {
            window_len,
            dmax,
            baseline_readahead: baseline.min(cap),
            max_zone: cap,
        };
        let mut w = Sequential::new(128, SimDuration::from_micros(5));
        let r = run_workload(&mut w, &cfg);
        assert!(r.total_time.as_nanos() > 0);
        // The cap bounds every batch: pages prefetched per request can
        // never exceed it.
        if r.fault_requests + r.prefetch_only_requests > 0 {
            let per_request =
                r.pages_prefetched as f64 / (r.fault_requests + r.prefetch_only_requests) as f64;
            assert!(per_request <= cap as f64 + 1e-9);
        }
    });
}

#[test]
fn deterministic_across_identical_runs() {
    forall("identical-runs", 24, |g| {
        let seed = g.u64(0..1000);
        let build = || {
            UniformRandom::new(
                64,
                256,
                SimDuration::from_micros(5),
                SimRng::seed_from_u64(seed),
            )
        };
        let a = run_with(&mut build(), Scheme::Ampom);
        let b = run_with(&mut build(), Scheme::Ampom);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.fault_requests, b.fault_requests);
        assert_eq!(a.pages_prefetched, b.pages_prefetched);
    });
}

#[test]
fn time_accounting_is_consistent() {
    forall("time-accounting", 24, |g| {
        let (pages, seq) = random_script(g);
        for scheme in [Scheme::OpenMosix, Scheme::NoPrefetch, Scheme::Ampom] {
            let mut w = Scripted::new(pages, &seq, SimDuration::from_micros(5));
            let r = run_with(&mut w, scheme);
            // The wall clock decomposes: nothing accounted can exceed it.
            assert!(r.compute_time <= r.total_time);
            assert!(r.stall_time <= r.total_time);
            assert!(r.freeze_time <= r.total_time);
            assert!(r.analysis_time <= r.total_time);
            let accounted = r.freeze_time + r.compute_time + r.stall_time + r.analysis_time;
            // Stall/compute/freeze/analysis never overlap, so their sum is
            // bounded by the total (the remainder is per-page kernel work).
            assert!(accounted <= r.total_time);
        }
    });
}

#[test]
fn bytes_accounting_covers_fetched_pages() {
    forall("bytes-accounting", 24, |g| {
        let (pages, seq) = random_script(g);
        let mut w = Scripted::new(pages, &seq, SimDuration::from_micros(5));
        let r = run_with(&mut w, Scheme::Ampom);
        // Every fetched page crossed the wire with at least PAGE_SIZE bytes.
        let fetched = r.pages_demand_fetched + r.pages_prefetched;
        assert!(r.bytes_to_dest >= fetched * 4096);
        // Requests flowed the other way.
        if r.fault_requests + r.prefetch_only_requests > 0 {
            assert!(r.bytes_from_dest > 0);
        }
    });
}

#[test]
fn pressure_never_exceeds_the_resident_limit() {
    forall("resident-limit", 24, |g| {
        let (pages, seq) = random_script(g);
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.resident_limit_mb = Some(1); // 256 pages
        let mut w = Scripted::new(pages, &seq, SimDuration::from_micros(5));
        let r = run_workload(&mut w, &cfg);
        assert!(r.total_time.as_nanos() > 0);
        // The run completes and evictions (if any) are all accounted as
        // write-back traffic on the request link.
        if r.pages_evicted > 0 {
            assert!(r.bytes_from_dest >= r.pages_evicted * 4096);
        }
    });
}

/// Golden fingerprint of a 512-page sequential sweep under
/// `Scheme::Ampom` with every default, captured before the `Prefetcher`
/// trait existed (when the run loops called [`AmpomPrefetcher`]
/// directly). The trait-object default path must stay bit-identical.
const GOLD_SEQ512_AMPOM: u64 = 0xef7c94edaf2703bf;

#[test]
fn trait_object_default_policy_matches_the_pre_refactor_fingerprint() {
    let cpu = SimDuration::from_micros(10);
    let baseline = run_workload(
        &mut Sequential::new(512, cpu),
        &RunConfig::new(Scheme::Ampom),
    );
    assert_eq!(
        baseline.fingerprint(),
        GOLD_SEQ512_AMPOM,
        "the Box<dyn Prefetcher> default path drifted from the pre-trait engine"
    );
    // Asking for the default policy explicitly is the same run.
    let explicit = run_workload(
        &mut Sequential::new(512, cpu),
        &RunConfig::new(Scheme::Ampom).with_policy(PolicySpec::Ampom),
    );
    assert_eq!(explicit.fingerprint(), GOLD_SEQ512_AMPOM);
}

/// How the conservation check answers a policy's zone query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Query {
    /// A per-page closure over the requested set; the faulted page is
    /// marked requested before the analysis.
    Closure,
    /// Two page bitsets read a word at a time, as the forward loop's
    /// zone filter reads them; the faulted page is still remote and not
    /// in flight while the analysis runs.
    Bitsets,
}

/// Remote and in-flight page bitsets answering the zone query 64 pages
/// per word.
struct PageBits {
    remote: Vec<u64>,
    in_flight: Vec<u64>,
}

impl PageBits {
    /// Every page of a `pages`-page space remote, none in flight.
    fn all_remote(pages: u64) -> Self {
        let words = pages.div_ceil(64) as usize;
        let mut remote = vec![u64::MAX; words];
        let tail = pages % 64;
        if tail != 0 {
            remote[words - 1] = u64::MAX >> (64 - tail);
        }
        PageBits {
            remote,
            in_flight: vec![0; words],
        }
    }

    fn request(&mut self, page: PageId) {
        self.in_flight[(page.0 / 64) as usize] |= 1 << (page.0 % 64);
    }

    fn install(&mut self, page: PageId) {
        let (word, bit) = ((page.0 / 64) as usize, 1u64 << (page.0 % 64));
        self.in_flight[word] &= !bit;
        self.remote[word] &= !bit;
    }
}

impl Fetchable for PageBits {
    fn extend_fetchable(&mut self, start: PageId, end: PageId, out: &mut Vec<PageId>) {
        extend_by_word(start, end, out, |word, run| {
            let w = word as usize;
            run & self.remote[w] & !self.in_flight[w]
        });
    }
}

/// Drives one boxed policy through a generated fault stream while
/// mirroring the runner's bookkeeping: the fetchable query rejects
/// resident and in-flight pages, every page a decision requests
/// immediately becomes in-flight, and one prefetch list serves every
/// fault.
fn check_policy_conservation(g: &mut Gen, spec: &PolicySpec, query: Query) {
    let mut pf = spec.build(&AmpomConfig::default());
    let page_limit = PageId(g.u64(64..4096));
    let faults = g.usize(10..80);
    let stride = g.u64(1..4);
    let mut resident: HashSet<u64> = HashSet::new();
    let mut bits = PageBits::all_remote(page_limit.0);
    let mut flying: Vec<PageId> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut cursor = g.u64(0..page_limit.0);
    let mut prefetched: u64 = 0;
    let mut used: u64 = 0;
    let mut prefetch = Vec::new();

    for _ in 0..faults {
        // Mostly strided so trend detectors engage, with random jumps
        // mixed in so back-off paths run too.
        let page = if g.bool(0.7) {
            cursor = (cursor + stride) % page_limit.0;
            PageId(cursor)
        } else {
            cursor = g.u64(0..page_limit.0);
            PageId(cursor)
        };
        now += SimDuration::from_micros(g.u64(5..500));
        let net = NetEstimates {
            t0: SimDuration::from_micros(g.u64(20..400)),
            td: SimDuration::from_micros(g.u64(2..60)),
        };

        // The runner feeds monotone cumulative outcome counters before
        // each analysis; model a plausible hit ratio.
        used += g.u64(0..prefetched.saturating_sub(used) + 1);
        pf.note_outcome(PrefetchFeedback {
            pages_prefetched: prefetched,
            prefetched_used: used,
        });

        let cpu = g.unit_f64();
        let d = match query {
            Query::Closure => {
                // The faulted page is being demand-fetched: not fetchable.
                resident.insert(page.0);
                let fetchable = &mut |p: PageId| !resident.contains(&p.0);
                pf.on_fault(page, now, cpu, net, page_limit, fetchable, &mut prefetch)
            }
            Query::Bitsets => {
                // Some earlier requests arrive; then the fault is
                // analysed before its own demand request goes out.
                let arrived = g.usize(0..flying.len() + 1);
                for p in flying.drain(..arrived) {
                    bits.install(p);
                }
                let d = pf.on_fault(page, now, cpu, net, page_limit, &mut bits, &mut prefetch);
                if resident.insert(page.0) {
                    bits.request(page);
                    flying.push(page);
                }
                d
            }
        };

        let mut this_decision: HashSet<u64> = HashSet::new();
        for p in &prefetch {
            assert!(p.0 < page_limit.0, "{}: out-of-space page", spec.label());
            assert_ne!(*p, page, "{}: requested the faulted page", spec.label());
            assert!(
                !resident.contains(&p.0),
                "{}: requested resident/pending page {}",
                spec.label(),
                p.0
            );
            assert!(
                this_decision.insert(p.0),
                "{}: duplicate page {} in one decision",
                spec.label(),
                p.0
            );
            resident.insert(p.0);
            bits.request(*p);
            flying.push(*p);
        }
        prefetched += prefetch.len() as u64;
        assert!(prefetch.len() as u64 <= d.budget.max(1));
    }
    // The observation snapshot agrees with what the stream drove.
    let obs = pf.observe();
    assert_eq!(obs.policy, spec.label());
    assert_eq!(obs.stats.analyses, faults as u64);
    assert_eq!(obs.stats.pages_selected, prefetched);
}

#[test]
fn no_policy_requests_a_resident_or_pending_page() {
    forall("policy-conservation", 24, |g| {
        for spec in PolicySpec::all() {
            check_policy_conservation(g, &spec, Query::Closure);
        }
    });
}

#[test]
fn no_policy_requests_a_resident_or_pending_page_from_bitsets() {
    forall("policy-conservation-bitsets", 24, |g| {
        for spec in PolicySpec::all() {
            check_policy_conservation(g, &spec, Query::Bitsets);
        }
    });
}

#[test]
fn every_policy_completes_any_scripted_workload() {
    forall("policies-complete", 16, |g| {
        let (pages, seq) = random_script(g);
        let cpu = SimDuration::from_micros(5);
        let mut totals = Vec::new();
        for spec in PolicySpec::all() {
            let mut w = Scripted::new(pages, &seq, cpu);
            let cfg = RunConfig::new(Scheme::Ampom).with_policy(spec);
            let r = run_workload(&mut w, &cfg);
            assert!(r.total_time.as_nanos() > 0);
            assert_eq!(r.compute_time, cpu * seq.len() as u64);
            // Prefetching never loses pages: everything the migrant
            // touched arrived via freeze, demand, prefetch or local alloc.
            let mut distinct: Vec<u64> = seq.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                r.pages_demand_fetched + r.prefetched_pages_used + r.pages_local_alloc + 3
                    >= distinct.len() as u64
            );
            totals.push(r.total_time);
        }
        // All policies saw the identical reference stream, so compute
        // time is shared even though totals differ.
        assert_eq!(totals.len(), PolicySpec::all().len());
    });
}

#[test]
fn interleaved_streams_always_get_prefetched() {
    forall("interleaved-prefetch", 24, |g| {
        let lanes = g.u64(2..6);
        let lane_pages = g.u64(20..60);
        let mut w = Interleaved::new(lanes, lane_pages, SimDuration::from_micros(5));
        let r = run_with(&mut w, Scheme::Ampom);
        assert!(r.pages_prefetched > 0);
        // Interleaved sequential lanes are the best case: the vast
        // majority of fault requests are avoided.
        let mut w = Interleaved::new(lanes, lane_pages, SimDuration::from_micros(5));
        let nopf = run_with(&mut w, Scheme::NoPrefetch);
        assert!(r.fault_requests * 2 < nopf.fault_requests);
    });
}
