//! Property tests of the stride census and the dependent-zone selection
//! against independent brute-force reference implementations.
//!
//! The census is the heart of the paper's analysis; a subtle off-by-one in
//! the minimum-distance or outstanding-stream rules would silently skew
//! every experiment. This suite re-derives the definitions from scratch in
//! the most literal (and least efficient) way possible and checks the
//! production implementation against it on random windows. The zone
//! selection is checked the same way against a per-page set: its runs,
//! flattened, must be the reference's pages in the reference's order.

use ampom_core::census::{census, census_into, Census, OutstandingStream};
use ampom_core::zone::{select_zone, select_zone_into, ZoneBuffers};
use ampom_mem::page::{PageId, PageRange};
use ampom_sim::propcheck::{forall, Gen};

/// Reference: for each position p (0-based), the minimal d ≥ 1 with
/// `pages[p + d] == pages[p] + 1`, capped at `dmax`.
fn reference_links(pages: &[u64], dmax: usize) -> Vec<(usize, usize, usize)> {
    let mut links = Vec::new();
    for p in 0..pages.len() {
        for d in 1..=dmax {
            if p + d >= pages.len() {
                break;
            }
            if pages[p + d] == pages[p] + 1 {
                links.push((p, p + d, d));
                break; // minimal distance only
            }
        }
    }
    links
}

/// Reference stride_d: distinct positions participating in minimal-d links.
fn reference_stride_counts(pages: &[u64], dmax: usize) -> Vec<u64> {
    let links = reference_links(pages, dmax);
    (1..=dmax)
        .map(|d| {
            let mut positions = std::collections::BTreeSet::new();
            for &(s, e, ld) in &links {
                if ld == d {
                    positions.insert(s);
                    positions.insert(e);
                }
            }
            positions.len() as u64
        })
        .collect()
}

/// Reference outstanding rule: 1-based (p + d) > l − d.
fn reference_outstanding(pages: &[u64], dmax: usize) -> Vec<u64> {
    let l = pages.len();
    reference_links(pages, dmax)
        .into_iter()
        .filter(|&(_, e, d)| (e + 1) + d > l) // e is 0-based, (e+1) is 1-based p+d
        .map(|(_, e, _)| pages[e] + 1)
        .collect()
}

/// Reference outstanding streams, in link order: each outstanding link's
/// closing page, distance and pivot.
fn reference_streams(pages: &[u64], dmax: usize) -> Vec<OutstandingStream> {
    let l = pages.len();
    reference_links(pages, dmax)
        .into_iter()
        .filter(|&(_, e, d)| (e + 1) + d > l)
        .map(|(_, e, d)| OutstandingStream {
            end_page: pages[e],
            d,
            pivot: pages[e] + 1,
        })
        .collect()
}

/// Small page universe to force collisions, stride chains and
/// duplicates; windows up to 24 entries (the paper uses 20).
fn random_window(g: &mut Gen) -> Vec<u64> {
    g.vec_u64(0..24, 0..40)
}

fn random_dmax(g: &mut Gen) -> usize {
    g.usize(1..6)
}

#[test]
fn stride_counts_match_reference() {
    forall("stride-counts", 512, |g| {
        let pages = random_window(g);
        let dmax = random_dmax(g);
        let got: Census = census(&pages, dmax);
        let want = reference_stride_counts(&pages, dmax);
        assert_eq!(got.stride_counts, want);
    });
}

#[test]
fn outstanding_pivots_match_reference() {
    forall("outstanding-pivots", 512, |g| {
        let pages = random_window(g);
        let dmax = random_dmax(g);
        let got = census(&pages, dmax);
        let mut got_pivots: Vec<u64> = got.outstanding.iter().map(|o| o.pivot).collect();
        let mut want = reference_outstanding(&pages, dmax);
        got_pivots.sort_unstable();
        want.sort_unstable();
        assert_eq!(got_pivots, want);
    });
}

#[test]
fn links_are_minimal_distance() {
    forall("minimal-links", 512, |g| {
        let pages = random_window(g);
        let dmax = random_dmax(g);
        let got = census(&pages, dmax);
        for link in &got.links {
            // The link target really is the successor page.
            assert_eq!(pages[link.end], pages[link.start] + 1);
            assert_eq!(link.d, link.end - link.start);
            // No closer occurrence of the successor exists.
            for between in (link.start + 1)..link.end {
                assert_ne!(pages[between], pages[link.start] + 1);
            }
        }
    });
}

#[test]
fn score_is_always_in_unit_interval() {
    forall("score-unit-interval", 512, |g| {
        let pages = random_window(g);
        let dmax = random_dmax(g);
        let got = census(&pages, dmax);
        let s = ampom_core::score::spatial_score(&got);
        assert!((0.0..=1.0).contains(&s));
    });
}

#[test]
fn sequential_windows_score_one() {
    forall("sequential-score-one", 256, |g| {
        let start = g.u64(0..1000);
        let len = g.usize(2..24);
        let pages: Vec<u64> = (start..start + len as u64).collect();
        let got = census(&pages, 4);
        let s = ampom_core::score::spatial_score(&got);
        assert!((s - 1.0).abs() < 1e-12);
        // Exactly one outstanding stream: the live run.
        assert_eq!(got.outstanding.len(), 1);
        assert_eq!(got.outstanding[0].pivot, start + len as u64);
    });
}

#[test]
fn reversed_sequential_scores_zero() {
    forall("reversed-score-zero", 256, |g| {
        let start = g.u64(100..1000);
        let len = g.usize(2..24);
        // Descending pages have no successor links at all.
        let pages: Vec<u64> = (start..start + len as u64).rev().collect();
        let got = census(&pages, 4);
        assert!(got.links.is_empty());
        assert_eq!(ampom_core::score::spatial_score(&got), 0.0);
    });
}

#[test]
fn census_is_translation_invariant() {
    forall("translation-invariant", 512, |g| {
        let pages = random_window(g);
        let offset = g.u64(0..100_000);
        let dmax = random_dmax(g);
        let shifted: Vec<u64> = pages.iter().map(|p| p + offset).collect();
        let a = census(&pages, dmax);
        let b = census(&shifted, dmax);
        assert_eq!(a.stride_counts, b.stride_counts);
        assert_eq!(a.links.len(), b.links.len());
        let pa: Vec<u64> = a.outstanding.iter().map(|o| o.pivot + offset).collect();
        let pb: Vec<u64> = b.outstanding.iter().map(|o| o.pivot).collect();
        assert_eq!(pa, pb);
    });
}

/// Reference zone selection: split the budget across the pivots, walk
/// each upward one page at a time, and skip every page already in a
/// per-page set of chosen pages.
fn reference_select_zone(
    outstanding: &[OutstandingStream],
    budget: u64,
    last_page: PageId,
    page_limit: PageId,
) -> Vec<PageId> {
    if budget == 0 {
        return Vec::new();
    }
    let valid = |p: u64| p < page_limit.index();
    let mut selected: Vec<PageId> = Vec::with_capacity(budget as usize);
    let mut chosen = std::collections::HashSet::new();

    if outstanding.is_empty() {
        // Read-ahead fallback: r_l + 1 … r_l + N.
        for i in 1..=budget {
            let p = last_page.index() + i;
            if valid(p) {
                selected.push(PageId(p));
            }
        }
        return selected;
    }

    let m = outstanding.len() as u64;
    let base_quota = budget / m;
    let remainder = budget % m;

    for (idx, stream) in outstanding.iter().enumerate() {
        // Earlier pivots absorb the division remainder, so the full budget
        // is always distributed.
        let mut quota = base_quota + u64::from((idx as u64) < remainder);
        let mut p = stream.pivot;
        // Extend past overlaps ("saved quota"), bounded by the address
        // space so degenerate inputs cannot loop forever.
        while quota > 0 && valid(p) {
            if chosen.insert(p) {
                selected.push(PageId(p));
                quota -= 1;
            }
            p += 1;
        }
    }
    selected
}

/// Checks the shape of `select_zone`'s runs — each non-empty, none
/// overlapping another, none ending past `page_limit` — and returns the
/// pages they cover in selection order.
fn flatten_runs(runs: &[PageRange], page_limit: PageId) -> Vec<PageId> {
    for (i, run) in runs.iter().enumerate() {
        assert!(!run.is_empty(), "empty run {run:?} in {runs:?}");
        assert!(run.end <= page_limit, "run {run:?} passes {page_limit:?}");
        for other in &runs[i + 1..] {
            assert!(
                run.end <= other.start || other.end <= run.start,
                "runs {run:?} and {other:?} overlap"
            );
        }
    }
    runs.iter().flat_map(PageRange::iter).collect()
}

/// Up to five streams whose pivots crowd a small page range around
/// `limit`: a quarter repeat an earlier pivot, and some start at or past
/// the end of the address space.
fn random_streams(g: &mut Gen, limit: u64) -> Vec<OutstandingStream> {
    let m = g.usize(0..6);
    let mut streams: Vec<OutstandingStream> = Vec::with_capacity(m);
    for _ in 0..m {
        let pivot = if !streams.is_empty() && g.bool(0.25) {
            g.choose(&streams).pivot
        } else {
            g.u64(1..limit + 8)
        };
        streams.push(OutstandingStream {
            end_page: pivot - 1,
            d: g.usize(1..5),
            pivot,
        });
    }
    streams
}

#[test]
fn select_zone_matches_reference_on_random_streams() {
    // Which edge cases the generator reached: duplicate pivots,
    // overlapping walks, a pivot at or past the limit, 0 < budget < m,
    // budget 0, no streams.
    let mut seen = [0u32; 6];
    forall("zone-random-streams", 1024, |g| {
        let limit = g.u64(1..160);
        let streams = random_streams(g, limit);
        let m = streams.len() as u64;
        let budget = match g.usize(0..4) {
            0 => 0,
            1 => g.u64(0..m + 1),
            _ => g.u64(0..2 * limit),
        };
        let last = PageId(g.u64(0..limit + 4));
        let got = flatten_runs(
            &select_zone(&streams, budget, last, PageId(limit)),
            PageId(limit),
        );
        let want = reference_select_zone(&streams, budget, last, PageId(limit));
        assert_eq!(
            got, want,
            "streams {streams:?} budget {budget} last {last:?} limit {limit}"
        );

        let pivots: Vec<u64> = streams.iter().map(|s| s.pivot).collect();
        let quota = budget / m.max(1);
        let pairs = || {
            pivots
                .iter()
                .enumerate()
                .flat_map(|(i, &a)| pivots[i + 1..].iter().map(move |&b| (a, b)))
        };
        seen[0] += u32::from(pairs().any(|(a, b)| a == b) && budget >= m);
        seen[1] += u32::from(pairs().any(|(a, b)| a != b && a.abs_diff(b) < quota));
        seen[2] += u32::from(budget > 0 && pivots.iter().any(|&p| p >= limit));
        seen[3] += u32::from(budget > 0 && budget < m);
        seen[4] += u32::from(budget == 0 && m > 0);
        seen[5] += u32::from(budget > 0 && m == 0);
    });
    assert!(
        seen.iter().all(|&n| n >= 10),
        "edge cases reached: {seen:?}"
    );
}

#[test]
fn select_zone_matches_reference_on_census_streams() {
    // Streams as the census emits them, two of which may close on the
    // same page.
    forall("zone-census-streams", 512, |g| {
        let pages = random_window(g);
        let c = census(&pages, random_dmax(g));
        let limit = PageId(g.u64(1..48));
        let budget = g.u64(0..64);
        let last = PageId(pages.last().copied().unwrap_or(0));
        assert_eq!(
            flatten_runs(&select_zone(&c.outstanding, budget, last, limit), limit),
            reference_select_zone(&c.outstanding, budget, last, limit)
        );
    });
}

#[test]
fn reused_storage_matches_reference_across_windows() {
    // One census and one zone buffer serve a run of windows whose
    // lengths rise and fall, as a prefetcher's do from fault to fault;
    // each result must match the reference as if computed afresh. Which
    // transitions the generator reached: a shorter window after a longer
    // one, fewer outstanding streams than the last window had, fewer
    // links, a smaller dmax, fewer zone runs.
    let mut seen = [0u32; 5];
    forall("reused-census-zone", 256, |g| {
        let mut c = Census::default();
        let mut zone = ZoneBuffers::default();
        // A small alphabet, so stride-d chains form.
        let alphabet = g.u64(3..24);
        let (mut prev_len, mut prev_dmax) = (0, 0);
        for _ in 0..g.usize(2..16) {
            let len = g.usize(2..41);
            let dmax = g.usize(1..7);
            let pages = g.vec_u64(len..len + 1, 0..alphabet);
            let (links_before, streams_before) = (c.links.len(), c.outstanding.len());
            let runs_before = zone.runs.len();
            census_into(&pages, dmax, &mut c);
            assert_eq!(c.l, len);
            assert_eq!(c.stride_counts, reference_stride_counts(&pages, dmax));
            let links: Vec<_> = c.links.iter().map(|k| (k.start, k.end, k.d)).collect();
            assert_eq!(links, reference_links(&pages, dmax), "window {pages:?}");
            assert_eq!(c.outstanding, reference_streams(&pages, dmax));

            let limit = PageId(g.u64(1..alphabet + 16));
            let budget = g.u64(0..64);
            let last = PageId(pages[len - 1]);
            select_zone_into(&c.outstanding, budget, last, limit, &mut zone);
            assert_eq!(
                flatten_runs(&zone.runs, limit),
                reference_select_zone(&c.outstanding, budget, last, limit)
            );

            seen[0] += u32::from(len < prev_len);
            seen[1] += u32::from(c.outstanding.len() < streams_before);
            seen[2] += u32::from(c.links.len() < links_before);
            seen[3] += u32::from(dmax < prev_dmax);
            seen[4] += u32::from(zone.runs.len() < runs_before);
            (prev_len, prev_dmax) = (len, dmax);
        }
    });
    assert!(
        seen.iter().all(|&n| n >= 10),
        "transitions reached: {seen:?}"
    );
}
