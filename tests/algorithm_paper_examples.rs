//! The paper's worked examples, fed through the *public* API end to end
//! (the crate-level unit tests check the same examples module by module;
//! these tests prove the exported surface composes the same way).

use ampom::core::census::census;
use ampom::core::prefetcher::{AmpomConfig, AmpomPrefetcher, NetEstimates};
use ampom::core::score::spatial_score;
use ampom::core::zone::select_zone;
use ampom::mem::PageId;
use ampom::sim::time::{SimDuration, SimTime};

#[test]
fn section_3_1_stride_example() {
    // "{1,99,2,45,3,78,4} contains three stride-2 references … stride_2 = 4"
    let c = census(&[1, 99, 2, 45, 3, 78, 4], 4);
    assert_eq!(c.stride_counts[1], 4);
}

#[test]
fn section_3_2_score_example() {
    // "{10,99,11,34,12,85} … S = stride_2/(6×2) = 0.25"
    let c = census(&[10, 99, 11, 34, 12, 85], 4);
    assert_eq!(c.stride_counts[1], 3);
    assert!((spatial_score(&c) - 0.25).abs() < 1e-12);
}

#[test]
fn section_3_2_sequential_scores_one() {
    let pages: Vec<u64> = (1..=20).collect();
    assert!((spatial_score(&census(&pages, 4)) - 1.0).abs() < 1e-12);
}

#[test]
fn section_3_4_outstanding_streams_and_pivots() {
    // l = 10, W = {13,27,7,8,14,8,3,15,4,5}: outstanding {14,15} stride-3,
    // {3,4} stride-2, {4,5} stride-1; pivots 16, 5, 6; {7,8} not counted.
    let c = census(&[13, 27, 7, 8, 14, 8, 3, 15, 4, 5], 4);
    let mut pivots: Vec<u64> = c.outstanding.iter().map(|o| o.pivot).collect();
    pivots.sort_unstable();
    assert_eq!(pivots, vec![5, 6, 16]);

    // With a budget of 6, each pivot gets N/m = 2 pages. The pivot-6
    // stream overlaps the pivot-5 stream's selection, so its saved quota
    // extends to pages 7 and 8 (the §3.4 "saved quota" rule).
    let zone = select_zone(&c.outstanding, 6, PageId(5), PageId(100_000));
    let mut got: Vec<u64> = zone.iter().flat_map(|run| run.as_indices()).collect();
    got.sort_unstable();
    assert_eq!(got, vec![5, 6, 7, 8, 16, 17]);
}

#[test]
fn full_prefetcher_reproduces_the_walkthrough() {
    // Drive the real prefetcher through the §3.4 window and check the
    // request it would send.
    let cfg = AmpomConfig {
        window_len: 10,
        dmax: 4,
        baseline_readahead: 3,
        max_zone: 512,
    };
    let mut pf = AmpomPrefetcher::new(cfg);
    let net = NetEstimates {
        t0: SimDuration::from_micros(120),
        td: SimDuration::from_micros(392),
    };
    let window = [13u64, 27, 7, 8, 14, 8, 3, 15, 4, 5];
    let mut decision = None;
    for (i, &p) in window.iter().enumerate() {
        decision = Some(pf.on_fault(
            PageId(p),
            SimTime::from_nanos((i as u64 + 1) * 100_000),
            1.0,
            net,
            PageId(1_000_000),
            |_| true,
        ));
    }
    let d = decision.unwrap();
    // Pivots 16 and 6 appear in the prefetch list; pivot 5 is the faulted
    // page itself, which the prefetcher excludes (the runner sends it as
    // the request's demand page instead).
    for pivot in [16u64, 6] {
        assert!(
            d.prefetch.contains(&PageId(pivot)),
            "pivot {pivot} missing from {:?}",
            d.prefetch
        );
    }
    assert!(!d.prefetch.contains(&PageId(5)));
    // The consecutive-duplicate rule collapsed nothing here (the repeated
    // 8 is non-adjacent), so the window is full at l = 10.
    assert!(pf.observation().window_full);
}
