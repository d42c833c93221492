//! Golden-value tests for the paper's two central equations.
//!
//! Eq. 1 (the spatial locality score `S`) and Eq. 3 (the dependent-zone
//! size `N`) are checked against values worked out by hand — including
//! the paper's own §3.2 example — with the network terms taken from the
//! Fast Ethernet calibration the experiments use. Any change to the
//! formulas, the census, or the calibration constants moves these exact
//! numbers and fails loudly.

use ampom_core::census::census;
use ampom_core::score::spatial_score;
use ampom_core::zone::{dependent_zone_size, select_zone, ZoneSizeInputs};
use ampom_mem::page::PageId;
use ampom_net::calibration::{FAST_ETHERNET_GOODPUT, LAN_LATENCY, PAGE_SIZE, REPLY_HEADER_BYTES};
use ampom_sim::time::SimDuration;

const DMAX: usize = 4;

/// `td` for one 4 KB page on the calibrated Fast Ethernet link:
/// (4096 + 300) bytes at 11.2 MB/s = 392.5 µs exactly.
fn fast_ethernet_td() -> SimDuration {
    let ns = (PAGE_SIZE + REPLY_HEADER_BYTES) as f64 / FAST_ETHERNET_GOODPUT as f64 * 1e9;
    SimDuration::from_nanos(ns.round() as u64)
}

#[test]
fn eq1_paper_worked_example_is_exactly_one_quarter() {
    // §3.2: W = {10, 99, 11, 34, 12, 85}; pages 10, 11, 12 participate in
    // stride-2 links, so S = 3/(6·2) = 0.25.
    let c = census(&[10, 99, 11, 34, 12, 85], DMAX);
    assert_eq!(spatial_score(&c), 0.25);
}

#[test]
fn eq1_pure_sequential_is_exactly_one() {
    let pages: Vec<u64> = (1..=20).collect();
    assert_eq!(spatial_score(&census(&pages, DMAX)), 1.0);
}

#[test]
fn eq1_two_lane_interleave_is_exactly_one_half() {
    // Two interleaved sequential streams: every reference participates in
    // a stride-2 link, so S = 6/(6·2) = 0.5.
    let c = census(&[100, 200, 101, 201, 102, 202], DMAX);
    assert_eq!(spatial_score(&c), 0.5);
}

#[test]
fn eq1_seven_reference_example_is_four_fourteenths() {
    // {1,99,2,45,3,78,4}: references 1, 2, 3, 4 participate in stride-2
    // links → S = 4/(7·2).
    let c = census(&[1, 99, 2, 45, 3, 78, 4], DMAX);
    assert!((spatial_score(&c) - 4.0 / 14.0).abs() < 1e-15);
}

#[test]
fn eq1_random_window_is_exactly_zero() {
    let c = census(&[77, 3001, 12, 950, 444, 18, 7002], DMAX);
    assert_eq!(spatial_score(&c), 0.0);
}

#[test]
fn eq3_golden_value_on_fast_ethernet() {
    // S = 0.5, r = 20 000 faults/s, c'/c = 1 on the calibrated LAN:
    //   t = 2·120 µs + 392.5 µs + 50 µs = 682.5 µs
    //   N = 0.5 · 20 000 · 682.5e-6 = 6.825
    let inputs = ZoneSizeInputs {
        spatial_score: 0.5,
        paging_rate: 20_000.0,
        mean_cpu: 1.0,
        next_cpu: 1.0,
        t0: LAN_LATENCY,
        td: fast_ethernet_td(),
    };
    let n = dependent_zone_size(&inputs);
    assert!((n - 6.825).abs() < 1e-9, "N = {n}");
}

#[test]
fn eq3_cpu_ratio_scales_linearly() {
    // Halving the observed CPU share doubles N (c'/c term), exactly.
    let base = ZoneSizeInputs {
        spatial_score: 0.5,
        paging_rate: 20_000.0,
        mean_cpu: 1.0,
        next_cpu: 1.0,
        t0: LAN_LATENCY,
        td: fast_ethernet_td(),
    };
    let boosted = ZoneSizeInputs {
        mean_cpu: 0.5,
        ..base
    };
    let n0 = dependent_zone_size(&base);
    let n1 = dependent_zone_size(&boosted);
    assert!((n1 - 2.0 * n0).abs() < 1e-9);
}

#[test]
fn eq3_sequential_stream_on_lan_prefetches_a_handful() {
    // The headline behaviour the calibration is built around: a fully
    // sequential process (S = 1) faulting every 50 µs on the LAN wants
    // N = 1 · 20 000 · 682.5e-6 = 13.65 pages per analysis — a dependent
    // zone of roughly a dozen pages, matching Figure 8's LAN budgets.
    let inputs = ZoneSizeInputs {
        spatial_score: 1.0,
        paging_rate: 20_000.0,
        mean_cpu: 1.0,
        next_cpu: 1.0,
        t0: LAN_LATENCY,
        td: fast_ethernet_td(),
    };
    let n = dependent_zone_size(&inputs);
    assert!((n - 13.65).abs() < 1e-9, "N = {n}");
}

#[test]
fn zone_selection_golden_paper_pivots() {
    // §3.4's worked window: the outstanding streams pivot at 16, 5 and 6;
    // budget 3 gives each pivot exactly one page.
    let c = census(&[13, 27, 7, 8, 14, 8, 3, 15, 4, 5], DMAX);
    let zone = select_zone(&c.outstanding, 3, PageId(5), PageId(1_000));
    let mut got: Vec<u64> = zone.iter().flat_map(|run| run.as_indices()).collect();
    got.sort_unstable();
    assert_eq!(got, vec![5, 6, 16]);
}
