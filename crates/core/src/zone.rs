//! The dependent zone: how many pages (Eq. 3) and which pages (§3.4).
//!
//! **How many.** "N = (c'/c) · S · r · t  with  t = 2·t0 + td + 1/r" —
//! the zone must cover the process's page consumption for one prefetch
//! round trip plus one analysis interval, scaled by how clearly spatial
//! the access pattern is (`S`) and by the CPU share the process is about
//! to get (`c'/c`).
//!
//! **Which.** Each outstanding stride stream contributes a pivot
//! `r_{p+d} + 1`; every pivot receives `N/m` pages starting at the pivot.
//! "If a page is considered as a dependent page in multiple outstanding
//! streams, the 'saved quota' will be used to prefetch more subsequent
//! pages" — we keep extending past already-selected pages until the quota
//! of *new* pages is met. "If there is no outstanding stream found in W,
//! AMPoM would consider the N pages following the last referenced page
//! dependent, imitating the read ahead policy of the Linux virtual memory
//! manager."

use ampom_mem::page::{PageId, PageRange};
use ampom_sim::time::SimDuration;

use crate::census::OutstandingStream;

/// Inputs to Eq. 3.
#[derive(Debug, Clone, Copy)]
pub struct ZoneSizeInputs {
    /// Spatial locality score `S ∈ [0, 1]` (Eq. 1).
    pub spatial_score: f64,
    /// Paging rate `r = l/(T_l − T_1)`, faults per second.
    pub paging_rate: f64,
    /// Mean CPU utilisation over the window, `c`.
    pub mean_cpu: f64,
    /// Expected CPU utilisation next period, `c' = C_l`.
    pub next_cpu: f64,
    /// One-way network latency `t0`.
    pub t0: SimDuration,
    /// Single-page transfer time `td` at the currently available
    /// bandwidth.
    pub td: SimDuration,
}

/// Computes `N`, the number of dependent pages (Eq. 3). Returns a real
/// number; the prefetcher rounds and applies its floor/cap policy.
pub fn dependent_zone_size(inp: &ZoneSizeInputs) -> f64 {
    if inp.paging_rate <= 0.0 || !inp.paging_rate.is_finite() {
        return 0.0;
    }
    // c'/c: guard the degenerate all-idle window; a process that consumed
    // no CPU gets ratio 1 (no information either way).
    let cpu_ratio = if inp.mean_cpu > 1e-9 {
        inp.next_cpu / inp.mean_cpu
    } else {
        1.0
    };
    let t = 2.0 * inp.t0.as_secs_f64() + inp.td.as_secs_f64() + 1.0 / inp.paging_rate;
    (cpu_ratio * inp.spatial_score * inp.paging_rate * t).max(0.0)
}

/// Selects which pages form the dependent zone.
///
/// * `outstanding` — the live stride streams and their pivots,
/// * `budget` — total pages to select (the rounded, floored, capped `N`),
/// * `last_page` — `r_l`, used by the read-ahead fallback,
/// * `page_limit` — one past the last valid page of the address space
///   (zone pages beyond it are dropped).
///
/// Returns the selected pages as non-empty runs of consecutive pages, in
/// selection order: the read-ahead run, or each stream's gap runs.
/// Flattened, the runs are the selected pages in selection order,
/// duplicate-free. A run costs two page numbers however many pages it
/// covers, so nothing here is sized by `budget`.
///
/// **Dedup by walked ranges.** Each stream walks contiguously upward from
/// its pivot, so once stream `k` stops at page `e_k`, every page of
/// `[pivot_k, e_k)` is selected — by stream `k` or by an earlier one. The
/// selected set is therefore the union of at most `m` walked ranges: a
/// later stream that lands inside one skips to its end in one step and
/// emits the gap up to the next range as a single run.
pub fn select_zone(
    outstanding: &[OutstandingStream],
    budget: u64,
    last_page: PageId,
    page_limit: PageId,
) -> Vec<PageRange> {
    let mut buf = ZoneBuffers::default();
    select_zone_into(outstanding, budget, last_page, page_limit, &mut buf);
    buf.runs
}

/// The storage [`select_zone_into`] reuses from one analysis to the next.
#[derive(Debug, Clone, Default)]
pub struct ZoneBuffers {
    /// The runs of the last selection, as [`select_zone`] returns them.
    pub runs: Vec<PageRange>,
    /// `[start, end)` of each earlier stream's walk.
    walked: Vec<(u64, u64)>,
}

/// [`select_zone`] into `buf.runs`, reusing `buf`'s storage.
pub fn select_zone_into(
    outstanding: &[OutstandingStream],
    budget: u64,
    last_page: PageId,
    page_limit: PageId,
    buf: &mut ZoneBuffers,
) {
    let ZoneBuffers { runs, walked } = buf;
    runs.clear();
    walked.clear();
    if budget == 0 {
        return;
    }
    let limit = page_limit.index();

    if outstanding.is_empty() {
        // Read-ahead fallback: r_l + 1 … r_l + N.
        let first = last_page.index().saturating_add(1);
        let end = first.saturating_add(budget).min(limit);
        if first < end {
            runs.push(PageRange::new(PageId(first), PageId(end)));
        }
        return;
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
        while quota > 0 && p < limit {
            if let Some(&(_, end)) = walked.iter().find(|&&(s, e)| s <= p && p < e) {
                p = end;
                continue;
            }
            let next_walked = walked
                .iter()
                .map(|&(s, _)| s)
                .filter(|&s| s > p)
                .fold(limit, u64::min);
            let run_end = p.saturating_add(quota).min(next_walked);
            runs.push(PageRange::new(PageId(p), PageId(run_end)));
            quota -= run_end - p;
            p = run_end;
        }
        if p > stream.pivot {
            walked.push((stream.pivot, p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::census;

    /// The selected pages in selection order.
    fn pages(runs: &[PageRange]) -> Vec<PageId> {
        runs.iter().flat_map(PageRange::iter).collect()
    }

    fn inputs(s: f64, r: f64) -> ZoneSizeInputs {
        ZoneSizeInputs {
            spatial_score: s,
            paging_rate: r,
            mean_cpu: 1.0,
            next_cpu: 1.0,
            t0: SimDuration::from_micros(150),
            td: SimDuration::from_micros(366),
        }
    }

    #[test]
    fn eq3_matches_hand_computation() {
        // N = S·r·(2t0 + td + 1/r) with c'/c = 1.
        let n = dependent_zone_size(&inputs(0.5, 10_000.0));
        let t = 2.0 * 150e-6 + 366e-6 + 1.0 / 10_000.0;
        assert!((n - 0.5 * 10_000.0 * t).abs() < 1e-9);
    }

    #[test]
    fn zone_grows_with_each_factor() {
        let base = dependent_zone_size(&inputs(0.5, 10_000.0));
        assert!(dependent_zone_size(&inputs(1.0, 10_000.0)) > base);
        assert!(dependent_zone_size(&inputs(0.5, 40_000.0)) > base);
        let slow_net = ZoneSizeInputs {
            td: SimDuration::from_millis(5),
            ..inputs(0.5, 10_000.0)
        };
        assert!(dependent_zone_size(&slow_net) > base);
        let cpu_boost = ZoneSizeInputs {
            mean_cpu: 0.5,
            next_cpu: 1.0,
            ..inputs(0.5, 10_000.0)
        };
        assert!((dependent_zone_size(&cpu_boost) - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    fn zero_score_or_rate_gives_zero() {
        assert_eq!(dependent_zone_size(&inputs(0.0, 10_000.0)), 0.0);
        assert_eq!(dependent_zone_size(&inputs(0.5, 0.0)), 0.0);
        assert_eq!(dependent_zone_size(&inputs(0.5, f64::NAN)), 0.0);
    }

    #[test]
    fn fallback_reads_ahead_of_last_page() {
        let zone = pages(&select_zone(&[], 4, PageId(100), PageId(1_000)));
        assert_eq!(
            zone,
            vec![PageId(101), PageId(102), PageId(103), PageId(104)]
        );
    }

    #[test]
    fn fallback_respects_address_space_end() {
        let zone = pages(&select_zone(&[], 10, PageId(98), PageId(100)));
        assert_eq!(zone, vec![PageId(99)]);
    }

    #[test]
    fn quota_splits_across_pivots() {
        let c = census(&[100, 200, 101, 201, 102, 202], 4);
        let zone = pages(&select_zone(&c.outstanding, 6, PageId(202), PageId(10_000)));
        // Two pivots (103, 203), three pages each.
        assert_eq!(zone.len(), 6);
        assert!(zone.contains(&PageId(103)));
        assert!(zone.contains(&PageId(105)));
        assert!(zone.contains(&PageId(203)));
        assert!(zone.contains(&PageId(205)));
    }

    #[test]
    fn remainder_goes_to_earlier_pivots() {
        let c = census(&[100, 200, 101, 201, 102, 202], 4);
        let zone = pages(&select_zone(&c.outstanding, 5, PageId(202), PageId(10_000)));
        assert_eq!(zone.len(), 5);
        // First outstanding stream (ends earlier in the window) gets 3.
        let low: Vec<_> = zone.iter().filter(|p| p.index() < 200).collect();
        assert_eq!(low.len(), 3);
    }

    #[test]
    fn saved_quota_extends_past_overlaps() {
        // Two streams converging on the same pivot: the second stream's
        // quota is spent on pages beyond the overlap.
        use crate::census::OutstandingStream;
        let streams = [
            OutstandingStream {
                end_page: 9,
                d: 1,
                pivot: 10,
            },
            OutstandingStream {
                end_page: 9,
                d: 2,
                pivot: 10,
            },
        ];
        let zone = pages(&select_zone(&streams, 4, PageId(9), PageId(1_000)));
        assert_eq!(zone, vec![PageId(10), PageId(11), PageId(12), PageId(13)]);
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let c = census(&[1, 2, 3], 4);
        assert!(select_zone(&c.outstanding, 0, PageId(3), PageId(100)).is_empty());
    }

    #[test]
    fn a_run_costs_the_same_at_any_budget() {
        // A cap the validator accepts may exceed any address space; the
        // zone is still one run, not a budget-sized list.
        let runs = select_zone(&[], u64::MAX, PageId(5), PageId(u64::MAX));
        assert_eq!(runs, vec![PageRange::new(PageId(6), PageId(u64::MAX))]);
        let c = census(&[100, 200, 101, 201, 102, 202], 4);
        let runs = select_zone(&c.outstanding, u64::MAX, PageId(202), PageId(1 << 40));
        // The first pivot's quota reaches the end of the space, so the
        // second pivot lands inside its walk.
        assert_eq!(runs, vec![PageRange::new(PageId(103), PageId(1 << 40))]);
    }

    #[test]
    fn paper_example_pivots_drive_selection() {
        // §3.4's window: pivots 16, 5, 6 — with budget 3 each pivot gets
        // one page.
        let c = census(&[13, 27, 7, 8, 14, 8, 3, 15, 4, 5], 4);
        let zone = pages(&select_zone(&c.outstanding, 3, PageId(5), PageId(1_000)));
        let mut got: Vec<u64> = zone.iter().map(|p| p.index()).collect();
        got.sort();
        assert_eq!(got, vec![5, 6, 16]);
    }
}
