//! Stride census over the lookback window (paper §3.1–§3.2, §3.4).
//!
//! Definitions implemented here, verbatim from the paper:
//!
//! * "a **stride** of a page reference r_p is defined as the minimum
//!   absolute distance d in W between the references to r_p and r_p+1" —
//!   for each window position `p`, we find the *nearest* later position
//!   holding the page value `r_p + 1`; that distance is the link's `d`.
//! * "**stride_d** is defined as the total number of page references in W
//!   which exhibit stride-d references" — we count the distinct window
//!   positions participating (as either endpoint) in minimal-distance-`d`
//!   links. The paper's example `{1,99,2,45,3,78,4}` gives `stride_2 = 4`
//!   (pages 1, 2, 3, 4), which this implementation reproduces exactly.
//! * "an **outstanding** stride-d stream is a reference stream
//!   S_d = r_p … r_{p+d} … where (p + d) > l − d" — the stream's closing
//!   reference lies within the last `d` slots of the window, so the
//!   pattern is still live. "In such an outstanding stream, the prefetch
//!   pivot is r_{p+d} + 1."
//!
//! Only strides `1 ≤ d ≤ dmax` are analysed ("AMPoM analyzes only up to
//! stride-dmax references in W"; the implementation uses `dmax = 4`).

/// One minimal-distance stride link `r_p → r_{p+d} = r_p + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideLink {
    /// Window position of `r_p` (0-based).
    pub start: usize,
    /// Window position of `r_{p+d}` (0-based).
    pub end: usize,
    /// The stride distance `d = end − start`.
    pub d: usize,
}

/// An outstanding stride stream and its prefetch pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutstandingStream {
    /// The closing page `r_{p+d}` of the stream.
    pub end_page: u64,
    /// The stream's stride distance.
    pub d: usize,
    /// The prefetch pivot `r_{p+d} + 1`.
    pub pivot: u64,
}

/// The full result of one window analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Census {
    /// `stride_d` for `d = 1..=dmax` (index 0 holds `stride_1`).
    pub stride_counts: Vec<u64>,
    /// Every minimal-distance link with `d ≤ dmax`.
    pub links: Vec<StrideLink>,
    /// Outstanding streams, in window order of their closing reference.
    pub outstanding: Vec<OutstandingStream>,
    /// Window length `l` the census was computed over.
    pub l: usize,
}

/// Runs the stride census over the window contents (`pages[0]` is `r_1`,
/// the oldest reference).
pub fn census(pages: &[u64], dmax: usize) -> Census {
    let mut out = Census::default();
    census_into(pages, dmax, &mut out);
    out
}

/// [`census`] into `out`, reusing its storage: every field is overwritten,
/// so one `Census` can serve a run's every analysis.
pub fn census_into(pages: &[u64], dmax: usize, out: &mut Census) {
    assert!(dmax >= 1, "dmax must be at least 1");
    let l = pages.len();
    out.l = l;
    out.stride_counts.clear();
    out.stride_counts.resize(dmax, 0);
    out.links.clear();
    out.outstanding.clear();
    // For each position p, the minimal d with pages[p + d] == pages[p] + 1.
    // The "minimum absolute distance" makes intervening occurrences
    // impossible by construction (we take the first hit).
    for p in 0..l {
        let target = pages[p] + 1;
        for d in 1..=dmax.min(l.saturating_sub(p + 1)) {
            if pages[p + d] == target {
                // stride_d: distinct positions participating in minimal-d
                // links. A position starts at most one link and ends at
                // most one of each d, so a d-link adds both its ends,
                // except p when p also ends one: the link from p − d.
                let chained = out
                    .links
                    .iter()
                    .rev()
                    .take_while(|k| k.start + d >= p)
                    .any(|k| k.start + d == p && k.d == d);
                out.stride_counts[d - 1] += if chained { 1 } else { 2 };
                out.links.push(StrideLink {
                    start: p,
                    end: p + d,
                    d,
                });
                break;
            }
        }
    }

    // Outstanding: (p + d) > l − d with 1-based positions; in 0-based
    // terms, end > l − d − 1, i.e. end ≥ l − d.
    let outstanding = out
        .links
        .iter()
        .filter(|k| k.end + k.d >= l)
        .map(|k| OutstandingStream {
            end_page: pages[k.end],
            d: k.d,
            pivot: pages[k.end] + 1,
        });
    out.outstanding.extend(outstanding);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_stride2_equals_4() {
        // §3.1: "{1,99,2,45,3,78,4} contains three stride-2 references …
        // stride_2 = 4 because there are four pages (1,2,3,4) accessed in a
        // stride-2 pattern."
        let c = census(&[1, 99, 2, 45, 3, 78, 4], 4);
        assert_eq!(c.stride_counts[1], 4);
        assert_eq!(c.stride_counts[0], 0);
        assert_eq!(c.stride_counts[2], 0);
        assert_eq!(c.stride_counts[3], 0);
    }

    #[test]
    fn paper_example_interleaved_stride2_equals_3() {
        // §3.2: "{10,99,11,34,12,85} only has one stride-2 reference stream
        // {10,11,12} (3 pages), therefore stride_2 = 3".
        let c = census(&[10, 99, 11, 34, 12, 85], 4);
        assert_eq!(c.stride_counts[1], 3);
        assert_eq!(c.stride_counts[0], 0);
    }

    #[test]
    fn paper_example_outstanding_streams_and_pivots() {
        // §3.4: l = 10, W = {13,27,7,8,14,8,3,15,4,5}: outstanding streams
        // {14,15} (stride-3), {3,4} (stride-2), {4,5} (stride-1); pivots
        // 16, 5, 6. {7,8} is not outstanding.
        let c = census(&[13, 27, 7, 8, 14, 8, 3, 15, 4, 5], 4);
        let mut pivots: Vec<(u64, usize)> = c.outstanding.iter().map(|o| (o.pivot, o.d)).collect();
        pivots.sort();
        assert_eq!(pivots, vec![(5, 2), (6, 1), (16, 3)]);
        // The {7,8} stride-1 link exists but is not outstanding.
        assert!(c
            .links
            .iter()
            .any(|k| k.d == 1 && k.start == 2 && k.end == 3));
        assert!(!c.outstanding.iter().any(|o| o.pivot == 9));
    }

    #[test]
    fn sequential_window_is_all_stride1() {
        let pages: Vec<u64> = (100..120).collect();
        let c = census(&pages, 4);
        assert_eq!(c.stride_counts[0], 20);
        // Exactly one outstanding stream: the live sequential run.
        assert_eq!(c.outstanding.len(), 1);
        assert_eq!(c.outstanding[0].pivot, 120);
        assert_eq!(c.outstanding[0].d, 1);
    }

    #[test]
    fn minimal_distance_wins() {
        // Page 5 at positions 0 and 2; page 6 at position 3. The position-2
        // occurrence links at d=1; position-0 links at d=3 (both minimal
        // for their starting position).
        let c = census(&[5, 7, 5, 6], 4);
        let ds: Vec<usize> = c.links.iter().map(|k| k.d).collect();
        assert!(ds.contains(&1));
        assert!(ds.contains(&3));
        assert_eq!(c.stride_counts[0], 2); // positions 2 and 3
        assert_eq!(c.stride_counts[2], 2); // positions 0 and 3
    }

    #[test]
    fn dmax_truncates_long_strides() {
        // 1 → 2 at distance 5 is invisible with dmax = 4.
        let c = census(&[1, 50, 60, 70, 80, 2], 4);
        assert!(c.links.is_empty());
        assert!(c.outstanding.is_empty());
    }

    #[test]
    fn random_window_has_no_links() {
        let c = census(&[900, 14, 371, 6002, 77, 2345], 4);
        assert!(c.links.is_empty());
        assert_eq!(c.stride_counts, vec![0, 0, 0, 0]);
    }

    #[test]
    fn empty_and_single_windows() {
        assert!(census(&[], 4).links.is_empty());
        assert!(census(&[5], 4).links.is_empty());
    }

    #[test]
    fn interleaved_two_streams_have_two_outstanding_pivots() {
        // Two interleaved sequential streams, both live at the tail.
        let c = census(&[100, 200, 101, 201, 102, 202], 4);
        let mut pivots: Vec<u64> = c.outstanding.iter().map(|o| o.pivot).collect();
        pivots.sort();
        assert_eq!(pivots, vec![103, 203]);
    }

    #[test]
    #[should_panic(expected = "dmax")]
    fn zero_dmax_rejected() {
        let _ = census(&[1, 2], 0);
    }
}
