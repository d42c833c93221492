//! The lookback window `W` (paper §3.1).
//!
//! "The analysis is based on a stream of addresses of recently-accessed
//! memory pages recorded in a fixed-size lookback window W of length l.
//! … When a page fault occurs while the lookback window is full, the first
//! element will be discarded, all other elements will be shifted left, and
//! the address of the newly accessed page will be appended as the new r_l.
//! In addition … AMPoM maintains two other arrays, T and C. T contains the
//! access time of each page recorded in W … C_i is the current CPU
//! utilization when r_i is recorded."
//!
//! The paper's temporal-locality rule — "we consider consecutive, repeated
//! references to the same page a form of temporal locality, therefore they
//! are counted as a single page reference (r_p ≠ r_{p+1})" — is enforced
//! here: recording the same page as the newest entry again is a no-op.

use std::collections::VecDeque;

use ampom_mem::page::PageId;
use ampom_sim::time::SimTime;

/// One window entry: `(r_i, T_i, C_i)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    /// The faulted page (`r_i`).
    pub page: PageId,
    /// When the fault occurred (`T_i`).
    pub time: SimTime,
    /// CPU utilisation of the process when the fault occurred (`C_i`),
    /// in `[0, 1]`.
    pub cpu_util: f64,
}

/// The fixed-size lookback window with its `T` and `C` side arrays.
#[derive(Debug, Clone)]
pub struct LookbackWindow {
    entries: VecDeque<FaultRecord>,
    capacity: usize,
    /// Number of times the window has completely turned over — the
    /// "looped once" clock the bandwidth estimator samples on (paper §4).
    wraps: u64,
    since_wrap: usize,
}

impl LookbackWindow {
    /// The paper's implementation value: "we maintain a lookback window of
    /// length 20" (§4).
    pub const PAPER_LENGTH: usize = 20;

    /// Creates a window of length `l`.
    ///
    /// # Panics
    /// Panics if `l < 2` — stride analysis needs at least two entries.
    pub fn new(l: usize) -> Self {
        assert!(l >= 2, "lookback window needs l >= 2");
        LookbackWindow {
            entries: VecDeque::with_capacity(l),
            capacity: l,
            wraps: 0,
            since_wrap: 0,
        }
    }

    /// The configured length `l`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of recorded references (≤ `l`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True once the window holds `l` entries — Eq. 3's paging rate is
    /// meaningful only then.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Records a fault. Returns `true` if the window changed (`false` for
    /// a consecutive repeat of the newest page, per the temporal-locality
    /// rule).
    pub fn record(&mut self, page: PageId, time: SimTime, cpu_util: f64) -> bool {
        if let Some(last) = self.entries.back() {
            if last.page == page {
                return false;
            }
            debug_assert!(time >= last.time, "faults must be time-ordered");
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(FaultRecord {
            page,
            time,
            cpu_util: cpu_util.clamp(0.0, 1.0),
        });
        self.since_wrap += 1;
        if self.since_wrap >= self.capacity {
            self.since_wrap = 0;
            self.wraps += 1;
        }
        true
    }

    /// The recorded pages `r_1 … r_l`, oldest first.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.entries.iter().map(|e| e.page)
    }

    /// Raw page indices, oldest first (the census operates on these).
    pub fn page_indices(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.page.index()).collect()
    }

    /// [`Self::page_indices`] into `out`, reusing its storage.
    pub fn page_indices_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.entries.iter().map(|e| e.page.index()));
    }

    /// The newest entry `r_l`, if any.
    pub fn newest(&self) -> Option<&FaultRecord> {
        self.entries.back()
    }

    /// The oldest entry `r_1`, if any.
    pub fn oldest(&self) -> Option<&FaultRecord> {
        self.entries.front()
    }

    /// The paging rate `r = l / (T_l − T_1)` in faults per second, or
    /// `None` if the window is not full or spans zero time.
    pub fn paging_rate(&self) -> Option<f64> {
        if !self.is_full() {
            return None;
        }
        let span = self.newest()?.time.since(self.oldest()?.time).as_secs_f64();
        (span > 0.0).then(|| self.capacity as f64 / span)
    }

    /// Mean CPU utilisation over the window: `c = Σ C_i / l`.
    pub fn mean_cpu_util(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().map(|e| e.cpu_util).sum::<f64>() / self.entries.len() as f64
    }

    /// The expected CPU share for the next period: `c' = C_l`.
    pub fn latest_cpu_util(&self) -> f64 {
        self.entries.back().map_or(0.0, |e| e.cpu_util)
    }

    /// How many times the window has fully turned over.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_sim::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn fills_then_slides() {
        let mut w = LookbackWindow::new(3);
        for i in 0..3 {
            assert!(w.record(PageId(i), t(i), 1.0));
        }
        assert!(w.is_full());
        assert_eq!(w.page_indices(), vec![0, 1, 2]);
        w.record(PageId(9), t(10), 1.0);
        assert_eq!(w.page_indices(), vec![1, 2, 9]);
        assert_eq!(w.len(), 3);
        let mut reused = vec![7; 5];
        w.page_indices_into(&mut reused);
        assert_eq!(reused, w.page_indices());
    }

    #[test]
    fn consecutive_duplicates_collapse() {
        let mut w = LookbackWindow::new(5);
        assert!(w.record(PageId(7), t(0), 1.0));
        assert!(!w.record(PageId(7), t(1), 1.0));
        assert_eq!(w.len(), 1);
        // Non-consecutive repeats are kept.
        assert!(w.record(PageId(8), t(2), 1.0));
        assert!(w.record(PageId(7), t(3), 1.0));
        assert_eq!(w.page_indices(), vec![7, 8, 7]);
    }

    #[test]
    fn paging_rate_is_l_over_span() {
        let mut w = LookbackWindow::new(4);
        for i in 0..4u64 {
            w.record(PageId(i), t(i * 100), 1.0);
        }
        // l=4 over 300 µs.
        let r = w.paging_rate().unwrap();
        assert!((r - 4.0 / 300e-6).abs() < 1e-6);
    }

    #[test]
    fn paging_rate_none_until_full_or_zero_span() {
        let mut w = LookbackWindow::new(3);
        w.record(PageId(0), t(0), 1.0);
        w.record(PageId(1), t(0), 1.0);
        assert_eq!(w.paging_rate(), None); // not full
        w.record(PageId(2), t(0), 1.0);
        assert_eq!(w.paging_rate(), None); // zero span
    }

    #[test]
    fn cpu_terms() {
        let mut w = LookbackWindow::new(3);
        w.record(PageId(0), t(0), 0.2);
        w.record(PageId(1), t(1), 0.4);
        w.record(PageId(2), t(2), 0.9);
        assert!((w.mean_cpu_util() - 0.5).abs() < 1e-12);
        assert!((w.latest_cpu_util() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn cpu_util_clamped() {
        let mut w = LookbackWindow::new(2);
        w.record(PageId(0), t(0), 7.0);
        assert_eq!(w.latest_cpu_util(), 1.0);
        w.record(PageId(1), t(1), -3.0);
        assert_eq!(w.latest_cpu_util(), 0.0);
    }

    #[test]
    fn wrap_counter_ticks_every_l_records() {
        let mut w = LookbackWindow::new(3);
        for i in 0..9u64 {
            w.record(PageId(i), t(i), 1.0);
        }
        assert_eq!(w.wraps(), 3);
    }

    #[test]
    #[should_panic(expected = "l >= 2")]
    fn tiny_window_rejected() {
        let _ = LookbackWindow::new(1);
    }
}
