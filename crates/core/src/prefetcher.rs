//! The AMPoM prefetcher — Algorithm 1 of the paper.
//!
//! ```text
//! foreach page fault i do
//!     if pages prefetched last time have arrived then
//!         copy these pages to the migrant's address space;
//!     record i in the lookback window;
//!     calculate the current spatial locality score;
//!     calculate the number of pages in the dependent zone;
//!     identify which pages are in the dependent zone;
//!     foreach page j in the dependent zone do
//!         if j is not stored locally then record j in the remote paging request;
//!     send out the recorded paging request to the original node;
//!     wait for i to arrive if it is not available locally;
//! ```
//!
//! The copy/wait steps are the runner's job (they need the clock and the
//! network); this module owns the *analysis*: window bookkeeping, census,
//! score, zone sizing and page selection, plus the paper's baseline
//! read-ahead behaviour (§5.3: even when no pattern is developed, AMPoM
//! "resembles the characteristics of a fixed-size read-ahead policy …
//! which serves as a 'baseline' of prefetching aggressiveness").

use ampom_mem::page::PageId;
use ampom_sim::stats::OnlineStats;
use ampom_sim::time::{SimDuration, SimTime};

use crate::census::{census_into, Census};
use crate::policy::Fetchable;
use crate::score::spatial_score_detail;
use crate::window::LookbackWindow;
use crate::zone::{dependent_zone_size, select_zone_into, ZoneBuffers, ZoneSizeInputs};

/// Tunables of the AMPoM algorithm. Defaults are the paper's
/// implementation values (§4) plus the documented engineering floors.
#[derive(Debug, Clone)]
pub struct AmpomConfig {
    /// Lookback window length `l` ("we maintain a lookback window of
    /// length 20").
    pub window_len: usize,
    /// Maximum stride analysed ("we limit to search for stride-1 to
    /// stride-4 … i.e., dmax = 4").
    pub dmax: usize,
    /// Baseline read-ahead: minimum zone budget applied at every fault,
    /// mirroring the fixed-size read-ahead of the Linux buffer cache the
    /// paper compares against (§5.3). Set to 0 to disable (ablation).
    pub baseline_readahead: u64,
    /// Hard cap on the zone budget, bounding a single request's size when
    /// the bandwidth estimator reports a starved network.
    pub max_zone: u64,
}

impl Default for AmpomConfig {
    fn default() -> Self {
        AmpomConfig {
            window_len: LookbackWindow::PAPER_LENGTH,
            dmax: 4,
            baseline_readahead: 16,
            max_zone: 512,
        }
    }
}

impl AmpomConfig {
    /// Checks the tunables against their documented domains.
    pub fn validate(&self) -> Result<(), crate::error::AmpomError> {
        use crate::error::AmpomError;
        if self.window_len < 2 {
            return Err(AmpomError::InvalidConfig(format!(
                "window_len must be at least 2, got {}",
                self.window_len
            )));
        }
        if self.dmax < 1 || self.dmax >= self.window_len {
            return Err(AmpomError::InvalidConfig(format!(
                "dmax must satisfy 1 <= dmax < window_len ({}), got {}",
                self.window_len, self.dmax
            )));
        }
        if self.max_zone == 0 {
            return Err(AmpomError::InvalidConfig(
                "max_zone must be positive (it caps every request)".into(),
            ));
        }
        if self.baseline_readahead > self.max_zone {
            return Err(AmpomError::InvalidConfig(format!(
                "baseline_readahead ({}) exceeds max_zone ({})",
                self.baseline_readahead, self.max_zone
            )));
        }
        Ok(())
    }
}

/// Network estimates the monitor daemon feeds into Eq. 3.
#[derive(Debug, Clone, Copy)]
pub struct NetEstimates {
    /// One-way latency estimate `t0`.
    pub t0: SimDuration,
    /// Single-page transfer time `td` at the available bandwidth.
    pub td: SimDuration,
}

/// The outcome of one fault analysis: the zone's size and what set it.
/// The pages the analysis selected go to a list beside it (see
/// [`ZoneDecision`] and [`Prefetcher::on_fault`]).
///
/// [`Prefetcher::on_fault`]: crate::policy::Prefetcher::on_fault
#[derive(Debug, Clone, Copy)]
pub struct ZoneAnalysis {
    /// The computed (unrounded) `N` of Eq. 3.
    pub n_raw: f64,
    /// The applied budget after rounding, flooring and capping.
    pub budget: u64,
    /// The spatial locality score at this fault.
    pub score: f64,
    /// The unclamped Eq. 1 raw sum behind `score`.
    pub raw_score: f64,
    /// True when `score` was clamped down from a raw sum above 1
    /// (a repeated-page window).
    pub score_clamped: bool,
    /// The paging rate `r` fed into Eq. 3, in faults/second (0 while the
    /// window has not wrapped yet).
    pub rate: f64,
}

/// One fault analysis with a prefetch list of its own: what
/// [`AmpomPrefetcher::on_fault`] returns.
#[derive(Debug, Clone)]
pub struct ZoneDecision {
    /// Pages to include in the remote paging request (already filtered to
    /// fetchable ones), in selection order. Does **not** include the
    /// faulted page itself; the runner prepends it when it too must be
    /// fetched.
    pub prefetch: Vec<PageId>,
    /// The zone's size and what set it.
    pub analysis: ZoneAnalysis,
}

/// Running statistics of the prefetcher, reported in Figures 8 and 11.
///
/// Unit audit (the counters mix two granularities, so each records
/// which): `analyses`, `fallbacks` and `score_clamps` count analysis
/// **batches** (one per recorded fault); `pages_selected` counts
/// **pages**. The three distributions are per-batch samples. All
/// counters are `u64` — at the simulator's ~500 k faults/s (perfbench
/// `sim-paper` on a 2-vCPU Xeon host) a 64-bit page counter is ~1.2 M
/// years from wrapping, so no width concern.
#[derive(Debug, Default, Clone)]
pub struct PrefetchStats {
    /// Analyses performed, in batches (= faults recorded).
    pub analyses: u64,
    /// Total pages selected for prefetch across all requests (pages,
    /// not batches).
    pub pages_selected: u64,
    /// Distribution of the raw `N` values (one sample per batch).
    pub n_values: OnlineStats,
    /// Distribution of the applied zone budgets (Figure 8's per-fault
    /// prefetch aggressiveness; one sample per batch).
    pub budgets: OnlineStats,
    /// Distribution of the spatial score (one sample per batch).
    pub scores: OnlineStats,
    /// Analyses that fell back to read-ahead (no outstanding stream),
    /// in batches.
    pub fallbacks: u64,
    /// Analyses where the Eq. 1 clamp actually fired (raw score above
    /// 1), in batches.
    pub score_clamps: u64,
}

impl PrefetchStats {
    /// Folds another accumulator into this one (used when several
    /// prefetcher instances — e.g. the VM runner's per-process engines —
    /// report as one). Every counter participates, including
    /// `score_clamps`, which the ad-hoc merges this replaced dropped.
    pub fn merge(&mut self, other: &PrefetchStats) {
        self.analyses += other.analyses;
        self.pages_selected += other.pages_selected;
        self.n_values.merge(&other.n_values);
        self.budgets.merge(&other.budgets);
        self.scores.merge(&other.scores);
        self.fallbacks += other.fallbacks;
        self.score_clamps += other.score_clamps;
    }
}

/// The AMPoM analysis engine. One instance per migrant.
///
/// The per-fault analysis reuses the engine's own storage — the window's
/// pages, the census and the zone selection's runs — and writes the
/// prefetch list into the caller's buffer, so a fault allocates nothing
/// once those have grown to the run's largest zone.
#[derive(Debug)]
pub struct AmpomPrefetcher {
    config: AmpomConfig,
    window: LookbackWindow,
    stats: PrefetchStats,
    /// The last analysis's census (empty before the first).
    last_census: Census,
    window_pages: Vec<u64>,
    zone: ZoneBuffers,
}

impl AmpomPrefetcher {
    /// Creates a prefetcher with the given configuration.
    ///
    /// # Panics
    /// Panics on an invalid configuration; prefer [`Self::try_new`] when
    /// the configuration comes from user input.
    pub fn new(config: AmpomConfig) -> Self {
        Self::try_new(config).expect("invalid AmpomConfig")
    }

    /// Fallible constructor: validates the tunables and returns
    /// [`crate::error::AmpomError::InvalidConfig`] instead of panicking.
    pub fn try_new(config: AmpomConfig) -> Result<Self, crate::error::AmpomError> {
        config.validate()?;
        Ok(AmpomPrefetcher {
            window: LookbackWindow::new(config.window_len),
            config,
            stats: PrefetchStats::default(),
            last_census: Census::default(),
            window_pages: Vec::new(),
            zone: ZoneBuffers::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &AmpomConfig {
        &self.config
    }

    /// A uniform snapshot of the prefetcher's state — the single
    /// reporting surface (replaces the former `stats()`/`window()`/
    /// `last_census()` getters, so every policy reports identically).
    pub fn observation(&self) -> crate::policy::PrefetchObservation {
        crate::policy::PrefetchObservation {
            policy: "ampom",
            stats: self.stats.clone(),
            window_wraps: self.window.wraps(),
            window_full: self.window.is_full(),
            outstanding_streams: self.last_census.outstanding.len(),
        }
    }

    /// Runs one fault analysis (the analysis lines of Algorithm 1).
    ///
    /// * `page` — the faulted page `i`,
    /// * `now` / `cpu_util` — the `T`/`C` values recorded with it,
    /// * `net` — the monitor's current `t0`/`td`,
    /// * `page_limit` — one past the last valid page,
    /// * `fetchable` — predicate: true iff the page is stored remotely and
    ///   not already in flight ("if j is not stored locally").
    ///
    /// This is the per-page form of [`Prefetcher::on_fault`], with a
    /// fresh prefetch list per call: the predicate answers the same range
    /// queries through [`Fetchable`]'s blanket impl, once per zone page in
    /// selection order, never for `page` itself.
    ///
    /// [`Prefetcher::on_fault`]: crate::policy::Prefetcher::on_fault
    pub fn on_fault(
        &mut self,
        page: PageId,
        now: SimTime,
        cpu_util: f64,
        net: NetEstimates,
        page_limit: PageId,
        mut fetchable: impl FnMut(PageId) -> bool,
    ) -> ZoneDecision {
        let mut prefetch = Vec::new();
        let analysis = self.analyse(
            page,
            now,
            cpu_util,
            net,
            page_limit,
            &mut fetchable,
            &mut prefetch,
        );
        ZoneDecision { prefetch, analysis }
    }

    /// [`Self::on_fault`] over a range query, into the caller's
    /// `prefetch` list (cleared first): the zone's runs go to `fetchable`
    /// whole, except that a run holding `page` is split around it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn analyse<F: Fetchable + ?Sized>(
        &mut self,
        page: PageId,
        now: SimTime,
        cpu_util: f64,
        net: NetEstimates,
        page_limit: PageId,
        fetchable: &mut F,
        prefetch: &mut Vec<PageId>,
    ) -> ZoneAnalysis {
        self.window.record(page, now, cpu_util);
        self.stats.analyses += 1;

        self.window.page_indices_into(&mut self.window_pages);
        census_into(&self.window_pages, self.config.dmax, &mut self.last_census);
        let c = &self.last_census;
        let score_detail = spatial_score_detail(c);
        let score = score_detail.score;
        self.stats.scores.record(score);
        if score_detail.clamped {
            self.stats.score_clamps += 1;
        }

        let rate = self.window.paging_rate();
        let n_raw = match rate {
            Some(r) => dependent_zone_size(&ZoneSizeInputs {
                spatial_score: score,
                paging_rate: r,
                mean_cpu: self.window.mean_cpu_util(),
                next_cpu: self.window.latest_cpu_util(),
                t0: net.t0,
                td: net.td,
            }),
            None => 0.0,
        };
        self.stats.n_values.record(n_raw);

        let budget = (n_raw.round() as u64)
            .max(self.config.baseline_readahead)
            .min(self.config.max_zone);
        self.stats.budgets.record(budget as f64);

        if c.outstanding.is_empty() {
            self.stats.fallbacks += 1;
        }
        select_zone_into(&c.outstanding, budget, page, page_limit, &mut self.zone);
        // Room for every page the runs hold, reserved once: at most the
        // budget, and never past the address space.
        let room: u64 = self.zone.runs.iter().map(|run| run.len()).sum();
        prefetch.clear();
        prefetch.reserve(room as usize);
        for run in &self.zone.runs {
            if run.contains(page) {
                fetchable.extend_fetchable(run.start, page, prefetch);
                fetchable.extend_fetchable(page.succ(), run.end, prefetch);
            } else {
                fetchable.extend_fetchable(run.start, run.end, prefetch);
            }
        }
        self.stats.pages_selected += prefetch.len() as u64;

        ZoneAnalysis {
            n_raw,
            budget,
            score,
            raw_score: score_detail.raw,
            score_clamped: score_detail.clamped,
            rate: rate.unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetEstimates {
        NetEstimates {
            t0: SimDuration::from_micros(150),
            td: SimDuration::from_micros(366),
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn prefetcher() -> AmpomPrefetcher {
        AmpomPrefetcher::new(AmpomConfig::default())
    }

    #[test]
    fn sequential_faults_grow_an_aggressive_zone() {
        let mut p = prefetcher();
        let limit = PageId(1_000_000);
        let mut last = None;
        for i in 0..40u64 {
            last = Some(p.on_fault(PageId(100 + i), t(i * 100), 1.0, net(), limit, |_| true));
        }
        let last = last.unwrap();
        let a = last.analysis;
        assert!(a.score > 0.99, "sequential S = {}", a.score);
        assert!(a.rate > 0.0, "a wrapped window must expose r");
        assert!(!a.score_clamped, "sequential access must not clamp");
        // r = 20 faults / 1.9 ms ≈ 10526/s; N = S·(r·(2t0+td)+1) ≈ 8.
        assert!(a.n_raw > 5.0, "N = {}", a.n_raw);
        assert!(!last.prefetch.is_empty());
        // Zone pages follow the live stream's pivot.
        assert_eq!(last.prefetch[0], PageId(140));
    }

    #[test]
    fn random_faults_fall_back_to_baseline_readahead() {
        let mut p = prefetcher();
        let limit = PageId(10_000_000);
        let pages = [
            90_001u64, 5, 777_003, 42_000, 1_234, 990_011, 333, 806_202, 55_555, 7, 123_456, 98,
            700_001, 3_141, 59_265, 35_897, 932_384, 626_433, 83_279, 502_884, 197_169, 399_375,
        ];
        let mut last_decision = None;
        for (i, &pg) in pages.iter().enumerate() {
            last_decision =
                Some(p.on_fault(PageId(pg), t(i as u64 * 500), 1.0, net(), limit, |_| true));
        }
        let d = last_decision.unwrap();
        assert_eq!(d.analysis.score, 0.0);
        assert_eq!(d.analysis.budget, 16, "baseline read-ahead applies");
        // Fallback zone: pages right after the last fault.
        assert_eq!(d.prefetch.first(), Some(&PageId(399_376)));
        assert_eq!(d.prefetch.len(), 16);
        assert!(p.stats.fallbacks > 0);
    }

    #[test]
    fn ablation_disabling_baseline_gives_empty_zone_for_random() {
        let cfg = AmpomConfig {
            baseline_readahead: 0,
            ..AmpomConfig::default()
        };
        let mut p = AmpomPrefetcher::new(cfg);
        let limit = PageId(10_000_000);
        let mut last = None;
        for i in 0..25u64 {
            last = Some(p.on_fault(
                PageId((i * 104_729 + 7) % 9_000_000),
                t(i * 400),
                1.0,
                net(),
                limit,
                |_| true,
            ));
        }
        assert!(last.unwrap().prefetch.is_empty());
    }

    #[test]
    fn fetchable_filter_is_respected() {
        let mut p = prefetcher();
        let limit = PageId(1_000);
        let mut selected = 0;
        for i in 0..30u64 {
            let d = p.on_fault(PageId(i), t(i * 100), 1.0, net(), limit, |pg| {
                pg.index() % 2 == 0
            });
            assert!(d.prefetch.iter().all(|pg| pg.index() % 2 == 0));
            selected += d.prefetch.len();
        }
        assert!(selected > 0);
    }

    #[test]
    fn faulted_page_never_in_prefetch_list() {
        let mut p = prefetcher();
        let limit = PageId(1_000);
        for i in 0..30u64 {
            let d = p.on_fault(PageId(i), t(i * 100), 1.0, net(), limit, |_| true);
            assert!(!d.prefetch.contains(&PageId(i)));
        }
    }

    #[test]
    fn the_faulted_page_is_never_asked_about() {
        use crate::zone::select_zone;
        use ampom_sim::propcheck::forall;
        // Faults crowded into 48 pages often make a stream's pivot the
        // faulted page, so a zone run holds it. Every page asked about is
        // fetchable: only the split around the faulted page keeps it out.
        let mut runs_holding_it = 0u32;
        forall("faulted-page-split", 128, |g| {
            let mut p = prefetcher();
            let limit = PageId(48);
            for i in 0..40u64 {
                let page = PageId(g.u64(0..48));
                let mut asked = Vec::new();
                let d = p.on_fault(page, t(i * 100), 1.0, net(), limit, |q| {
                    asked.push(q);
                    true
                });
                assert!(!asked.contains(&page), "asked about {page}: {asked:?}");
                assert!(!d.prefetch.contains(&page));
                let outstanding = &p.last_census.outstanding;
                let runs = select_zone(outstanding, d.analysis.budget, page, limit);
                runs_holding_it += u32::from(runs.iter().any(|r| r.contains(page)));
            }
        });
        assert!(
            runs_holding_it >= 10,
            "{runs_holding_it} zones held the page"
        );
    }

    #[test]
    fn zone_capped_at_max() {
        let cfg = AmpomConfig {
            max_zone: 16,
            ..AmpomConfig::default()
        };
        let mut p = AmpomPrefetcher::new(cfg);
        let limit = PageId(1_000_000);
        // Very slow network → huge td → N explodes; cap holds.
        let slow = NetEstimates {
            t0: SimDuration::from_millis(2),
            td: SimDuration::from_millis(50),
        };
        let mut d = None;
        for i in 0..30u64 {
            d = Some(p.on_fault(PageId(i), t(i * 50), 1.0, slow, limit, |_| true));
        }
        let d = d.unwrap();
        assert!(d.analysis.n_raw > 16.0);
        assert_eq!(d.analysis.budget, 16);
        assert!(d.prefetch.len() <= 16);
    }

    #[test]
    fn no_zone_before_window_fills_beyond_baseline() {
        let mut p = prefetcher();
        let d = p.on_fault(PageId(5), t(0), 1.0, net(), PageId(1_000), |_| true);
        // Window not full → N = 0 → budget = baseline.
        assert_eq!(d.analysis.n_raw, 0.0);
        assert_eq!(d.analysis.budget, 16);
    }

    #[test]
    fn try_new_rejects_bad_configs() {
        let bad_dmax = AmpomConfig {
            dmax: 0,
            ..AmpomConfig::default()
        };
        assert!(AmpomPrefetcher::try_new(bad_dmax).is_err());
        let dmax_ge_window = AmpomConfig {
            dmax: 20,
            window_len: 20,
            ..AmpomConfig::default()
        };
        assert!(AmpomPrefetcher::try_new(dmax_ge_window).is_err());
        let floor_above_cap = AmpomConfig {
            baseline_readahead: 1024,
            max_zone: 512,
            ..AmpomConfig::default()
        };
        assert!(AmpomPrefetcher::try_new(floor_above_cap).is_err());
        assert!(AmpomPrefetcher::try_new(AmpomConfig::default()).is_ok());
    }

    #[test]
    fn stats_accumulate() {
        let mut p = prefetcher();
        for i in 0..10u64 {
            p.on_fault(PageId(i), t(i * 100), 0.8, net(), PageId(100), |_| true);
        }
        let s = &p.stats;
        assert_eq!(s.analyses, 10);
        assert!(s.pages_selected > 0);
        assert_eq!(s.scores.count(), 10);
    }

    #[test]
    fn repeated_page_window_reports_clamp() {
        let mut p = prefetcher();
        let limit = PageId(1_000);
        // Alternate between two adjacent pages with an occasional third:
        // duplicates give positions links at several distances, pushing
        // the raw Eq. 1 sum above 1.
        let pattern = [
            5u64, 6, 5, 6, 5, 6, 5, 7, 5, 6, 5, 6, 5, 6, 5, 7, 5, 6, 5, 6, 5, 6,
        ];
        let mut clamped_seen = false;
        for (i, &pg) in pattern.iter().enumerate() {
            let d = p.on_fault(PageId(pg), t(i as u64 * 100), 1.0, net(), limit, |_| true);
            let a = d.analysis;
            if a.score_clamped {
                clamped_seen = true;
                assert!(a.raw_score > 1.0, "raw = {}", a.raw_score);
                assert_eq!(a.score, 1.0);
            }
        }
        assert!(clamped_seen, "repeated-page pattern must trip the clamp");
        assert!(p.stats.score_clamps > 0);
    }
}
