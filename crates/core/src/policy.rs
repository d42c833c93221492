//! Prefetch-policy abstraction: the [`Prefetcher`] trait and the
//! competitor policies the bake-off measures AMPoM against.
//!
//! The paper's Eq.1/Eq.3 engine ([`AmpomPrefetcher`]) was historically
//! hard-coded into every run loop. This module extracts the contract a
//! run loop actually needs — one analysis per fault, an optional
//! hit/waste feedback channel, and a uniform observation snapshot — and
//! implements two policies from the related work behind it:
//!
//! * [`LeapPrefetcher`] — "Effectively Prefetching Remote Memory with
//!   Leap" (Al Maruf & Chowdhury): majority-vote trend detection over a
//!   fault-history window with exponential ramp-up/ramp-down of the
//!   prefetch window.
//! * [`IndigoPrefetcher`] — "INDIGO: Page Migration for Hardware Memory
//!   Disaggregation Across a Network" (Patke et al.): an adaptive
//!   prefetch-window-and-rate controller driven by the observed
//!   prefetch hit/waste ratio.
//!
//! [`PolicySpec`] is the validated, serializable description a
//! [`RunConfig`](crate::runner::RunConfig) carries; its default
//! (`PolicySpec::Ampom`) builds the paper's engine and is pinned
//! bit-identical to the pre-trait code path by the golden fingerprint
//! tests.

use ampom_mem::page::PageId;
use ampom_sim::time::SimTime;

use crate::error::AmpomError;
use crate::prefetcher::{AmpomConfig, AmpomPrefetcher, NetEstimates, PrefetchStats, ZoneAnalysis};
use crate::window::LookbackWindow;

/// Cumulative prefetch-outcome counters a run loop feeds back into a
/// policy before each analysis. Both counters are **pages** (not
/// batches) and monotone over the run; a policy diffs successive
/// snapshots to observe the recent hit/waste ratio.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchFeedback {
    /// Pages queued for prefetch so far (cumulative).
    pub pages_prefetched: u64,
    /// Prefetched pages the migrant has actually touched so far
    /// (cumulative).
    pub prefetched_used: u64,
}

/// A uniform, policy-independent snapshot of a prefetcher's state —
/// the single reporting surface that replaced the concrete
/// `stats()`/`window()`/`last_census()` getters.
#[derive(Debug, Clone, Default)]
pub struct PrefetchObservation {
    /// Policy label (`"ampom"`, `"leap"`, `"indigo"`).
    pub policy: &'static str,
    /// Accumulated per-analysis statistics.
    pub stats: PrefetchStats,
    /// Completed turns of the fault-history window — the monitor
    /// daemon's bandwidth re-estimation clock.
    pub window_wraps: u64,
    /// True once the fault-history window holds a full complement of
    /// records.
    pub window_full: bool,
    /// Live pattern streams the last analysis identified (outstanding
    /// strides for AMPoM, 0 or 1 trend for Leap/INDIGO).
    pub outstanding_streams: usize,
}

/// The zone filter's query, "if j is not stored locally": which pages of
/// a run are fetchable — stored remotely and not already in flight.
///
/// The prefetchers hand the query the runs they select, so an
/// implementation that keeps its state in page bitsets answers 64 pages
/// per word (see [`extend_by_word`]). A per-page predicate
/// `FnMut(PageId) -> bool` is a `Fetchable` too, asked once per page in
/// ascending order.
pub trait Fetchable {
    /// Appends the fetchable pages of `[start, end)` to `out`, in
    /// ascending order. An empty or inverted run appends nothing.
    fn extend_fetchable(&mut self, start: PageId, end: PageId, out: &mut Vec<PageId>);
}

impl<F: FnMut(PageId) -> bool> Fetchable for F {
    fn extend_fetchable(&mut self, start: PageId, end: PageId, out: &mut Vec<PageId>) {
        // The predicate visits every page of the run anyway, so room for
        // all of them costs one allocation, not a doubling per few pages.
        let pages = start.index()..end.index();
        out.reserve(pages.end.saturating_sub(pages.start) as usize);
        out.extend(pages.map(PageId).filter(|&p| self(p)));
    }
}

/// Answers a [`Fetchable`] query a word at a time. For each word `w` the
/// run `[start, end)` touches, `fetchable_word(w, run)` receives the mask
/// of the run's pages among `64·w … 64·w + 63` (bit `i` is page
/// `64·w + i`) and returns which of them are fetchable; bits outside
/// `run` are ignored. The set bits are appended to `out` in ascending
/// order.
pub fn extend_by_word(
    start: PageId,
    end: PageId,
    out: &mut Vec<PageId>,
    mut fetchable_word: impl FnMut(u64, u64) -> u64,
) {
    let (start, end) = (start.index(), end.index());
    if start >= end {
        return;
    }
    for word in start / 64..=(end - 1) / 64 {
        let base = word * 64;
        let lo = start.saturating_sub(base);
        let hi = (end - base).min(64);
        let run = (u64::MAX >> (64 - (hi - lo))) << lo;
        let mut mask = fetchable_word(word, run) & run;
        while mask != 0 {
            out.push(PageId(base + u64::from(mask.trailing_zeros())));
            mask &= mask - 1;
        }
    }
}

/// One prefetch policy driving the run loops' per-fault analysis.
///
/// Implementations must be conservative: every page written to the
/// prefetch list must have come back from the `fetchable` query and
/// differ from the faulted page (property-tested for all in-tree
/// policies).
pub trait Prefetcher {
    /// Runs one fault analysis and writes the pages to prefetch, in
    /// selection order, into `prefetch`, replacing what it held. The list
    /// is the caller's, reused from fault to fault, so an analysis
    /// allocates nothing once it has grown. See
    /// [`AmpomPrefetcher::on_fault`] for the other arguments.
    // Five inputs of the fault, the query and the output list.
    #[allow(clippy::too_many_arguments)]
    fn on_fault(
        &mut self,
        page: PageId,
        now: SimTime,
        cpu_util: f64,
        net: NetEstimates,
        page_limit: PageId,
        fetchable: &mut dyn Fetchable,
        prefetch: &mut Vec<PageId>,
    ) -> ZoneAnalysis;

    /// Feeds the loop's cumulative hit/waste counters back into the
    /// policy (called once per fault, before [`Self::on_fault`]).
    /// Feedback-blind policies ignore it.
    fn note_outcome(&mut self, _feedback: PrefetchFeedback) {}

    /// A uniform snapshot of the policy's current state.
    fn observe(&self) -> PrefetchObservation;
}

impl Prefetcher for AmpomPrefetcher {
    fn on_fault(
        &mut self,
        page: PageId,
        now: SimTime,
        cpu_util: f64,
        net: NetEstimates,
        page_limit: PageId,
        fetchable: &mut dyn Fetchable,
        prefetch: &mut Vec<PageId>,
    ) -> ZoneAnalysis {
        self.analyse(page, now, cpu_util, net, page_limit, fetchable, prefetch)
    }

    fn observe(&self) -> PrefetchObservation {
        self.observation()
    }
}

// ---------------------------------------------------------------------------
// PolicySpec
// ---------------------------------------------------------------------------

/// The validated description of a prefetch policy, carried by
/// [`RunConfig`](crate::runner::RunConfig) and gridded over by the
/// sweep engine's `policy` axis.
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub enum PolicySpec {
    /// The paper's Eq.1/Eq.3 dependent-zone engine (the default).
    #[default]
    Ampom,
    /// Leap-style majority-vote trend detection.
    Leap(LeapConfig),
    /// INDIGO-style adaptive window/rate control.
    Indigo(IndigoConfig),
}

impl PolicySpec {
    /// Every in-tree policy at its default tuning, in bake-off order.
    pub fn all() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Ampom,
            PolicySpec::Leap(LeapConfig::default()),
            PolicySpec::Indigo(IndigoConfig::default()),
        ]
    }

    /// Short lowercase label used in tables, CSV and metric names.
    pub fn label(&self) -> &'static str {
        match self {
            PolicySpec::Ampom => "ampom",
            PolicySpec::Leap(_) => "leap",
            PolicySpec::Indigo(_) => "indigo",
        }
    }

    /// Parses a bake-off label into the policy at its default tuning.
    pub fn parse(s: &str) -> Option<PolicySpec> {
        match s {
            "ampom" => Some(PolicySpec::Ampom),
            "leap" => Some(PolicySpec::Leap(LeapConfig::default())),
            "indigo" => Some(PolicySpec::Indigo(IndigoConfig::default())),
            _ => None,
        }
    }

    /// Checks the policy's tunables against their documented domains.
    pub fn validate(&self) -> Result<(), AmpomError> {
        match self {
            PolicySpec::Ampom => Ok(()),
            PolicySpec::Leap(cfg) => cfg.validate(),
            PolicySpec::Indigo(cfg) => cfg.validate(),
        }
    }

    /// Builds the policy's engine. `ampom` supplies the Eq.1/Eq.3
    /// tunables when the policy is [`PolicySpec::Ampom`]; the
    /// competitors carry their own configuration.
    ///
    /// # Panics
    /// Panics on an invalid configuration; run through
    /// [`Self::validate`] (the `RunConfig`/`Experiment` validators do)
    /// for a typed error instead.
    pub fn build(&self, ampom: &AmpomConfig) -> Box<dyn Prefetcher> {
        match self {
            PolicySpec::Ampom => Box::new(AmpomPrefetcher::new(ampom.clone())),
            PolicySpec::Leap(cfg) => Box::new(LeapPrefetcher::new(cfg.clone())),
            PolicySpec::Indigo(cfg) => Box::new(IndigoPrefetcher::new(cfg.clone())),
        }
    }
}

// ---------------------------------------------------------------------------
// Leap
// ---------------------------------------------------------------------------

/// Tunables of the Leap-style trend prefetcher.
#[derive(Debug, Clone, PartialEq)]
pub struct LeapConfig {
    /// Fault-history window length the majority vote runs over.
    pub history_len: usize,
    /// Prefetch-window size right after a trend is (re)acquired.
    pub init_window: u64,
    /// Exponential ramp-up ceiling on the prefetch window.
    pub max_window: u64,
}

impl Default for LeapConfig {
    fn default() -> Self {
        LeapConfig {
            history_len: LookbackWindow::PAPER_LENGTH,
            init_window: 4,
            max_window: 256,
        }
    }
}

impl LeapConfig {
    /// Checks the tunables against their documented domains.
    pub fn validate(&self) -> Result<(), AmpomError> {
        if self.history_len < 2 {
            return Err(AmpomError::InvalidPolicy(format!(
                "leap: history_len must be at least 2, got {}",
                self.history_len
            )));
        }
        if self.init_window == 0 {
            return Err(AmpomError::InvalidPolicy(
                "leap: init_window must be positive".into(),
            ));
        }
        if self.max_window < self.init_window {
            return Err(AmpomError::InvalidPolicy(format!(
                "leap: max_window ({}) below init_window ({})",
                self.max_window, self.init_window
            )));
        }
        Ok(())
    }
}

/// Majority-vote trend prefetching (Leap).
///
/// On every fault the detector runs a Boyer–Moore majority vote over
/// the deltas of the recent fault history — first over the most recent
/// half of the window, then over the whole window — and accepts a
/// stride only when its vote share exceeds one half. With a trend in
/// hand it prefetches `window` pages along the stride and doubles the
/// window (up to `max_window`); without one it halves the window back
/// toward `init_window` and prefetches nothing.
#[derive(Debug)]
pub struct LeapPrefetcher {
    config: LeapConfig,
    window: LookbackWindow,
    cur_window: u64,
    stats: PrefetchStats,
    trend: Option<i64>,
    /// The window's pages and their deltas, refilled at every fault.
    pages: Vec<u64>,
    deltas: Vec<i64>,
}

impl LeapPrefetcher {
    /// Creates a Leap prefetcher.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see [`LeapConfig::validate`]).
    pub fn new(config: LeapConfig) -> Self {
        config.validate().expect("invalid LeapConfig");
        LeapPrefetcher {
            window: LookbackWindow::new(config.history_len),
            cur_window: config.init_window,
            config,
            stats: PrefetchStats::default(),
            trend: None,
            pages: Vec::new(),
            deltas: Vec::new(),
        }
    }

    /// Majority-vote stride over the last `take` deltas of `pages`,
    /// accepted only with a strict-majority vote share. Returns the
    /// stride and its vote share.
    fn majority_trend(deltas: &[i64], take: usize) -> Option<(i64, f64)> {
        let slice = &deltas[deltas.len().saturating_sub(take)..];
        if slice.is_empty() {
            return None;
        }
        // Boyer–Moore candidate pass.
        let mut candidate = 0i64;
        let mut count = 0usize;
        for &d in slice {
            if count == 0 {
                candidate = d;
                count = 1;
            } else if d == candidate {
                count += 1;
            } else {
                count -= 1;
            }
        }
        // Verification pass.
        let votes = slice.iter().filter(|&&d| d == candidate).count();
        if candidate != 0 && 2 * votes > slice.len() {
            Some((candidate, votes as f64 / slice.len() as f64))
        } else {
            None
        }
    }
}

impl Prefetcher for LeapPrefetcher {
    fn on_fault(
        &mut self,
        page: PageId,
        now: SimTime,
        cpu_util: f64,
        _net: NetEstimates,
        page_limit: PageId,
        fetchable: &mut dyn Fetchable,
        prefetch: &mut Vec<PageId>,
    ) -> ZoneAnalysis {
        self.window.record(page, now, cpu_util);
        self.stats.analyses += 1;

        self.window.page_indices_into(&mut self.pages);
        self.deltas.clear();
        self.deltas
            .extend(self.pages.windows(2).map(|w| w[1] as i64 - w[0] as i64));
        let deltas = &self.deltas;
        // Leap tries the most recent sub-window first, then widens.
        let half = (deltas.len() / 2).max(2);
        let found = Self::majority_trend(deltas, half)
            .or_else(|| Self::majority_trend(deltas, deltas.len()));

        let (budget, score) = match found {
            Some((stride, share)) => {
                self.trend = Some(stride);
                let b = self.cur_window;
                self.cur_window = (self.cur_window.saturating_mul(2)).min(self.config.max_window);
                (b, share)
            }
            None => {
                self.trend = None;
                self.stats.fallbacks += 1;
                self.cur_window = (self.cur_window / 2).max(self.config.init_window);
                (0, 0.0)
            }
        };

        self.stats.scores.record(score);
        self.stats.n_values.record(budget as f64);
        self.stats.budgets.record(budget as f64);

        prefetch.clear();
        if let Some(stride) = self.trend {
            let base = page.index() as i64;
            for k in 1..=budget as i64 {
                let idx = base + stride * k;
                if idx < 0 || idx as u64 >= page_limit.index() {
                    break;
                }
                let p = PageId(idx as u64);
                if p != page {
                    fetchable.extend_fetchable(p, p.succ(), prefetch);
                }
            }
        }
        self.stats.pages_selected += prefetch.len() as u64;

        ZoneAnalysis {
            n_raw: budget as f64,
            budget,
            score,
            raw_score: score,
            score_clamped: false,
            rate: self.window.paging_rate().unwrap_or(0.0),
        }
    }

    fn observe(&self) -> PrefetchObservation {
        PrefetchObservation {
            policy: "leap",
            stats: self.stats.clone(),
            window_wraps: self.window.wraps(),
            window_full: self.window.is_full(),
            outstanding_streams: usize::from(self.trend.is_some()),
        }
    }
}

// ---------------------------------------------------------------------------
// INDIGO
// ---------------------------------------------------------------------------

/// Tunables of the INDIGO-style adaptive window/rate controller.
#[derive(Debug, Clone, PartialEq)]
pub struct IndigoConfig {
    /// Fault-history window length (observability clock parity with the
    /// other policies).
    pub history_len: usize,
    /// Prefetch window at start-up and after a full collapse.
    pub init_window: u64,
    /// Lower bound the multiplicative decrease stops at.
    pub min_window: u64,
    /// Upper bound the additive increase stops at.
    pub max_window: u64,
    /// Hit ratio at or above which the window grows.
    pub grow_threshold: f64,
    /// Hit ratio at or below which the window shrinks and the issue
    /// rate halves.
    pub shrink_threshold: f64,
}

impl Default for IndigoConfig {
    fn default() -> Self {
        IndigoConfig {
            history_len: LookbackWindow::PAPER_LENGTH,
            init_window: 8,
            min_window: 1,
            max_window: 256,
            grow_threshold: 0.6,
            shrink_threshold: 0.25,
        }
    }
}

impl IndigoConfig {
    /// Checks the tunables against their documented domains.
    pub fn validate(&self) -> Result<(), AmpomError> {
        if self.history_len < 2 {
            return Err(AmpomError::InvalidPolicy(format!(
                "indigo: history_len must be at least 2, got {}",
                self.history_len
            )));
        }
        if self.min_window == 0 || self.min_window > self.init_window {
            return Err(AmpomError::InvalidPolicy(format!(
                "indigo: need 0 < min_window ({}) <= init_window ({})",
                self.min_window, self.init_window
            )));
        }
        if self.max_window < self.init_window {
            return Err(AmpomError::InvalidPolicy(format!(
                "indigo: max_window ({}) below init_window ({})",
                self.max_window, self.init_window
            )));
        }
        if !(0.0 < self.shrink_threshold
            && self.shrink_threshold < self.grow_threshold
            && self.grow_threshold <= 1.0)
        {
            return Err(AmpomError::InvalidPolicy(format!(
                "indigo: need 0 < shrink_threshold ({}) < grow_threshold ({}) <= 1",
                self.shrink_threshold, self.grow_threshold
            )));
        }
        Ok(())
    }
}

/// Adaptive window/rate prefetching (INDIGO).
///
/// The controller never inspects the access pattern beyond the
/// direction of the last two faults; instead it closes the loop on the
/// *outcome* the run reports through [`Prefetcher::note_outcome`]: the
/// fraction of recently prefetched pages the migrant actually touched.
/// A high hit ratio doubles the prefetch window (up to `max_window`); a
/// low one halves it (down to `min_window`) **and** halves the issue
/// rate — the policy then analyses every fault but only issues a batch
/// on every second one, modelling INDIGO's network-aware rate control.
#[derive(Debug)]
pub struct IndigoPrefetcher {
    config: IndigoConfig,
    window: LookbackWindow,
    cur_window: u64,
    /// Issue a batch every `issue_every` faults (1 = every fault).
    issue_every: u64,
    faults_since_issue: u64,
    last_feedback: PrefetchFeedback,
    last_ratio: Option<f64>,
    last_page: Option<u64>,
    direction: i64,
    stats: PrefetchStats,
}

impl IndigoPrefetcher {
    /// Minimum prefetched-page delta before a hit ratio is trusted.
    const MIN_SAMPLE: u64 = 4;

    /// Creates an INDIGO prefetcher.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see
    /// [`IndigoConfig::validate`]).
    pub fn new(config: IndigoConfig) -> Self {
        config.validate().expect("invalid IndigoConfig");
        IndigoPrefetcher {
            window: LookbackWindow::new(config.history_len),
            cur_window: config.init_window,
            config,
            issue_every: 1,
            faults_since_issue: 0,
            last_feedback: PrefetchFeedback::default(),
            last_ratio: None,
            last_page: None,
            direction: 1,
            stats: PrefetchStats::default(),
        }
    }
}

impl Prefetcher for IndigoPrefetcher {
    fn on_fault(
        &mut self,
        page: PageId,
        now: SimTime,
        cpu_util: f64,
        _net: NetEstimates,
        page_limit: PageId,
        fetchable: &mut dyn Fetchable,
        prefetch: &mut Vec<PageId>,
    ) -> ZoneAnalysis {
        self.window.record(page, now, cpu_util);
        self.stats.analyses += 1;

        // Direction from the last two faults (ascending by default).
        if let Some(prev) = self.last_page {
            let cur = page.index();
            if cur != prev {
                self.direction = if cur > prev { 1 } else { -1 };
            }
        }
        self.last_page = Some(page.index());

        self.faults_since_issue += 1;
        let issue = self.faults_since_issue >= self.issue_every;
        let budget = if issue {
            self.faults_since_issue = 0;
            self.cur_window
        } else {
            0
        };
        if budget == 0 {
            self.stats.fallbacks += 1;
        }

        let score = self.last_ratio.unwrap_or(0.0);
        self.stats.scores.record(score);
        self.stats.n_values.record(budget as f64);
        self.stats.budgets.record(budget as f64);

        prefetch.clear();
        let base = page.index() as i64;
        for k in 1..=budget as i64 {
            let idx = base + self.direction * k;
            if idx < 0 || idx as u64 >= page_limit.index() {
                break;
            }
            let p = PageId(idx as u64);
            if p != page {
                fetchable.extend_fetchable(p, p.succ(), prefetch);
            }
        }
        self.stats.pages_selected += prefetch.len() as u64;

        ZoneAnalysis {
            n_raw: budget as f64,
            budget,
            score,
            raw_score: score,
            score_clamped: false,
            rate: self.window.paging_rate().unwrap_or(0.0),
        }
    }

    fn note_outcome(&mut self, feedback: PrefetchFeedback) {
        let issued = feedback
            .pages_prefetched
            .saturating_sub(self.last_feedback.pages_prefetched);
        if issued < Self::MIN_SAMPLE {
            return; // not enough evidence to adapt on
        }
        let used = feedback
            .prefetched_used
            .saturating_sub(self.last_feedback.prefetched_used);
        self.last_feedback = feedback;
        let ratio = (used as f64 / issued as f64).clamp(0.0, 1.0);
        self.last_ratio = Some(ratio);
        if ratio >= self.config.grow_threshold {
            self.cur_window = self
                .cur_window
                .saturating_mul(2)
                .min(self.config.max_window);
            self.issue_every = 1;
        } else if ratio <= self.config.shrink_threshold {
            self.cur_window = (self.cur_window / 2).max(self.config.min_window);
            self.issue_every = 2;
        }
    }

    fn observe(&self) -> PrefetchObservation {
        PrefetchObservation {
            policy: "indigo",
            stats: self.stats.clone(),
            window_wraps: self.window.wraps(),
            window_full: self.window.is_full(),
            outstanding_streams: usize::from(self.last_ratio.unwrap_or(0.0) > 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::ZoneDecision;
    use ampom_sim::time::SimDuration;

    fn net() -> NetEstimates {
        NetEstimates {
            t0: SimDuration::from_micros(150),
            td: SimDuration::from_micros(366),
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// One analysis through the trait, into a fresh list.
    fn decide(
        p: &mut dyn Prefetcher,
        page: PageId,
        now: SimTime,
        cpu_util: f64,
        net: NetEstimates,
        page_limit: PageId,
        fetchable: &mut dyn Fetchable,
    ) -> ZoneDecision {
        let mut prefetch = Vec::new();
        let analysis = p.on_fault(
            page,
            now,
            cpu_util,
            net,
            page_limit,
            fetchable,
            &mut prefetch,
        );
        ZoneDecision { prefetch, analysis }
    }

    #[test]
    fn policy_labels_and_parse_round_trip() {
        for p in PolicySpec::all() {
            assert_eq!(PolicySpec::parse(p.label()), Some(p.clone()));
            assert!(p.validate().is_ok());
        }
        assert_eq!(PolicySpec::parse("bogus"), None);
        assert_eq!(PolicySpec::default(), PolicySpec::Ampom);
    }

    #[test]
    fn invalid_policies_are_typed_errors() {
        let bad = PolicySpec::Leap(LeapConfig {
            history_len: 1,
            ..LeapConfig::default()
        });
        assert!(matches!(bad.validate(), Err(AmpomError::InvalidPolicy(_))));
        let bad = PolicySpec::Leap(LeapConfig {
            init_window: 0,
            ..LeapConfig::default()
        });
        assert!(matches!(bad.validate(), Err(AmpomError::InvalidPolicy(_))));
        let bad = PolicySpec::Indigo(IndigoConfig {
            grow_threshold: 0.2,
            shrink_threshold: 0.4,
            ..IndigoConfig::default()
        });
        assert!(matches!(bad.validate(), Err(AmpomError::InvalidPolicy(_))));
        let bad = PolicySpec::Indigo(IndigoConfig {
            min_window: 0,
            ..IndigoConfig::default()
        });
        assert!(matches!(bad.validate(), Err(AmpomError::InvalidPolicy(_))));
    }

    #[test]
    fn leap_locks_onto_a_sequential_trend_and_ramps_up() {
        let mut p = LeapPrefetcher::new(LeapConfig::default());
        let limit = PageId(1_000_000);
        let mut last = None;
        for i in 0..40u64 {
            last = Some(decide(
                &mut p,
                PageId(100 + i),
                t(i * 100),
                1.0,
                net(),
                limit,
                &mut |_| true,
            ));
        }
        let d = last.unwrap();
        assert!(d.analysis.score > 0.9, "vote share = {}", d.analysis.score);
        assert!(d.analysis.budget > LeapConfig::default().init_window);
        assert_eq!(d.prefetch.first(), Some(&PageId(140)));
        let obs = p.observe();
        assert_eq!(obs.policy, "leap");
        assert_eq!(obs.outstanding_streams, 1);
        assert!(obs.window_full);
    }

    #[test]
    fn leap_detects_a_backward_trend() {
        let mut p = LeapPrefetcher::new(LeapConfig::default());
        let limit = PageId(10_000);
        let mut last = None;
        for i in 0..30u64 {
            last = Some(decide(
                &mut p,
                PageId(5_000 - i * 2),
                t(i * 100),
                1.0,
                net(),
                limit,
                &mut |_| true,
            ));
        }
        let d = last.unwrap();
        assert!(!d.prefetch.is_empty());
        // Stride −2: the zone descends below the faulted page.
        assert!(d.prefetch.iter().all(|pg| pg.index() < 5_000 - 58));
    }

    #[test]
    fn leap_backs_off_on_random_faults() {
        let mut p = LeapPrefetcher::new(LeapConfig::default());
        let limit = PageId(10_000_000);
        let mut rng = ampom_sim::rng::SimRng::seed_from_u64(0xBADC0FFE);
        let mut last = None;
        for i in 0..30u64 {
            last = Some(decide(
                &mut p,
                PageId(rng.below(9_000_000)),
                t(i * 400),
                1.0,
                net(),
                limit,
                &mut |_| true,
            ));
        }
        let d = last.unwrap();
        assert!(d.prefetch.is_empty(), "no trend, no prefetch");
        assert_eq!(d.analysis.budget, 0);
        assert!(p.observe().stats.fallbacks > 0);
    }

    #[test]
    fn indigo_shrinks_window_and_rate_on_waste() {
        let mut p = IndigoPrefetcher::new(IndigoConfig::default());
        let limit = PageId(10_000_000);
        let mut issued = 0u64;
        let mut budgets = Vec::new();
        for i in 0..20u64 {
            // All prefetches wasted: `used` never advances.
            p.note_outcome(PrefetchFeedback {
                pages_prefetched: issued,
                prefetched_used: 0,
            });
            let d = decide(
                &mut p,
                PageId((i * 104_729 + 7) % 9_000_000),
                t(i * 400),
                1.0,
                net(),
                limit,
                &mut |_| true,
            );
            issued += d.prefetch.len() as u64;
            budgets.push(d.analysis.budget);
        }
        // The window collapsed to the floor and the issue rate halved.
        assert_eq!(*budgets.last().unwrap(), 0, "rate-limited fault skipped");
        assert!(budgets.iter().filter(|&&b| b == 0).count() >= 5);
        let floor_batches = budgets
            .iter()
            .filter(|&&b| b > 0)
            .filter(|&&b| b <= IndigoConfig::default().min_window)
            .count();
        assert!(floor_batches > 0, "window must reach min_window");
    }

    #[test]
    fn indigo_grows_window_on_hits() {
        let mut p = IndigoPrefetcher::new(IndigoConfig::default());
        let limit = PageId(1_000_000);
        let mut issued = 0u64;
        let mut max_budget = 0;
        for i in 0..20u64 {
            // Every prefetched page gets used.
            p.note_outcome(PrefetchFeedback {
                pages_prefetched: issued,
                prefetched_used: issued,
            });
            let d = decide(
                &mut p,
                PageId(100 + i * 3),
                t(i * 100),
                1.0,
                net(),
                limit,
                &mut |_| true,
            );
            issued += d.prefetch.len() as u64;
            max_budget = max_budget.max(d.analysis.budget);
        }
        assert!(
            max_budget > IndigoConfig::default().init_window,
            "window must ramp up, max = {max_budget}"
        );
    }

    #[test]
    fn all_policies_respect_the_fetchable_filter() {
        for spec in PolicySpec::all() {
            let mut p = spec.build(&AmpomConfig::default());
            let limit = PageId(100_000);
            for i in 0..40u64 {
                let d = decide(
                    p.as_mut(),
                    PageId(i * 2),
                    t(i * 100),
                    1.0,
                    net(),
                    limit,
                    &mut |pg: PageId| matches!(pg.index() % 4, 0),
                );
                assert!(
                    d.prefetch.iter().all(|pg| pg.index() % 4 == 0),
                    "{}: unfetchable page selected",
                    spec.label()
                );
                assert!(!d.prefetch.contains(&PageId(i * 2)));
            }
        }
    }

    #[test]
    fn a_reused_list_is_replaced_not_extended() {
        // Two engines of each policy on one fault stream: one writes into
        // a list it keeps, which starts out holding stale pages; the
        // other gets a fresh list per fault.
        for spec in PolicySpec::all() {
            let mut reused_pf = spec.build(&AmpomConfig::default());
            let mut fresh_pf = spec.build(&AmpomConfig::default());
            let limit = PageId(100_000);
            let mut reused = vec![PageId(99_999); 7];
            for i in 0..60u64 {
                let page = PageId(if i % 10 < 7 {
                    500 + i
                } else {
                    i * 977 % 90_000
                });
                let fetchable = &mut |pg: PageId| !pg.index().is_multiple_of(3);
                let got =
                    reused_pf.on_fault(page, t(i * 100), 1.0, net(), limit, fetchable, &mut reused);
                let want = decide(
                    fresh_pf.as_mut(),
                    page,
                    t(i * 100),
                    1.0,
                    net(),
                    limit,
                    fetchable,
                );
                assert_eq!(reused, want.prefetch, "{}: fault {i}", spec.label());
                assert_eq!(got.budget, want.analysis.budget);
            }
            assert!(
                fresh_pf.observe().stats.pages_selected > 0,
                "{}: nothing selected",
                spec.label()
            );
        }
    }

    #[test]
    fn observation_carries_stats_for_every_policy() {
        for spec in PolicySpec::all() {
            let mut p = spec.build(&AmpomConfig::default());
            for i in 0..30u64 {
                decide(
                    p.as_mut(),
                    PageId(i),
                    t(i * 100),
                    1.0,
                    net(),
                    PageId(1_000),
                    &mut |_| true,
                );
            }
            let obs = p.observe();
            assert_eq!(obs.policy, spec.label());
            assert_eq!(obs.stats.analyses, 30);
            assert_eq!(obs.stats.budgets.count(), 30);
            assert!(
                obs.window_full,
                "{}: 30 faults fill a 20-window",
                obs.policy
            );
            assert!(obs.window_wraps >= 1);
        }
    }
}
