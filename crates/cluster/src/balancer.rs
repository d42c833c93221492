//! Migration decision policies and the deputy-contention model.

use ampom_sim::time::{SimDuration, SimTime};

use crate::life::LifeJob;

/// How much deputy sharing stretches remote paging.
///
/// A solo migrant keeps its home deputy busy for `solo_saturation` of
/// its runtime (measured by the multi-migrant sweep: saturation grows
/// linearly in the migrant count until the service capacity is
/// exhausted). While `n * solo_saturation <= 1` the deputy still has
/// headroom and each migrant is served at full speed; past that point
/// the shared capacity divides, and every page wait stretches by the
/// overload ratio.
pub fn contention_factor(solo_saturation: f64, migrants: u64) -> f64 {
    (migrants as f64 * solo_saturation.clamp(0.0, 1.0)).max(1.0)
}

/// Minimum believed load gap before any policy considers migrating: with
/// a gap of ≤ 2 run-queue entries the move cannot improve mean response
/// time enough to risk a suboptimal decision on stale information.
pub const MIN_GAP: f64 = 2.0;

/// Minimum residency after a migration before a job may move again —
/// openMosix-style stabilization that prevents ping-ponging on stale load
/// views.
pub const RESIDENCY: SimDuration = SimDuration::from_secs(10);

/// When a node considers pushing work away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BalancePolicy {
    /// Migrate only jobs older than the threshold (Harchol-Balter &
    /// Downey-style lifetime filtering — the paper's reference \[10\]).
    LifetimeThreshold(SimDuration),
    /// Migrate whenever the believed imbalance exceeds one job.
    Aggressive,
}

impl BalancePolicy {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BalancePolicy::LifetimeThreshold(_) => "lifetime-threshold",
            BalancePolicy::Aggressive => "aggressive",
        }
    }

    /// Picks the job to migrate from `jobs` (a node's run queue) given the
    /// believed load gap, or `None` if the policy declines.
    ///
    /// Both policies move the job with the most remaining work among the
    /// eligible ones (it amortises the freeze best); they differ in
    /// eligibility.
    pub fn pick_migrant(&self, jobs: &[LifeJob], now: SimTime, load_gap: f64) -> Option<usize> {
        if load_gap < MIN_GAP {
            return None;
        }
        let rested = |j: &LifeJob| match j.last_migrated {
            Some(at) => now.saturating_since(at) >= RESIDENCY,
            None => true,
        };
        let eligible = |j: &LifeJob| {
            rested(j)
                && match self {
                    BalancePolicy::LifetimeThreshold(min_age) => {
                        now.saturating_since(j.arrived) >= *min_age
                    }
                    BalancePolicy::Aggressive => true,
                }
        };
        jobs.iter()
            .enumerate()
            .filter(|(_, j)| eligible(j) && !j.remaining.is_zero())
            .max_by_key(|(_, j)| j.remaining)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use ampom_workloads::sizes::Kernel;

    fn job(id: u64, arrived_s: u64, remaining_s: u64) -> LifeJob {
        LifeJob {
            id: JobId(id),
            kernel: Kernel::Dgemm,
            arrived: SimTime::ZERO + SimDuration::from_secs(arrived_s),
            demand: SimDuration::from_secs(remaining_s),
            remaining: SimDuration::from_secs(remaining_s),
            memory_mb: 115,
            dirty_fraction: 0.35,
            migrations: 0,
            last_migrated: None,
            home: 0,
            stubs: 0,
        }
    }

    #[test]
    fn aggressive_picks_biggest_remaining() {
        let jobs = vec![job(1, 0, 10), job(2, 0, 50), job(3, 0, 30)];
        let now = SimTime::ZERO + SimDuration::from_secs(5);
        let pick = BalancePolicy::Aggressive.pick_migrant(&jobs, now, 3.0);
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn no_migration_without_imbalance() {
        let jobs = vec![job(1, 0, 10)];
        let now = SimTime::ZERO;
        assert_eq!(
            BalancePolicy::Aggressive.pick_migrant(&jobs, now, 1.9),
            None
        );
        assert_eq!(
            BalancePolicy::Aggressive.pick_migrant(&jobs, now, 0.5),
            None
        );
    }

    #[test]
    fn residency_cooldown_blocks_ping_pong() {
        let mut j = job(1, 0, 100);
        j.last_migrated = Some(SimTime::ZERO + SimDuration::from_secs(5));
        let jobs = vec![j];
        // 5 s after the move: still resting.
        let soon = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(
            BalancePolicy::Aggressive.pick_migrant(&jobs, soon, 5.0),
            None
        );
        // 15 s after: eligible again.
        let later = SimTime::ZERO + SimDuration::from_secs(20);
        assert_eq!(
            BalancePolicy::Aggressive.pick_migrant(&jobs, later, 5.0),
            Some(0)
        );
    }

    #[test]
    fn threshold_filters_young_jobs() {
        let jobs = vec![job(1, 9, 100), job(2, 0, 10)];
        let now = SimTime::ZERO + SimDuration::from_secs(10);
        let policy = BalancePolicy::LifetimeThreshold(SimDuration::from_secs(5));
        // Job 1 is 1 s old (too young); job 2 is 10 s old.
        assert_eq!(policy.pick_migrant(&jobs, now, 3.0), Some(1));
        // With nothing old enough, decline.
        let young = vec![job(1, 9, 100)];
        assert_eq!(policy.pick_migrant(&young, now, 3.0), None);
    }

    #[test]
    fn contention_kicks_in_only_past_deputy_capacity() {
        // Headroom: 4 migrants at 10% solo saturation still fit.
        assert_eq!(contention_factor(0.1, 1), 1.0);
        assert_eq!(contention_factor(0.1, 4), 1.0);
        // Overload: 20 migrants want 2x the deputy; paging halves.
        assert!((contention_factor(0.1, 20) - 2.0).abs() < 1e-12);
        // Degenerate inputs stay sane.
        assert_eq!(contention_factor(-1.0, 50), 1.0);
        assert_eq!(contention_factor(2.0, 3), 3.0);
    }

    #[test]
    fn contention_counter_survives_u32_boundary() {
        // Mirrors the PR 9 `pages.len() as u32` fix: cluster-scale
        // counters are u64 end to end. A migrant count past u32::MAX
        // must keep scaling linearly instead of wrapping to ~0.
        let beyond = u64::from(u32::MAX) + 5;
        let factor = contention_factor(1.0, beyond);
        assert!(
            (factor - beyond as f64).abs() < 8.0,
            "factor {factor} must track {beyond}, not wrap"
        );
        assert!(contention_factor(1.0, beyond) > contention_factor(1.0, u64::from(u32::MAX)));
    }
}
