//! The migrant-side recovery protocol for remote paging under faults.
//!
//! The paper's Algorithm 1 assumes every paging request is answered and
//! every page arrives. This module supplies what a production deployment
//! needs when that assumption breaks:
//!
//! * **Timeouts** derived from the calibrated path: the base timeout is
//!   one request/reply round trip, `2·t0 + td` — the same quantity Eq. 3
//!   uses to size prefetch zones — scaled by a configurable factor.
//! * **Exponential backoff with a retry budget**: attempt `k` waits
//!   `factor · 2^k` round trips before re-requesting the demanded page.
//! * **Duplicate-reply suppression**: installs are idempotent, keyed by
//!   [`PageId`](ampom_mem::page::PageId) — a late original reply racing a retry's resend installs
//!   once and the loser is counted, never double-installed.
//! * **Graceful degradation** on deputy failure (a scheduled
//!   crash/restart from [`DowntimeSchedule`]), selectable per run via
//!   [`FailurePolicy`]: stall until the deputy reconnects, fall back to a
//!   residual eager copy of every remaining page, or remigrate home.
//!
//! This module holds the protocol's knobs ([`FaultProfile`]), its
//! transport-agnostic state machine ([`RetrySchedule`]) and a simulated
//! run's fault state (`FaultInjector`). The
//! [`SimulatedTransport`](crate::transport::SimulatedTransport) builds an
//! injector **only** for a non-null [`FaultProfile`] and runs the
//! protocol against it; a fault-free run never touches it, so its timing
//! is bit-identical to the fault-free goldens (the zero-fault property
//! test pins this).

use ampom_net::calibration::page_transfer_time;
use ampom_net::fault::{FaultPlan, FaultSpec};
use ampom_net::link::LinkConfig;
use ampom_sim::event::DowntimeSchedule;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};

use crate::error::AmpomError;
use crate::metrics::FaultStats;

/// Hard cap on failure-policy invocations per run. A stall-and-reconnect
/// policy under heavy loss could in principle reconnect forever; past
/// this many cycles the protocol forces the eager fallback so every fault
/// schedule terminates with a complete address space.
const MAX_POLICY_CYCLES: u32 = 64;

/// Timeout and retry-budget knobs of the recovery protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Base timeout in units of the calibrated round trip (`2·t0 + td`).
    /// The default of 4 absorbs deputy queueing and reply-link pipelining
    /// without firing spuriously on a healthy LAN.
    pub timeout_factor: u32,
    /// Re-requests before the failure policy is invoked. Backoff doubles
    /// the timeout each attempt (capped at `2^6`).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout_factor: 4,
            max_retries: 6,
        }
    }
}

impl RetryPolicy {
    /// The timeout for attempt number `attempt` (0-based): exponential
    /// backoff over the base round trip.
    pub fn timeout(&self, base: SimDuration, attempt: u32) -> SimDuration {
        base.saturating_mul(u64::from(self.timeout_factor) << attempt.min(6))
    }

    /// Checks the knobs against their documented domains.
    pub fn validate(&self) -> Result<(), AmpomError> {
        if self.timeout_factor == 0 {
            return Err(AmpomError::InvalidConfig(
                "retry.timeout_factor must be at least 1".into(),
            ));
        }
        if self.max_retries == 0 {
            return Err(AmpomError::InvalidConfig(
                "retry.max_retries must be at least 1 (the protocol's termination \
                 guarantee needs retries enabled)"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// What the migrant does once its retry budget for a page is exhausted
/// (the graceful-degradation arm of the protocol).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Wait out the deputy's downtime, then start a fresh retry cycle.
    #[default]
    StallReconnect,
    /// Give up on demand paging: one residual eager copy of every page
    /// still remote, then continue locally.
    EagerFallback,
    /// Migrate back home: write dirty pages back, pay the migration base
    /// cost, and finish the run co-located with the (former) deputy.
    Remigrate,
}

impl FailurePolicy {
    /// All policies, for sweeps and demos.
    pub const ALL: [FailurePolicy; 3] = [
        FailurePolicy::StallReconnect,
        FailurePolicy::EagerFallback,
        FailurePolicy::Remigrate,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            FailurePolicy::StallReconnect => "stall-reconnect",
            FailurePolicy::EagerFallback => "eager-fallback",
            FailurePolicy::Remigrate => "remigrate",
        }
    }
}

/// What the migrant should do after a demand-wait timeout fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryStep {
    /// Budget remains: re-send the demanded page (the attempt counter has
    /// already advanced, so the next timeout backs off further).
    Retry,
    /// Budget exhausted: invoke the given degradation policy.
    Degrade(FailurePolicy),
}

/// The transport-agnostic core of the recovery protocol: attempt
/// counting, exponential-backoff deadlines, and the escalation to a
/// [`FailurePolicy`] once the retry budget is spent.
///
/// Both demand-wait loops — the simulated `FaultInjector` and the live
/// socket client in `ampom-rpc` — drive this one state machine, so the
/// protocol's arithmetic exists in exactly one place. The
/// `MAX_POLICY_CYCLES` termination guarantee (a pathological schedule
/// is eventually forced onto the eager fallback) lives here too and
/// therefore applies to real sockets as well.
#[derive(Debug, Clone)]
pub struct RetrySchedule {
    retry: RetryPolicy,
    policy: FailurePolicy,
    /// One demand round trip on the calibrated link: `2·t0 + td`.
    base_timeout: SimDuration,
    attempt: u32,
    policy_cycles: u32,
}

impl RetrySchedule {
    /// A schedule with an explicitly calibrated base timeout.
    pub fn new(retry: RetryPolicy, policy: FailurePolicy, base_timeout: SimDuration) -> Self {
        RetrySchedule {
            retry,
            policy,
            base_timeout,
            attempt: 0,
            policy_cycles: 0,
        }
    }

    /// A schedule whose base timeout is one request/reply round trip on
    /// `link` (`2·t0 + td`, the Eq. 3 quantity).
    pub fn for_link(retry: RetryPolicy, policy: FailurePolicy, link: LinkConfig) -> Self {
        Self::new(retry, policy, link.rtt() + page_transfer_time(&link))
    }

    /// The calibrated base timeout.
    pub fn base_timeout(&self) -> SimDuration {
        self.base_timeout
    }

    /// Starts a fresh demand wait: the attempt counter resets (each page
    /// gets the full budget) while the policy-cycle counter persists.
    pub fn begin_wait(&mut self) {
        self.attempt = 0;
    }

    /// The timeout of the current attempt (exponential backoff).
    pub fn current_timeout(&self) -> SimDuration {
        self.retry.timeout(self.base_timeout, self.attempt)
    }

    /// The deadline the current attempt's timer fires at.
    pub fn deadline_after(&self, now: SimTime) -> SimTime {
        now + self.current_timeout()
    }

    /// Advances the state machine after a timeout: retry while budget
    /// remains, otherwise degrade. Past `MAX_POLICY_CYCLES` policy
    /// invocations the eager fallback is forced so every run terminates.
    pub fn on_timeout(&mut self) -> RetryStep {
        if self.attempt < self.retry.max_retries {
            self.attempt += 1;
            RetryStep::Retry
        } else {
            self.policy_cycles += 1;
            RetryStep::Degrade(if self.policy_cycles > MAX_POLICY_CYCLES {
                FailurePolicy::EagerFallback
            } else {
                self.policy
            })
        }
    }

    /// The current (0-based) attempt number.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// How many times the failure policy has been invoked.
    pub fn policy_cycles(&self) -> u32 {
        self.policy_cycles
    }
}

/// The complete failure model of one run: message-level faults on both
/// link directions, the deputy's crash/restart timetable, and the
/// migrant's recovery knobs.
///
/// The default profile is **null** — no losses, no jitter, no downtime —
/// and a null profile leaves the runner on its exact fault-free code
/// path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultProfile {
    /// Message loss/burst/jitter knobs, applied to paging requests and
    /// page replies alike.
    pub faults: FaultSpec,
    /// Scheduled deputy outages (crash/restart events).
    pub downtime: DowntimeSchedule,
    /// Timeout and retry budget.
    pub retry: RetryPolicy,
    /// Degradation choice after the retry budget is spent.
    pub policy: FailurePolicy,
}

impl FaultProfile {
    /// A profile that drops each message independently with probability
    /// `loss_rate`, with default retry knobs and policy.
    pub fn lossy(loss_rate: f64) -> Self {
        FaultProfile {
            faults: FaultSpec::lossy(loss_rate),
            ..FaultProfile::default()
        }
    }

    /// Replaces the message-level fault knobs wholesale (loss, burst
    /// length, jitter) — the chaos scenarios compose profiles this way.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Adds a deputy downtime schedule.
    pub fn with_downtime(mut self, downtime: DowntimeSchedule) -> Self {
        self.downtime = downtime;
        self
    }

    /// Selects the failure policy.
    pub fn with_policy(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the retry knobs.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// True if this profile can never perturb a run — the runner then
    /// skips the reliability layer entirely.
    pub fn is_null(&self) -> bool {
        self.faults.is_null() && self.downtime.is_empty()
    }

    /// Checks every knob against its documented domain.
    pub fn validate(&self) -> Result<(), AmpomError> {
        self.faults.validate()?;
        self.retry.validate()
    }
}

/// Per-run fault state: the two fate streams (one per link direction),
/// the calibrated base timeout, and the recovery counters.
///
/// Both plans fork from the run's seed, so a sweep cell's faults depend
/// only on its `(seed, message index)` — parallel sweeps stay
/// bit-identical to serial ones.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    pub(crate) profile: FaultProfile,
    pub(crate) request_plan: FaultPlan,
    pub(crate) reply_plan: FaultPlan,
    /// The shared retry/backoff/degradation state machine.
    pub(crate) schedule: RetrySchedule,
    pub(crate) stats: FaultStats,
}

impl FaultInjector {
    pub(crate) fn new(profile: &FaultProfile, link: LinkConfig, seed: u64) -> Self {
        let rng = SimRng::seed_from_u64(seed);
        FaultInjector {
            profile: profile.clone(),
            request_plan: FaultPlan::new(profile.faults, rng.fork(0x0072_6571)),
            reply_plan: FaultPlan::new(profile.faults, rng.fork(0x0072_6570)),
            schedule: RetrySchedule::for_link(profile.retry, profile.policy, link),
            stats: FaultStats::default(),
        }
    }

    /// If the deputy is down at `now`, the instant it comes back up
    /// (syscall forwarding must wait for it); `None` when it is up.
    pub(crate) fn syscall_delay(&mut self, now: SimTime) -> Option<SimTime> {
        if self.profile.downtime.is_down(now) {
            let up = self.profile.downtime.next_up(now);
            self.stats.deputy_unavailable += 1;
            self.stats.recovery_time += up.since(now);
            Some(up)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_timeout_backs_off_exponentially() {
        let retry = RetryPolicy::default();
        let base = SimDuration::from_micros(100);
        assert_eq!(retry.timeout(base, 0), SimDuration::from_micros(400));
        assert_eq!(retry.timeout(base, 1), SimDuration::from_micros(800));
        assert_eq!(retry.timeout(base, 3), SimDuration::from_micros(3200));
        // The exponent saturates so huge attempt numbers can't overflow.
        assert_eq!(retry.timeout(base, 40), retry.timeout(base, 6));
    }

    #[test]
    fn base_timeout_matches_eq3_round_trip() {
        let link = ampom_net::calibration::fast_ethernet();
        let inj = FaultInjector::new(&FaultProfile::lossy(0.01), link, 7);
        assert_eq!(
            inj.schedule.base_timeout(),
            link.rtt() + page_transfer_time(&link)
        );
    }

    #[test]
    fn schedule_backs_off_then_degrades() {
        let retry = RetryPolicy {
            timeout_factor: 2,
            max_retries: 3,
        };
        let base = SimDuration::from_micros(100);
        let mut sched = RetrySchedule::new(retry, FailurePolicy::StallReconnect, base);
        sched.begin_wait();
        assert_eq!(sched.current_timeout(), SimDuration::from_micros(200));
        assert_eq!(sched.on_timeout(), RetryStep::Retry);
        assert_eq!(sched.current_timeout(), SimDuration::from_micros(400));
        assert_eq!(sched.on_timeout(), RetryStep::Retry);
        assert_eq!(sched.on_timeout(), RetryStep::Retry);
        // Retry budget exhausted: the configured policy fires.
        assert_eq!(
            sched.on_timeout(),
            RetryStep::Degrade(FailurePolicy::StallReconnect)
        );
        assert_eq!(sched.policy_cycles(), 1);
        // A fresh wait resets the backoff but not the cycle count.
        sched.begin_wait();
        assert_eq!(sched.attempt(), 0);
        assert_eq!(sched.current_timeout(), SimDuration::from_micros(200));
        assert_eq!(sched.policy_cycles(), 1);
    }

    #[test]
    fn schedule_forces_fallback_past_cycle_cap() {
        let retry = RetryPolicy {
            timeout_factor: 1,
            max_retries: 1,
        };
        let mut sched = RetrySchedule::new(
            retry,
            FailurePolicy::StallReconnect,
            SimDuration::from_micros(10),
        );
        for _ in 0..MAX_POLICY_CYCLES {
            sched.begin_wait();
            assert_eq!(sched.on_timeout(), RetryStep::Retry);
            assert_eq!(
                sched.on_timeout(),
                RetryStep::Degrade(FailurePolicy::StallReconnect)
            );
        }
        // Past the cap every further cycle is forced onto the eager
        // fallback so a dead deputy cannot stall a run forever.
        sched.begin_wait();
        assert_eq!(sched.on_timeout(), RetryStep::Retry);
        assert_eq!(
            sched.on_timeout(),
            RetryStep::Degrade(FailurePolicy::EagerFallback)
        );
    }

    #[test]
    fn schedule_deadline_tracks_now() {
        let sched = RetrySchedule::for_link(
            RetryPolicy::default(),
            FailurePolicy::StallReconnect,
            ampom_net::calibration::fast_ethernet(),
        );
        let now = SimTime::from_nanos(1_000_000);
        assert_eq!(sched.deadline_after(now), now + sched.current_timeout());
    }

    #[test]
    fn profile_validation_catches_bad_knobs() {
        assert!(FaultProfile::lossy(0.02).validate().is_ok());
        assert!(FaultProfile::lossy(1.5).validate().is_err());
        let p = FaultProfile::default().with_retry(RetryPolicy {
            timeout_factor: 0,
            max_retries: 3,
        });
        assert!(p.validate().is_err());
        let p = FaultProfile::default().with_retry(RetryPolicy {
            timeout_factor: 4,
            max_retries: 0,
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn null_profile_detection() {
        assert!(FaultProfile::default().is_null());
        assert!(!FaultProfile::lossy(0.01).is_null());
        let with_outage = FaultProfile::default().with_downtime(DowntimeSchedule::single(
            SimTime::from_nanos(1),
            SimTime::from_nanos(2),
        ));
        assert!(!with_outage.is_null());
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(FailurePolicy::StallReconnect.name(), "stall-reconnect");
        assert_eq!(FailurePolicy::EagerFallback.name(), "eager-fallback");
        assert_eq!(FailurePolicy::Remigrate.name(), "remigrate");
        assert_eq!(FailurePolicy::ALL.len(), 3);
    }
}
