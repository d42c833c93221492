//! # ampom-core — lightweight process migration and adaptive memory
//! prefetching
//!
//! The primary contribution of Ho, Wang & Lau, *"Lightweight Process
//! Migration and Memory Prefetching in openMosix"* (IPDPS 2008),
//! reimplemented as a library over the simulated substrates in
//! `ampom-sim` / `ampom-net` / `ampom-mem` / `ampom-workloads`.
//!
//! ## The algorithm (paper §3)
//!
//! After a lightweight migration moves only three pages (plus the master
//! page table), the migrant demand-pages from its home node. AMPoM hides
//! those round trips by prefetching the migrant's **dependent zone**:
//!
//! 1. every page fault is recorded in a [`window::LookbackWindow`] of
//!    length 20 together with its time and the CPU utilisation,
//! 2. a [`census`] finds stride-1…4 reference streams in the window and
//!    the *outstanding* (still live) streams with their pivots,
//! 3. the [`score`] module computes the spatial locality score
//!    `S = Σ stride_d/(l·d)` (Eq. 1),
//! 4. the [`zone`] module sizes the dependent zone
//!    `N = (c'/c)·S·r·(2t0 + td + 1/r)` (Eq. 3) and splits it across the
//!    pivots,
//! 5. the [`prefetcher::AmpomPrefetcher`] batches the missing zone pages
//!    into the remote paging request sent at the fault.
//!
//! ## The system (paper §2)
//!
//! * [`migration`] — the freeze-time mechanisms of openMosix, NoPrefetch,
//!   AMPoM and the original FFA (Figure 2),
//! * [`deputy`] — the home-node deputy serving remote paging and forwarded
//!   system calls,
//! * [`monitor`] — the modified oM_infoD measuring RTT and available
//!   bandwidth,
//! * [`cluster`] — the two-node network path with NIC counters and
//!   optional cross traffic,
//! * [`reliability`] — the failure model: lossy links, deputy outages,
//!   and the migrant's retry/timeout/fallback recovery protocol,
//! * [`transport`] — the one migrant loop every forward run drives, and
//!   the simulated deputy transport behind it,
//! * [`runner`] — the run configuration and the simulated runner (the
//!   loop over a [`transport::SimulatedTransport`]) producing
//!   [`metrics::RunReport`]s.
//!
//! The §7 future-work claim — cheap freezes let a scheduler migrate
//! aggressively — is measured at cluster scale by `ampom-cluster`, which
//! prices each move with [`migration::freeze_time`] and
//! [`lifecycle::LifecycleCostModel`].
//!
//! ## Quick start
//!
//! [`experiment::Experiment`] is the single entry point: describe the
//! run declaratively, `build()` validates it into a typed
//! [`error::AmpomError`] instead of panicking, `run()` yields a
//! [`metrics::RunReport`].
//!
//! ```
//! use ampom_core::{Experiment, Scheme};
//! use ampom_sim::time::SimDuration;
//!
//! let report = Experiment::new(Scheme::Ampom)
//!     .sequential(512, SimDuration::from_micros(10))
//!     .seed(7)
//!     .build()
//!     .expect("valid experiment")
//!     .run()
//!     .expect("run succeeds");
//! assert!(report.pages_prefetched > 0);
//! assert!(report.freeze_time < SimDuration::from_millis(200));
//! ```
//!
//! To reproduce a whole figure-grid in one call, describe it as a
//! [`sweep::SweepSpec`] — the sweep engine shards the cartesian product
//! of schemes × workloads × links across a thread pool with per-cell
//! deterministic seeds, so the parallel result is bit-identical to a
//! serial run:
//!
//! ```
//! use ampom_core::sweep::SweepSpec;
//! use ampom_core::WorkloadSpec;
//! use ampom_sim::time::SimDuration;
//!
//! let report = SweepSpec::new()
//!     .workload(WorkloadSpec::Sequential {
//!         pages: 256,
//!         cpu: SimDuration::from_micros(10),
//!     })
//!     .repeats(2)
//!     .run()
//!     .expect("valid sweep");
//! assert_eq!(report.cells.len(), 3); // openMosix, NoPrefetch, AMPoM
//! ```

pub mod census;
pub mod chaos;
pub mod cluster;
pub mod deputy;
pub mod error;
pub mod experiment;
pub mod lifecycle;
pub mod metrics;
pub mod migration;
pub mod monitor;
pub mod multirun;
pub mod policy;
pub mod prefetcher;
pub mod reliability;
pub mod runner;
pub mod score;
pub mod slo;
pub mod sweep;
pub mod transport;
pub mod validate;
pub mod vm;
pub mod window;
pub mod zone;

pub use chaos::{scenario, scenarios, ChaosScenario, ScenarioOutcome};
pub use error::AmpomError;
pub use experiment::{Experiment, WorkloadSpec};
pub use lifecycle::{run_lifecycle, LifecycleConfig, LifecycleReport, WritebackSpec};
pub use metrics::RunReport;
pub use migration::Scheme;
pub use multirun::{run_multi, MigrantSpec, MultiRunReport, MultiRunSpec};
pub use policy::{
    Fetchable, IndigoConfig, IndigoPrefetcher, LeapConfig, LeapPrefetcher, PolicySpec,
    PrefetchFeedback, PrefetchObservation, Prefetcher,
};
pub use prefetcher::{AmpomConfig, AmpomPrefetcher};
pub use reliability::{FailurePolicy, FaultProfile, RetryPolicy, RetrySchedule, RetryStep};
pub use runner::{run_workload, try_run_workload, RunConfig};
pub use slo::{QuantileSketch, SloOutcome, SloReport, SloSpec, SloVerdict};
pub use sweep::{SweepReport, SweepSpec};
pub use transport::{run_with_transport, SimulatedTransport, Transport};
