//! The `Experiment` builder — the single entry point for running one
//! (workload, scheme) measurement.
//!
//! [`crate::runner::RunConfig`] grew organically and ended up half
//! builder, half struct-literal; every harness poked fields directly and
//! misconfiguration panicked deep inside the simulation. [`Experiment`]
//! fronts it with a coherent fluent API that validates up front and
//! returns [`AmpomError`]:
//!
//! ```
//! use ampom_core::experiment::Experiment;
//! use ampom_core::migration::Scheme;
//! use ampom_sim::time::SimDuration;
//!
//! let report = Experiment::new(Scheme::Ampom)
//!     .sequential(512, SimDuration::from_micros(10))
//!     .repeats(1)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(report.pages_prefetched > 0);
//! ```
//!
//! Workloads are described declaratively by [`WorkloadSpec`] so the
//! [`crate::sweep`] engine can rebuild them inside worker threads with
//! per-cell deterministic seeds. One-off workload objects that have no
//! spec (trace replays, composed phases) run through
//! [`Experiment::run_on`].

use ampom_net::link::LinkConfig;
use ampom_sim::rng::SimRng;
use ampom_sim::time::SimDuration;
use ampom_workloads::build_kernel;
use ampom_workloads::churn::BurstyChurn;
use ampom_workloads::dgemm::DgemmSmallWs;
use ampom_workloads::memref::Workload;
use ampom_workloads::pointer_chase::PointerChase;
use ampom_workloads::sizes::{Kernel, ProblemSize};
use ampom_workloads::synthetic::{Interleaved, Scripted, Sequential, Strided, UniformRandom};
use ampom_workloads::zipf::ZipfianKv;

use crate::error::AmpomError;
use crate::metrics::RunReport;
use crate::migration::Scheme;
use crate::multirun::{MultiRunReport, MultiRunSpec};
use crate::policy::PolicySpec;
use crate::prefetcher::AmpomConfig;
use crate::reliability::{FailurePolicy, FaultProfile};
use crate::runner::{try_run_workload, CrossTrafficSpec, RunConfig, SyscallProfile};

/// A declarative, cloneable workload description.
///
/// Unlike a `Box<dyn Workload>` (a stateful iterator), a spec can be
/// shipped across threads and instantiated any number of times — each
/// [`WorkloadSpec::build`] call yields a fresh stream. Stochastic
/// workloads take their randomness from the build seed, so the same
/// `(spec, seed)` pair always produces the same reference stream.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum WorkloadSpec {
    /// One of the paper's four HPCC kernels at a Table 1 size.
    Kernel {
        /// Which kernel.
        kernel: Kernel,
        /// Problem/memory size.
        size: ProblemSize,
    },
    /// A pure sequential page sweep.
    Sequential {
        /// Data pages swept once.
        pages: u64,
        /// CPU time per touch.
        cpu: SimDuration,
    },
    /// Interleaved sequential streams (STREAM-like).
    Interleaved {
        /// Number of concurrent streams.
        streams: u64,
        /// Pages per stream.
        stream_pages: u64,
        /// CPU time per touch.
        cpu: SimDuration,
    },
    /// A constant-stride sweep.
    Strided {
        /// Data pages.
        pages: u64,
        /// Stride between touches.
        stride: u64,
        /// CPU time per touch.
        cpu: SimDuration,
    },
    /// Uniform random touches (GUPS-like).
    UniformRandom {
        /// Page pool size.
        pages: u64,
        /// Number of touches.
        touches: u64,
        /// CPU time per touch.
        cpu: SimDuration,
    },
    /// An explicit page-reference script.
    Scripted {
        /// Page pool size.
        pages: u64,
        /// The reference sequence.
        refs: std::sync::Arc<Vec<u64>>,
        /// CPU time per touch.
        cpu: SimDuration,
    },
    /// DGEMM with a working set smaller than its allocation (Figure 10).
    DgemmSmallWs {
        /// Total allocation in bytes.
        alloc_bytes: u64,
        /// Working-set size in bytes.
        working_bytes: u64,
    },
    /// A random-cycle pointer chase (graph traversal): locality-breaking.
    PointerChase {
        /// Heap size in bytes.
        data_bytes: u64,
        /// Pointer dereferences to walk.
        hops: u64,
    },
    /// Zipfian key-value reuse over hash-scattered pages: locality-breaking.
    ZipfianKv {
        /// Heap size in bytes.
        data_bytes: u64,
        /// Distinct single-page keys.
        keys: u64,
        /// Zipf exponent (0 = uniform; web caches fit ≈ 0.8–1.0).
        exponent: f64,
        /// Lookup operations to issue.
        ops: u64,
    },
    /// Bursty churn: a scattered hot set partially replaced every epoch.
    BurstyChurn {
        /// Heap size in bytes.
        data_bytes: u64,
        /// Bursts (epochs) of activity.
        epochs: u32,
        /// Hot-set size in pages.
        hot_pages: u64,
        /// Touches per epoch.
        touches_per_epoch: u64,
        /// Percentage of the hot set replaced after each epoch.
        churn_pct: u32,
    },
}

impl WorkloadSpec {
    /// Spec for an HPCC kernel cell.
    pub fn kernel(kernel: Kernel, size: ProblemSize) -> Self {
        WorkloadSpec::Kernel { kernel, size }
    }

    /// Short human-readable label, used by sweep reports and progress.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Kernel { kernel, size } => {
                format!("{}/{}MB", kernel.name(), size.memory_mb)
            }
            WorkloadSpec::Sequential { pages, .. } => format!("Sequential({pages})"),
            WorkloadSpec::Interleaved {
                streams,
                stream_pages,
                ..
            } => {
                format!("Interleaved({streams}x{stream_pages})")
            }
            WorkloadSpec::Strided { pages, stride, .. } => {
                format!("Strided({pages},s{stride})")
            }
            WorkloadSpec::UniformRandom { pages, touches, .. } => {
                format!("UniformRandom({pages},{touches})")
            }
            WorkloadSpec::Scripted { refs, .. } => format!("Scripted({})", refs.len()),
            WorkloadSpec::DgemmSmallWs {
                alloc_bytes,
                working_bytes,
            } => format!(
                "DgemmSmallWs({}MB,ws{}MB)",
                alloc_bytes >> 20,
                working_bytes >> 20
            ),
            WorkloadSpec::PointerChase { data_bytes, hops } => {
                format!("PointerChase({}MB,{hops})", data_bytes >> 20)
            }
            WorkloadSpec::ZipfianKv {
                data_bytes,
                keys,
                exponent,
                ops,
            } => format!(
                "ZipfianKV({}MB,k{keys},s{exponent},{ops})",
                data_bytes >> 20
            ),
            WorkloadSpec::BurstyChurn {
                data_bytes,
                epochs,
                hot_pages,
                churn_pct,
                ..
            } => format!(
                "BurstyChurn({}MB,{epochs}x{hot_pages},c{churn_pct}%)",
                data_bytes >> 20
            ),
        }
    }

    /// Checks the spec can produce at least one reference.
    pub fn validate(&self) -> Result<(), AmpomError> {
        let fail = |why: String| Err(AmpomError::WorkloadExhausted(why));
        match self {
            WorkloadSpec::Kernel { size, .. } if size.memory_mb == 0 => {
                fail("kernel memory size is 0 MB".into())
            }
            WorkloadSpec::Sequential { pages: 0, .. } => fail("sequential sweep of 0 pages".into()),
            WorkloadSpec::Interleaved {
                streams,
                stream_pages,
                ..
            } if *streams == 0 || *stream_pages == 0 => fail(format!(
                "interleave of {streams} streams x {stream_pages} pages"
            )),
            WorkloadSpec::Strided { pages, stride, .. }
                if *pages == 0 || *stride == 0 || *stride > *pages =>
            {
                fail(format!(
                    "strided sweep of {pages} pages with stride {stride}"
                ))
            }
            WorkloadSpec::UniformRandom { pages, touches, .. } if *pages == 0 || *touches == 0 => {
                fail(format!("{touches} random touches over {pages} pages"))
            }
            WorkloadSpec::Scripted { refs, .. } if refs.is_empty() => {
                fail("empty reference script".into())
            }
            WorkloadSpec::Scripted { pages, refs, .. } if refs.iter().any(|&r| r >= *pages) => {
                fail(format!(
                    "script references a page beyond its {pages}-page pool"
                ))
            }
            WorkloadSpec::DgemmSmallWs {
                alloc_bytes,
                working_bytes,
            } if *working_bytes == 0 || *working_bytes > *alloc_bytes => fail(format!(
                "DGEMM working set {working_bytes}B outside (0, alloc {alloc_bytes}B]"
            )),
            WorkloadSpec::PointerChase { data_bytes, hops }
                if *hops == 0 || *data_bytes < 2 * ampom_mem::page::PAGE_SIZE =>
            {
                fail(format!("pointer chase of {hops} hops over {data_bytes}B"))
            }
            WorkloadSpec::ZipfianKv {
                keys,
                exponent,
                ops,
                data_bytes,
            } if *keys == 0
                || *ops == 0
                || !exponent.is_finite()
                || *exponent < 0.0
                || *keys > *data_bytes / ampom_mem::page::PAGE_SIZE =>
            {
                fail(format!(
                    "{ops} Zipf(s={exponent}) ops over {keys} keys in {data_bytes}B"
                ))
            }
            WorkloadSpec::BurstyChurn {
                data_bytes,
                epochs,
                hot_pages,
                touches_per_epoch,
                churn_pct,
            } if *epochs == 0
                || *hot_pages == 0
                || *touches_per_epoch == 0
                || *churn_pct > 100
                || *hot_pages >= *data_bytes / ampom_mem::page::PAGE_SIZE =>
            {
                fail(format!(
                    "{epochs} epochs x {touches_per_epoch} touches over a \
                     {hot_pages}-page hot set ({churn_pct}% churn) in {data_bytes}B"
                ))
            }
            _ => Ok(()),
        }
    }

    /// Instantiates a fresh workload stream. Stochastic specs draw from
    /// `seed`; deterministic ones ignore it.
    pub fn build(&self, seed: u64) -> Result<Box<dyn Workload>, AmpomError> {
        self.validate()?;
        Ok(match self {
            WorkloadSpec::Kernel { kernel, size } => build_kernel(*kernel, size, seed),
            WorkloadSpec::Sequential { pages, cpu } => Box::new(Sequential::new(*pages, *cpu)),
            WorkloadSpec::Interleaved {
                streams,
                stream_pages,
                cpu,
            } => Box::new(Interleaved::new(*streams, *stream_pages, *cpu)),
            WorkloadSpec::Strided { pages, stride, cpu } => {
                Box::new(Strided::new(*pages, *stride, *cpu))
            }
            WorkloadSpec::UniformRandom {
                pages,
                touches,
                cpu,
            } => Box::new(UniformRandom::new(
                *pages,
                *touches,
                *cpu,
                SimRng::seed_from_u64(seed),
            )),
            WorkloadSpec::Scripted { pages, refs, cpu } => {
                Box::new(Scripted::new(*pages, refs, *cpu))
            }
            WorkloadSpec::DgemmSmallWs {
                alloc_bytes,
                working_bytes,
            } => Box::new(DgemmSmallWs::new(*alloc_bytes, *working_bytes)),
            WorkloadSpec::PointerChase { data_bytes, hops } => Box::new(PointerChase::new(
                *data_bytes,
                *hops,
                SimRng::seed_from_u64(seed),
            )),
            WorkloadSpec::ZipfianKv {
                data_bytes,
                keys,
                exponent,
                ops,
            } => Box::new(ZipfianKv::new(
                *data_bytes,
                *keys,
                *exponent,
                *ops,
                SimRng::seed_from_u64(seed),
            )),
            WorkloadSpec::BurstyChurn {
                data_bytes,
                epochs,
                hot_pages,
                touches_per_epoch,
                churn_pct,
            } => Box::new(BurstyChurn::new(
                *data_bytes,
                *epochs,
                *hot_pages,
                *touches_per_epoch,
                *churn_pct,
                BurstyChurn::THINK_TIME,
                SimRng::seed_from_u64(seed),
            )),
        })
    }
}

/// A fully described experiment: one migration scheme, one workload,
/// every runner knob, and a repeat count.
///
/// Setters consume and return `self` so experiments chain fluently;
/// [`Experiment::build`] validates the whole configuration and
/// [`Experiment::run`] executes it. The experiment is `Clone`, so grids
/// can be stamped out from a template.
#[derive(Debug, Clone)]
pub struct Experiment {
    cfg: RunConfig,
    workload: Option<WorkloadSpec>,
    workload_seed: Option<u64>,
    repeats: u32,
}

impl Experiment {
    /// Starts an experiment for `scheme` on the standard cluster LAN.
    pub fn new(scheme: Scheme) -> Self {
        Experiment {
            cfg: RunConfig::new(scheme),
            workload: None,
            workload_seed: None,
            repeats: 1,
        }
    }

    /// Sets the workload from a declarative spec.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// Shorthand for an HPCC kernel workload.
    pub fn kernel(self, kernel: Kernel, size: ProblemSize) -> Self {
        self.workload(WorkloadSpec::kernel(kernel, size))
    }

    /// Shorthand for a sequential sweep workload.
    pub fn sequential(self, pages: u64, cpu: SimDuration) -> Self {
        self.workload(WorkloadSpec::Sequential { pages, cpu })
    }

    /// Sets the home↔destination link.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.cfg.link = link;
        self
    }

    /// Enables the Figure 2 event trace.
    pub fn trace(mut self) -> Self {
        self.cfg.trace = true;
        self
    }

    /// Replaces the AMPoM tunables.
    pub fn ampom(mut self, ampom: AmpomConfig) -> Self {
        self.cfg.ampom = ampom;
        self
    }

    /// Selects the prefetch policy driving the dependent-zone decision
    /// (AMPoM, Leap, or INDIGO). The default, [`PolicySpec::Ampom`], is
    /// bit-identical to the historical path — golden fingerprints pin it.
    /// Policy tunables are validated by [`Experiment::build`] into
    /// [`AmpomError::InvalidPolicy`].
    pub fn prefetch_policy(mut self, policy: PolicySpec) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Adds foreign traffic on the reply link.
    pub fn cross_traffic(mut self, spec: CrossTrafficSpec) -> Self {
        self.cfg.cross_traffic = Some(spec);
        self
    }

    /// Adds a forwarded-system-call profile (the home dependency).
    pub fn syscalls(mut self, profile: SyscallProfile) -> Self {
        self.cfg.syscalls = Some(profile);
        self
    }

    /// Samples the run's time series every `every_faults` faults.
    pub fn sample_series(mut self, every_faults: u64) -> Self {
        self.cfg.sample_series_every = Some(every_faults);
        self
    }

    /// Caps destination-node RAM in MB (swap-over-network beyond it).
    pub fn resident_limit_mb(mut self, mb: u64) -> Self {
        self.cfg.resident_limit_mb = Some(mb);
        self
    }

    /// Attaches a failure model: lossy links, deputy downtime, and the
    /// recovery protocol's retry/timeout knobs.
    pub fn faults(mut self, profile: FaultProfile) -> Self {
        self.cfg.faults = Some(profile);
        self
    }

    /// Selects the graceful-degradation policy for deputy failure. If no
    /// fault profile is attached yet, starts from the (otherwise null)
    /// default profile.
    pub fn failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.cfg.faults = Some(
            self.cfg
                .faults
                .take()
                .unwrap_or_default()
                .with_policy(policy),
        );
        self
    }

    /// Seeds both the workload build and the run's stochastic elements.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self.workload_seed = Some(seed);
        self
    }

    /// Seeds only the workload build, leaving the cross-traffic seed at
    /// its [`RunConfig`] default. Useful when reproducing historical runs
    /// that seeded the two independently.
    pub fn workload_seed(mut self, seed: u64) -> Self {
        self.workload_seed = Some(seed);
        self
    }

    /// Number of repeats [`Experiment::run_all`] executes (confidence
    /// intervals need ≥ 2; seeds are derived per repeat).
    pub fn repeats(mut self, n: u32) -> Self {
        self.repeats = n;
        self
    }

    /// Validates the whole experiment without running it.
    pub fn validate(&self) -> Result<(), AmpomError> {
        self.cfg.validate()?;
        if self.repeats == 0 {
            return Err(AmpomError::InvalidConfig(
                "repeats must be at least 1".into(),
            ));
        }
        if let Some(spec) = &self.workload {
            spec.validate()?;
        }
        Ok(())
    }

    /// Validates and returns the experiment, ready to run.
    pub fn build(self) -> Result<Self, AmpomError> {
        self.validate()?;
        Ok(self)
    }

    /// The underlying runner configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The declarative workload, if one was set.
    pub fn workload_spec(&self) -> Option<&WorkloadSpec> {
        self.workload.as_ref()
    }

    /// The configured repeat count.
    pub fn repeat_count(&self) -> u32 {
        self.repeats
    }

    /// The seed used to build the workload for repeat `r` (repeat 0 uses
    /// the base seed unchanged, so `run()` equals `run_all()[0]`).
    pub fn seed_for_repeat(&self, r: u32) -> u64 {
        let base = self.workload_seed.unwrap_or(self.cfg.seed);
        if r == 0 {
            base
        } else {
            SimRng::seed_from_u64(base).fork(u64::from(r)).base_seed()
        }
    }

    /// Runs the experiment once (repeat 0).
    pub fn run(&self) -> Result<RunReport, AmpomError> {
        self.run_repeat(0)
    }

    /// Runs every repeat, each with its derived seed.
    pub fn run_all(&self) -> Result<Vec<RunReport>, AmpomError> {
        (0..self.repeats).map(|r| self.run_repeat(r)).collect()
    }

    /// Runs one specific repeat.
    pub fn run_repeat(&self, r: u32) -> Result<RunReport, AmpomError> {
        self.validate()?;
        let spec = self.workload.as_ref().ok_or(AmpomError::MissingWorkload)?;
        let seed = self.seed_for_repeat(r);
        let mut workload = spec.build(seed)?;
        let mut cfg = self.cfg.clone();
        cfg.seed = if self.workload_seed.is_some() && self.workload_seed != Some(self.cfg.seed) {
            // Independent seeding: the cross-traffic stream keeps the
            // RunConfig seed (derived per repeat) while the workload uses
            // its own.
            derive_cfg_seed(self.cfg.seed, r)
        } else {
            seed
        };
        try_run_workload(workload.as_mut(), &cfg)
    }

    /// Runs against a caller-provided workload object (trace replays,
    /// composed phases, anything without a [`WorkloadSpec`]).
    pub fn run_on(&self, workload: &mut dyn Workload) -> Result<RunReport, AmpomError> {
        self.cfg.validate()?;
        if self.repeats == 0 {
            return Err(AmpomError::InvalidConfig(
                "repeats must be at least 1".into(),
            ));
        }
        try_run_workload(workload, &self.cfg)
    }

    /// Runs `n` concurrent copies of the workload against one shared
    /// deputy ([`crate::multirun::run_multi`]). Migrant 0 is seeded
    /// exactly like repeat 0 of the single-migrant run, so
    /// `run_multi(1)` reproduces [`Experiment::run`] bit-identically;
    /// later migrants fork their workload seed deterministically.
    pub fn run_multi(&self, n: u32) -> Result<MultiRunReport, AmpomError> {
        self.validate()?;
        let spec = self.workload.as_ref().ok_or(AmpomError::MissingWorkload)?;
        let multi =
            MultiRunSpec::homogeneous(self.cfg.clone(), spec.clone(), self.seed_for_repeat(0), n);
        crate::multirun::run_multi(&multi)
    }
}

fn derive_cfg_seed(base: u64, r: u32) -> u64 {
    if r == 0 {
        base
    } else {
        SimRng::seed_from_u64(base).fork(u64::from(r)).base_seed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_net::calibration::broadband;

    const CPU: SimDuration = SimDuration::from_micros(10);

    #[test]
    fn builder_runs_a_sequential_ampom_experiment() {
        let report = Experiment::new(Scheme::Ampom)
            .sequential(512, CPU)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(report.pages_prefetched > 0);
        assert_eq!(report.scheme, Scheme::Ampom);
    }

    #[test]
    fn run_matches_legacy_run_workload() {
        let via_builder = Experiment::new(Scheme::NoPrefetch)
            .sequential(256, CPU)
            .run()
            .unwrap();
        let mut w = Sequential::new(256, CPU);
        let legacy = crate::runner::run_workload(&mut w, &RunConfig::new(Scheme::NoPrefetch));
        assert_eq!(via_builder.fingerprint(), legacy.fingerprint());
    }

    #[test]
    fn a_cap_at_or_above_the_image_is_no_cap() {
        // Caps far past a 16 MB STREAM's image, up to ones whose byte
        // count overflows a u64: each run is the uncapped run.
        let stream = || {
            let size = ProblemSize {
                problem: 0,
                memory_mb: 16,
            };
            Experiment::new(Scheme::Ampom).kernel(Kernel::Stream, size)
        };
        let uncapped = stream().run().unwrap();
        assert_eq!(uncapped.pages_evicted, 0);
        for mb in [1 << 30, 1 << 44, u64::MAX] {
            let capped = stream().resident_limit_mb(mb).run().unwrap();
            assert_eq!(capped.pages_evicted, 0, "{mb} MB");
            assert_eq!(capped.fingerprint(), uncapped.fingerprint(), "{mb} MB");
        }
    }

    #[test]
    fn a_zone_cap_past_the_space_runs_like_a_smaller_one() {
        // The validator accepts any cap at or above the read-ahead floor.
        // Past the 256-page space every such cap selects the same zones,
        // and none may allocate by its size.
        let run = |cap: u64| {
            Experiment::new(Scheme::Ampom)
                .sequential(256, CPU)
                .ampom(AmpomConfig {
                    baseline_readahead: cap,
                    max_zone: cap,
                    ..AmpomConfig::default()
                })
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let small = run(1 << 20);
        assert!(small.pages_prefetched > 0);
        for cap in [1 << 40, u64::MAX] {
            let r = run(cap);
            assert_eq!(r.total_time, small.total_time, "cap {cap}");
            assert_eq!(r.faults_total, small.faults_total, "cap {cap}");
            assert_eq!(r.pages_prefetched, small.pages_prefetched, "cap {cap}");
        }
    }

    #[test]
    fn missing_workload_is_a_typed_error() {
        let err = Experiment::new(Scheme::Ampom).run().unwrap_err();
        assert_eq!(err, AmpomError::MissingWorkload);
    }

    #[test]
    fn invalid_ampom_config_is_reported_not_panicked() {
        let err = Experiment::new(Scheme::Ampom)
            .sequential(64, CPU)
            .ampom(AmpomConfig {
                dmax: 0,
                ..AmpomConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, AmpomError::InvalidConfig(_)));
    }

    #[test]
    fn empty_workload_spec_is_rejected() {
        let err = Experiment::new(Scheme::Ampom)
            .sequential(0, CPU)
            .build()
            .unwrap_err();
        assert!(matches!(err, AmpomError::WorkloadExhausted(_)));
    }

    #[test]
    fn zero_repeats_is_rejected() {
        let err = Experiment::new(Scheme::Ampom)
            .sequential(64, CPU)
            .repeats(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, AmpomError::InvalidConfig(_)));
    }

    #[test]
    fn dead_link_is_link_down() {
        let mut link = broadband();
        link.capacity_bytes_per_sec = 0;
        let err = Experiment::new(Scheme::NoPrefetch)
            .sequential(64, CPU)
            .link(link)
            .build()
            .unwrap_err();
        assert!(matches!(err, AmpomError::LinkDown(_)));
    }

    #[test]
    fn repeats_use_distinct_derived_seeds() {
        let exp = Experiment::new(Scheme::Ampom)
            .workload(WorkloadSpec::UniformRandom {
                pages: 256,
                touches: 1024,
                cpu: CPU,
            })
            .seed(9)
            .repeats(3);
        let seeds: Vec<u64> = (0..3).map(|r| exp.seed_for_repeat(r)).collect();
        assert_eq!(seeds[0], 9, "repeat 0 keeps the base seed");
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
        let reports = exp.run_all().unwrap();
        assert_eq!(reports.len(), 3);
        // Different update streams → different fault patterns.
        assert_ne!(reports[0].fingerprint(), reports[1].fingerprint());
    }

    #[test]
    fn run_on_accepts_custom_workloads() {
        let mut w = Scripted::new(16, &[1, 2, 3, 1, 2, 3], CPU);
        let report = Experiment::new(Scheme::NoPrefetch).run_on(&mut w).unwrap();
        assert_eq!(report.fault_requests, 3);
    }

    #[test]
    fn script_beyond_pool_is_rejected() {
        for spec in [
            WorkloadSpec::Scripted {
                pages: 4,
                refs: std::sync::Arc::new(vec![1, 2, 9]),
                cpu: CPU,
            },
            // A stride past the pool: `Strided::new` would panic.
            WorkloadSpec::Strided {
                pages: 4,
                stride: 9,
                cpu: CPU,
            },
        ] {
            assert!(matches!(
                spec.validate(),
                Err(AmpomError::WorkloadExhausted(_))
            ));
            assert!(spec.build(0).is_err());
        }
    }

    #[test]
    fn fault_profile_flows_through_the_builder() {
        let report = Experiment::new(Scheme::Ampom)
            .sequential(256, CPU)
            .faults(FaultProfile::lossy(0.05))
            .seed(11)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(
            report.faults.messages_dropped > 0,
            "5% loss over a 256-page sweep should drop something"
        );
        // FFA has no deputy path to inject faults into.
        let err = Experiment::new(Scheme::Ffa)
            .sequential(64, CPU)
            .faults(FaultProfile::lossy(0.05))
            .build()
            .unwrap_err();
        assert!(matches!(err, AmpomError::InvalidConfig(_)));
    }

    #[test]
    fn failure_policy_setter_creates_a_profile() {
        let exp = Experiment::new(Scheme::Ampom)
            .sequential(64, CPU)
            .failure_policy(crate::reliability::FailurePolicy::Remigrate);
        assert_eq!(
            exp.config().faults.as_ref().unwrap().policy,
            crate::reliability::FailurePolicy::Remigrate
        );
        // Policy alone leaves the profile null: the run stays fault-free.
        assert!(exp.config().faults.as_ref().unwrap().is_null());
    }

    #[test]
    fn prefetch_policy_flows_through_the_builder() {
        let exp = Experiment::new(Scheme::Ampom)
            .sequential(128, CPU)
            .prefetch_policy(PolicySpec::Leap(crate::policy::LeapConfig::default()))
            .build()
            .unwrap();
        assert_eq!(exp.config().policy.label(), "leap");
        let report = exp.run().unwrap();
        assert!(report.pages_prefetched > 0, "leap prefetches a sweep");
    }

    #[test]
    fn invalid_policy_is_a_typed_error() {
        let err = Experiment::new(Scheme::Ampom)
            .sequential(64, CPU)
            .prefetch_policy(PolicySpec::Leap(crate::policy::LeapConfig {
                init_window: 0,
                ..crate::policy::LeapConfig::default()
            }))
            .build()
            .unwrap_err();
        assert!(matches!(err, AmpomError::InvalidPolicy(_)));
    }

    #[test]
    fn default_policy_reproduces_the_historical_fingerprint() {
        let explicit = Experiment::new(Scheme::Ampom)
            .sequential(256, CPU)
            .prefetch_policy(PolicySpec::Ampom)
            .run()
            .unwrap();
        let mut w = Sequential::new(256, CPU);
        let legacy = crate::runner::run_workload(&mut w, &RunConfig::new(Scheme::Ampom));
        assert_eq!(explicit.fingerprint(), legacy.fingerprint());
    }

    #[test]
    fn locality_breaking_specs_build_and_run() {
        let specs = [
            WorkloadSpec::PointerChase {
                data_bytes: 2 << 20,
                hops: 600,
            },
            WorkloadSpec::ZipfianKv {
                data_bytes: 2 << 20,
                keys: 128,
                exponent: 0.9,
                ops: 800,
            },
            WorkloadSpec::BurstyChurn {
                data_bytes: 2 << 20,
                epochs: 3,
                hot_pages: 32,
                touches_per_epoch: 200,
                churn_pct: 25,
            },
        ];
        for spec in specs {
            let label = spec.label();
            let report = Experiment::new(Scheme::Ampom)
                .workload(spec)
                .seed(3)
                .run()
                .unwrap();
            assert!(report.fault_requests > 0, "{label} never faulted");
        }
    }

    #[test]
    fn degenerate_locality_breaking_specs_are_rejected() {
        for spec in [
            WorkloadSpec::PointerChase {
                data_bytes: 1 << 20,
                hops: 0,
            },
            WorkloadSpec::ZipfianKv {
                data_bytes: 1 << 20,
                keys: 0,
                exponent: 1.0,
                ops: 10,
            },
            WorkloadSpec::ZipfianKv {
                data_bytes: 1 << 20,
                keys: 16,
                exponent: f64::NAN,
                ops: 10,
            },
            WorkloadSpec::BurstyChurn {
                data_bytes: 1 << 20,
                epochs: 2,
                hot_pages: 16,
                touches_per_epoch: 10,
                churn_pct: 101,
            },
        ] {
            assert!(
                matches!(spec.validate(), Err(AmpomError::WorkloadExhausted(_))),
                "{} should be rejected",
                spec.label()
            );
        }
    }

    #[test]
    fn labels_are_stable_and_descriptive() {
        let spec = WorkloadSpec::kernel(
            Kernel::Dgemm,
            ProblemSize {
                problem: 7600,
                memory_mb: 115,
            },
        );
        assert_eq!(spec.label(), "DGEMM/115MB");
        assert_eq!(
            WorkloadSpec::Sequential {
                pages: 512,
                cpu: CPU
            }
            .label(),
            "Sequential(512)"
        );
    }
}
