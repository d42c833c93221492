//! # ampom-cluster — openMosix-style cluster load balancing
//!
//! The paper's introduction motivates lightweight migration with "HPC
//! clusters having thousands of compute nodes with changing loads", and
//! its §7 concludes that "new scheduling policies can make use of AMPoM on
//! openMosix to perform more aggressive migrations since the performance
//! penalty of suboptimal decisions has been dramatically decreased."
//!
//! This crate measures that claim with one cluster engine:
//!
//! * [`gossip`] — MOSIX/openMosix's probabilistic load dissemination:
//!   each node periodically sends its load vector to a randomly chosen
//!   peer, so every node has a *stale, partial* view of cluster load —
//!   exactly the information a real openMosix balancer works from,
//! * [`balancer`] — the migration decision rule (greedy: move work toward
//!   the least-loaded *known* node when the imbalance justifies it) and
//!   the deputy-contention model,
//! * [`life`] — the engine: Poisson arrivals over a Table 1 kernel mix,
//!   bounded [`gossip::WindowView`] dissemination from 2 to 1000+ nodes,
//!   lifecycle placement with remigration and home-return chains priced
//!   by the calibrated freeze model, and a compute/apply tick split that
//!   is bit-identical across thread counts,
//! * [`job`] — job identity.
//!
//! The headline experiment (`hpcc-repro ext-cluster`, and
//! `examples/cluster_balance.rs`) runs [`LifeConfig::batch`] to compare
//! eager-openMosix migration against AMPoM migration under both
//! conservative and aggressive policies on a skewed-arrival cluster.

pub mod balancer;
pub mod gossip;
pub mod job;
pub mod life;

pub use balancer::BalancePolicy;
pub use gossip::WindowView;
pub use job::JobId;
pub use life::{run_cluster_life, CrashEvent, JobMix, JobSpec, LifeConfig, LifeJob, LifeOutcome};
