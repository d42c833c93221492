//! # ampom-net — the simulated cluster network
//!
//! Models the interconnect of the HKU Gideon 300 cluster (Fast Ethernet,
//! star topology) that the AMPoM paper ran on. Its Figure 9 broadband
//! link is a [`link::LinkConfig`] of its own,
//! [`calibration::broadband`].
//!
//! The model is a *store-and-forward FIFO link*: each directed node pair has
//! a [`link::Link`] with a capacity (bytes/s) and a propagation latency.
//! A message occupies the link for `size / capacity` (serialization) and is
//! delivered `latency` later. Back-to-back messages queue behind each other,
//! which is exactly the pipelining effect the paper credits for AMPoM's
//! fault-latency hiding (§5.4: "AMPoM's prefetching scheme saves the round
//! trip latency of inter-node page faults by pipelining effect").
//!
//! Components:
//!
//! * [`link::Link`] / [`link::LinkConfig`] — capacity + latency + FIFO queue,
//! * [`nic::Nic`] — per-node RX/TX byte counters (the `/sbin/ifconfig`
//!   fields the original oM_infoD samples),
//! * [`probe::RttProber`] and [`probe::BandwidthEstimator`] — the
//!   measurement algorithms of the modified oM_infoD (§4),
//! * [`cross::CrossTraffic`] — Poisson background traffic for the
//!   network-adaptivity experiments,
//! * [`fault::FaultPlan`] / [`fault::FaultyLink`] — deterministic message
//!   loss, burst loss and jitter for the robustness experiments,
//! * [`calibration`] — the physical constants (documented in DESIGN.md §7).

pub mod calibration;
pub mod cross;
pub mod fault;
pub mod link;
pub mod nic;
pub mod probe;

pub use calibration::{CalibrationParseError, MeasuredLink};
pub use fault::{Fate, FaultConfigError, FaultPlan, FaultSpec, FaultyLink};
pub use link::{Link, LinkConfig, LinkError, Transmission};
pub use nic::Nic;
