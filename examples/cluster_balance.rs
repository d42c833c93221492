//! Cluster-wide load balancing on gossip information (paper §1 + §7).
//!
//! ```sh
//! cargo run --release --example cluster_balance
//! ```
//!
//! "New scheduling policies can make use of AMPoM on openMosix to perform
//! more aggressive migrations since the performance penalty of suboptimal
//! decisions has been dramatically decreased." Both tables run the
//! cluster engine on a batch of jobs, crossing a conservative
//! lifetime-threshold policy (sensible when freezes cost tens of seconds)
//! with an aggressive one, under eager openMosix migration and under
//! AMPoM, and report job slowdowns and the freeze each combination paid.
//!
//! * Sixteen nodes: Poisson arrivals skewed onto a quarter of them (jobs
//!   start on their users' home nodes), MOSIX-style gossip for load
//!   information, greedy push migration and home-returns.
//! * Two nodes: eight large jobs land on one node of an idle pair. Their
//!   CPU demands are drawn from an exponential distribution (mean 120 s),
//!   not fixed.

use ampom::cluster::{run_cluster_life, BalancePolicy, LifeConfig};
use ampom::core::Scheme;
use ampom::sim::time::SimDuration;

/// Runs `cfg` under each policy and scheme and prints one row per pair.
fn table(cfg: impl Fn(Scheme) -> LifeConfig, threshold_s: u64) {
    println!(
        "{:<22} {:<12} {:>12} {:>12} {:>11} {:>13} {:>12}",
        "policy",
        "migration",
        "mean slowdn",
        "max slowdn",
        "migrations",
        "home-returns",
        "freeze paid"
    );
    let threshold = BalancePolicy::LifetimeThreshold(SimDuration::from_secs(threshold_s));
    for (policy, label) in [
        (threshold, format!("threshold({threshold_s}s)")),
        (BalancePolicy::Aggressive, "aggressive".to_string()),
    ] {
        for scheme in [Scheme::OpenMosix, Scheme::Ampom] {
            let mut cfg = cfg(scheme);
            cfg.policy = policy;
            let out = run_cluster_life(&cfg);
            assert_eq!(out.running_at_horizon, 0, "the batch outlasted the horizon");
            println!(
                "{:<22} {:<12} {:>12.2} {:>12.1} {:>11} {:>13} {:>11.1}s",
                label,
                scheme.name(),
                out.slowdown.mean(),
                out.slowdown.max().unwrap_or(0.0),
                out.migrations,
                out.returns_home,
                out.freeze_paid.as_secs_f64(),
            );
        }
    }
}

fn main() {
    println!(
        "16 nodes, 120 jobs (mean 90 s CPU, 230 MB), arrivals on 4 nodes,\n\
         gossip-based load views:\n"
    );
    table(|scheme| LifeConfig::batch(16, 120, scheme), 30);

    println!(
        "\n2 nodes, 8 jobs (exponential demand, mean 120 s CPU, 575 MB) arriving\n\
         1 ms apart on node 0; node 1 is idle:\n"
    );
    table(
        |scheme| {
            let mut cfg = LifeConfig::batch(2, 8, scheme);
            cfg.mean_interarrival = SimDuration::from_millis(1);
            cfg.mix.specs[0].memory_mb = 575;
            cfg.mix.specs[0].mean_demand = SimDuration::from_secs(120);
            cfg
        },
        60,
    );

    println!(
        "\nEager (openMosix) migration pays ~20 s of freeze per 230 MB move and\n\
         ~54 s per 575 MB move, so each balancing decision is expensive; AMPoM's\n\
         sub-second freezes turn the same decisions nearly free, improving\n\
         slowdowns — especially under the aggressive policy."
    );
}
