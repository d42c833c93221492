//! The §7 balancer experiments on the cluster engine: batches of jobs
//! submitted to [`LifeConfig::batch`] clusters of 2 to 16 nodes, under a
//! conservative and an aggressive policy, with eager openMosix and AMPoM
//! migration.

use ampom_cluster::{run_cluster_life, BalancePolicy, LifeConfig, LifeOutcome};
use ampom_core::migration::{freeze_time, Scheme};
use ampom_sim::time::SimDuration;

/// A threshold no job in these batches ever reaches: no balancing.
const NEVER: BalancePolicy = BalancePolicy::LifetimeThreshold(SimDuration::from_secs(1_000_000));

fn batch(nodes: usize, jobs: u64, scheme: Scheme, seed: u64) -> LifeConfig {
    let mut cfg = LifeConfig::batch(nodes, jobs, scheme);
    cfg.seed = seed;
    cfg
}

/// Runs `cfg` and checks the whole batch completed.
fn run(cfg: &LifeConfig) -> LifeOutcome {
    let out = run_cluster_life(cfg);
    assert_eq!(out.running_at_horizon, 0, "the batch outlasted the horizon");
    assert_eq!(out.failed, 0);
    assert_eq!(out.completed, out.arrived);
    out
}

/// Freeze paid per migration, in seconds.
fn freeze_per_migration(out: &LifeOutcome) -> f64 {
    out.freeze_paid.as_secs_f64() / out.migrations as f64
}

/// `jobs` jobs of `memory_mb` and `demand_s` mean demand arriving 1 ms
/// apart, so all of them start on node 0 of an idle pair.
fn two_node(jobs: u64, demand_s: u64, memory_mb: u64, scheme: Scheme) -> LifeConfig {
    let mut cfg = LifeConfig::batch(2, jobs, scheme);
    cfg.mean_interarrival = SimDuration::from_millis(1);
    cfg.mix.specs[0].memory_mb = memory_mb;
    cfg.mix.specs[0].mean_demand = SimDuration::from_secs(demand_s);
    cfg
}

#[test]
fn all_jobs_complete() {
    let out = run(&batch(16, 120, Scheme::Ampom, 1));
    assert_eq!(out.arrived, 120);
    assert!(out.migrations > 0);
}

#[test]
fn balancing_spreads_load() {
    // Skewed arrivals land on a quarter of the nodes; without balancing
    // most nodes stay idle.
    let mut cfg = batch(16, 120, Scheme::Ampom, 2);
    cfg.policy = NEVER;
    let unbalanced = run(&cfg);
    let balanced = run(&batch(16, 120, Scheme::Ampom, 2));
    assert_eq!(unbalanced.migrations, 0);
    assert!(balanced.migrations > 0);
    assert!(
        balanced.slowdown.mean() < unbalanced.slowdown.mean(),
        "balanced {:.2} vs unbalanced {:.2}",
        balanced.slowdown.mean(),
        unbalanced.slowdown.mean()
    );
    assert!(balanced.mean_load_stddev < unbalanced.mean_load_stddev);
}

#[test]
fn ampom_supports_aggressive_balancing_better_than_eager() {
    // The §7 claim at cluster scale: with cheap freezes, aggressive
    // migration yields better slowdowns than with eager migration, for
    // less freeze.
    let ampom = run(&batch(16, 120, Scheme::Ampom, 3));
    let eager = run(&batch(16, 120, Scheme::OpenMosix, 3));
    assert!(
        ampom.slowdown.mean() <= eager.slowdown.mean(),
        "AMPoM {:.2} vs eager {:.2}",
        ampom.slowdown.mean(),
        eager.slowdown.mean()
    );
    assert!(ampom.freeze_paid < eager.freeze_paid);
}

#[test]
fn deterministic_under_seed() {
    let a = run(&batch(8, 30, Scheme::Ampom, 9));
    let b = run(&batch(8, 30, Scheme::Ampom, 9));
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn constrained_fabric_slows_concurrent_eager_migrations() {
    let with_fabric = |links| {
        let mut cfg = batch(16, 40, Scheme::OpenMosix, 0xC1);
        cfg.fabric_capacity_links = links;
        run(&cfg)
    };
    let wide = with_fabric(64);
    let narrow = with_fabric(1);
    assert!(narrow.migrations > 0 && wide.migrations > 0);
    let (narrow_per, wide_per) = (freeze_per_migration(&narrow), freeze_per_migration(&wide));
    assert!(
        narrow_per > wide_per,
        "fabric bottleneck must inflate freezes: {narrow_per:.1} vs {wide_per:.1}"
    );
}

#[test]
fn concurrent_eager_migrations_contend_on_links() {
    // Under the aggressive policy, eager migrations queue behind each
    // other on the shared links, so the *average* freeze paid exceeds
    // the uncontended single-migration freeze.
    let out = run(&batch(16, 120, Scheme::OpenMosix, 5));
    assert!(out.migrations > 0);
    let contended = freeze_per_migration(&out);
    let solo = freeze_time(Scheme::OpenMosix, 230).as_secs_f64();
    assert!(
        contended > solo,
        "contended {contended:.1}s vs uncontended {solo:.1}s"
    );
}

#[test]
fn deputy_contention_taxes_crowded_homes() {
    // Every job is homed on node 0 and none returns home on the return
    // rule (only a balancing move can take it back), so every away job
    // shares node 0's deputy and the decisions differ only through the
    // tax itself. A saturating deputy (every solo migrant uses its
    // full service capacity) must make away jobs slower than an idle one
    // (contention factor pinned at 1).
    let with_saturation = |solo_saturation| {
        let mut cfg = LifeConfig::batch(2, 20, Scheme::Ampom);
        cfg.return_margin = f64::INFINITY;
        cfg.deputy_solo_saturation = solo_saturation;
        run(&cfg)
    };
    let idle = with_saturation(0.0);
    let crowded = with_saturation(1.0);
    assert!(idle.out_migrations > 1);
    assert!(
        crowded.slowdown.mean() > idle.slowdown.mean(),
        "crowded homes {:.3} must exceed idle deputies {:.3}",
        crowded.slowdown.mean(),
        idle.slowdown.mean()
    );
}

#[test]
#[should_panic(expected = "at least 2")]
fn single_node_cluster_rejected() {
    run_cluster_life(&LifeConfig::batch(1, 10, Scheme::Ampom));
}

#[test]
fn two_node_balancing_beats_no_balancing() {
    // Eight jobs of 60 s mean on one node of a pair: balancing splits
    // them, no balancing leaves the second node idle.
    let balanced = run(&two_node(8, 60, 100, Scheme::Ampom));
    let mut cfg = two_node(8, 60, 100, Scheme::Ampom);
    cfg.policy = NEVER;
    let unbalanced = run(&cfg);
    assert!(balanced.out_migrations >= 3, "{balanced:?}");
    assert!(
        balanced.slowdown.mean() < unbalanced.slowdown.mean(),
        "balanced {:.2} vs unbalanced {:.2}",
        balanced.slowdown.mean(),
        unbalanced.slowdown.mean()
    );
}

#[test]
fn two_node_aggressive_ampom_beats_eager_on_large_jobs() {
    let ampom = run(&two_node(6, 120, 575, Scheme::Ampom));
    let eager = run(&two_node(6, 120, 575, Scheme::OpenMosix));
    assert!(
        ampom.slowdown.mean() <= eager.slowdown.mean(),
        "cheap freezes enable aggressive balancing: {:.2} vs {:.2}",
        ampom.slowdown.mean(),
        eager.slowdown.mean()
    );
    assert!(ampom.freeze_paid < eager.freeze_paid);
}

#[test]
fn two_node_threshold_policy_migrates_less() {
    let aggressive = run(&two_node(8, 60, 230, Scheme::Ampom));
    let mut cfg = two_node(8, 60, 230, Scheme::Ampom);
    cfg.policy = BalancePolicy::LifetimeThreshold(SimDuration::from_secs(30));
    let cautious = run(&cfg);
    assert!(cautious.migrations <= aggressive.migrations);
}

#[test]
fn two_node_empty_batch_finishes_immediately() {
    let out = run(&two_node(0, 60, 230, Scheme::Ampom));
    assert_eq!(out.arrived, 0);
    assert_eq!(out.migrations, 0);
    assert_eq!(out.freeze_paid, SimDuration::ZERO);
}
