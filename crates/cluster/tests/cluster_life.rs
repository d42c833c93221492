//! Property and golden tests for the cluster-life engine: windowed
//! gossip freshness, thread-count/re-run determinism, job conservation,
//! deputy-chain avoidance, a pinned 16-node/100-job fingerprint and a
//! pinned 96-node run whose windows evict.

use ampom_cluster::gossip::{plan_gossip, LoadEntry, WindowView};
use ampom_cluster::{run_cluster_life, CrashEvent, LifeConfig};
use ampom_core::migration::Scheme;
use ampom_sim::propcheck::forall;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};

/// The CI fault seed (default 42), so the suite exercises exactly the
/// trajectory the smoke jobs run.
fn env_seed() -> u64 {
    std::env::var("AMPOM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn life(nodes: usize, scheme: Scheme, horizon_s: u64, seed: u64) -> LifeConfig {
    let mut cfg = LifeConfig::standard(nodes, scheme);
    cfg.horizon = SimDuration::from_secs(horizon_s);
    cfg.seed = seed;
    cfg
}

/// After a warm-up of randomized push rounds, every node's window holds
/// at least one entry inside the staleness bound — the windowed view
/// keeps a usable, age-bounded picture of the cluster even when its
/// capacity is far below the node count. (Every received payload leads
/// with the sender's zero-age own entry, so a node only lacks a fresh
/// entry if nobody picked it for `max_age` straight rounds — vanishing
/// at the bound used here.)
#[test]
fn windowed_gossip_bounds_view_age() {
    forall("window-age-bound", 16, |g| {
        let n = g.usize(6..20);
        let capacity = g.usize(2..n);
        let seed = g.u64(0..1000);
        let max_age = SimDuration::from_secs(20);
        let mut views: Vec<WindowView> = (0..n).map(|i| WindowView::new(i, capacity)).collect();
        let mut rng = SimRng::seed_from_u64(seed);
        let rounds = 4 * n as u64 + 20;
        let mut now = SimTime::ZERO;
        for round in 0..rounds {
            now = SimTime::ZERO + SimDuration::from_secs(round);
            for (i, v) in views.iter_mut().enumerate() {
                v.set_own(i as f64, now);
            }
            let plans: Vec<(usize, Vec<(usize, LoadEntry)>)> = (0..n)
                .filter_map(|i| plan_gossip(&views[i], n, &mut rng))
                .collect();
            for (target, payload) in plans {
                for (node, entry) in payload {
                    views[target].merge(node, entry, now, max_age);
                }
            }
        }
        for (i, v) in views.iter().enumerate() {
            assert!(
                v.known_peers() > 0,
                "node {i}/{n} (cap {capacity}) knows nobody after {rounds} rounds"
            );
            assert!(
                v.least_loaded_peer(now, max_age).is_some(),
                "node {i}/{n} (cap {capacity}) holds only stale entries"
            );
            // The window never exceeds its capacity and never holds an
            // entry older than the run itself.
            assert!(v.known_peers() <= capacity);
            assert!(v.max_entry_age(now) <= SimDuration::from_secs(rounds));
        }
    });
}

/// The determinism contract: the same config produces bit-identical
/// outcomes at 1, 2 and 8 threads, and again on a re-run.
#[test]
fn clusterlife_is_bit_identical_across_thread_counts() {
    let base = life(24, Scheme::Ampom, 400, env_seed());
    let mut prints = Vec::new();
    for threads in [1usize, 2, 8, 8] {
        let mut cfg = base.clone();
        cfg.threads = threads;
        let out = run_cluster_life(&cfg);
        prints.push((threads, out.fingerprint(), out.completed, out.migrations));
    }
    for w in prints.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "fingerprint diverged between {} and {} threads: {:?} vs {:?}",
            w[0].0, w[1].0, w[0], w[1]
        );
    }
}

/// Job conservation across random configurations: every arrived job is
/// exactly once completed, failed, or still running; the migration kinds
/// sum to the total; without crashes nothing can fail; and no job
/// finishes faster than its demand.
#[test]
fn clusterlife_conserves_jobs() {
    forall("life-conservation", 8, |g| {
        let nodes = g.usize(4..32);
        let scheme = *g.choose(&[Scheme::Ampom, Scheme::OpenMosix, Scheme::NoPrefetch]);
        let mut cfg = life(nodes, scheme, g.u64(120..360), g.u64(0..1000));
        let crashed = g.bool(0.5);
        if crashed {
            cfg.crashes = vec![CrashEvent {
                node: g.usize(0..nodes),
                at: SimTime::ZERO + SimDuration::from_secs(g.u64(10..60)),
                down_for: SimDuration::from_secs(g.u64(5..120)),
            }];
        }
        let out = run_cluster_life(&cfg);
        assert!(
            out.conserves_jobs(),
            "{} arrived != {} + {} + {}",
            out.arrived,
            out.completed,
            out.failed,
            out.running_at_horizon
        );
        assert_eq!(
            out.migrations,
            out.out_migrations + out.remigrations + out.returns_home
        );
        if !crashed {
            assert_eq!(out.failed, 0, "no crash, yet {} jobs failed", out.failed);
        }
        assert!(out.arrived > 0, "a ≥2-minute horizon must admit arrivals");
        if let Some(fastest) = out.slowdown.min() {
            assert!(fastest > 0.99, "slowdown {fastest}");
        }
    });
}

/// Deputy-chain avoidance: however aggressively jobs remigrate and
/// return home — even across crashes — no job ever holds more than one
/// live deputy stub.
#[test]
fn clusterlife_never_chains_deputies() {
    forall("life-chain-avoidance", 8, |g| {
        let nodes = g.usize(4..24);
        let mut cfg = life(nodes, Scheme::Ampom, g.u64(120..300), g.u64(0..1000));
        // A low return margin maximises home-return churn, the case most
        // likely to leave a stale stub behind.
        cfg.return_margin = 0.5;
        if g.bool(0.5) {
            cfg.crashes = vec![CrashEvent {
                node: g.usize(0..nodes),
                at: SimTime::ZERO + SimDuration::from_secs(g.u64(10..60)),
                down_for: SimDuration::from_secs(g.u64(5..60)),
            }];
        }
        let out = run_cluster_life(&cfg);
        assert!(
            out.max_live_stubs <= 1,
            "{} live deputy stubs observed for one job",
            out.max_live_stubs
        );
        assert!(out.returns_home > 0 || out.out_migrations == 0);
    });
}

/// Golden fingerprint: a 16-node, 100-job run is pinned bit-for-bit.
/// Any engine change that alters the trajectory must update this
/// constant knowingly.
#[test]
fn clusterlife_golden_16_node_100_job_fingerprint() {
    let mut cfg = life(16, Scheme::Ampom, 3600, 0xC1FE);
    cfg.max_jobs = Some(100);
    let out = run_cluster_life(&cfg);
    assert_eq!(out.arrived, 100);
    assert!(out.conserves_jobs());
    assert_eq!(
        out.fingerprint(),
        GOLDEN_FINGERPRINT,
        "pinned 16-node/100-job trajectory moved: completed={} migrations={} \
         returns={} fingerprint={:#018x}",
        out.completed,
        out.migrations,
        out.returns_home,
        out.fingerprint()
    );
}

const GOLDEN_FINGERPRINT: u64 = 0x7d82_dcb6_f5e1_c230;

/// Golden fingerprint of a run whose windows evict: 96 nodes gossip into
/// 16-entry windows, so nearly every delivery of an absent peer lands in
/// a full window and either evicts the stalest entry or is refused. The
/// 16-node golden never fills its 64-entry windows; this pins the
/// eviction order, and through `payload()`'s shuffle of the window, the
/// order of the window itself. One crash resets a window mid-run.
#[test]
fn clusterlife_golden_evicting_window_fingerprint() {
    let mut cfg = life(96, Scheme::Ampom, 600, 0xC1FE);
    cfg.window = 16;
    cfg.crashes = vec![CrashEvent {
        node: 7,
        at: SimTime::ZERO + SimDuration::from_secs(300),
        down_for: SimDuration::from_secs(60),
    }];
    let out = run_cluster_life(&cfg);
    assert!(out.conserves_jobs());
    assert!(
        out.failed > 0,
        "node 7 takes arrivals; its crash kills jobs"
    );
    assert_eq!(
        out.fingerprint(),
        EVICTING_GOLDEN_FINGERPRINT,
        "pinned 96-node evicting-window trajectory moved: completed={} \
         migrations={} merged={} fingerprint={:#018x}",
        out.completed,
        out.migrations,
        out.gossip_entries_merged,
        out.fingerprint()
    );
}

const EVICTING_GOLDEN_FINGERPRINT: u64 = 0xff07_ff75_4c97_dc8a;
