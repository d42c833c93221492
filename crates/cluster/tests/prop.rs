//! Property tests for the cluster substrate: gossip over windows that
//! hold every peer (a full load vector), and job conservation and freeze
//! cost on batches.

use ampom_cluster::gossip::{plan_gossip, LoadEntry, WindowView};
use ampom_cluster::{run_cluster_life, LifeConfig};
use ampom_core::migration::Scheme;
use ampom_sim::propcheck::forall;
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};

/// Long enough that no entry in these tests is refused as stale.
const TRUST_ALL: SimDuration = SimDuration::from_secs(3600);

/// `n` windows, each holding every peer of an `n`-node cluster.
fn full_views(n: usize) -> Vec<WindowView> {
    (0..n).map(|i| WindowView::new(i, n)).collect()
}

/// `rounds` simultaneous push rounds: every node plans its send from the
/// pre-round views, then the payloads are delivered in node order.
fn gossip(views: &mut [WindowView], rounds: u64, rng: &mut SimRng) {
    let n = views.len();
    for round in 0..rounds {
        let now = SimTime::ZERO + SimDuration::from_secs(round);
        let plans: Vec<_> = views
            .iter()
            .filter_map(|v| plan_gossip(v, n, rng))
            .collect();
        for (target, payload) in plans {
            for (node, entry) in payload {
                views[target].merge(node, entry, now, TRUST_ALL);
            }
        }
    }
}

#[test]
fn gossip_eventually_informs_everyone() {
    forall("gossip-informs", 16, |g| {
        let n = g.usize(4..24);
        let seed = g.u64(0..100);
        let mut views = full_views(n);
        let mut rng = SimRng::seed_from_u64(seed);
        for (i, v) in views.iter_mut().enumerate() {
            v.set_own(i as f64, SimTime::ZERO);
        }
        // Push gossip spreads in O(log n) rounds w.h.p.; 4·n rounds is
        // overwhelming.
        gossip(&mut views, 4 * n as u64, &mut rng);
        for v in &views {
            assert!(
                v.known_peers() >= (n - 1) / 2,
                "a node knows only {} of {} peers",
                v.known_peers(),
                n - 1
            );
        }
    });
}

#[test]
fn gossip_never_invents_or_ages_entries() {
    forall("gossip-no-corruption", 16, |g| {
        let n = g.usize(3..12);
        let rounds = g.u64(1..30);
        let seed = g.u64(0..50);
        let mut views = full_views(n);
        let mut rng = SimRng::seed_from_u64(seed);
        for (i, v) in views.iter_mut().enumerate() {
            v.set_own(10.0 + i as f64, SimTime::ZERO);
        }
        gossip(&mut views, rounds, &mut rng);
        // Every known entry matches the owner's true load (loads never
        // changed, so any deviation means corruption in transit).
        for v in &views {
            for node in 0..n {
                if let Some(e) = v.entry(node) {
                    assert_eq!(e.load, 10.0 + node as f64);
                }
            }
        }
    });
}

#[test]
fn merge_never_regresses_freshness() {
    forall("merge-freshness", 64, |g| {
        let loads = g.vec(1..40, |g| (g.unit_f64() * 100.0, g.u64(0..1000)));
        let mut v = WindowView::new(0, 4);
        let now = SimTime::ZERO + SimDuration::from_secs(1000);
        let mut freshest = None;
        for &(load, at_s) in &loads {
            let at = SimTime::ZERO + SimDuration::from_secs(at_s);
            v.merge(
                1,
                LoadEntry {
                    load,
                    measured_at: at,
                },
                now,
                TRUST_ALL,
            );
            // Oracle mirrors the pinned rule: strictly fresher wins, and
            // at equal timestamps the higher load wins.
            match freshest {
                None => freshest = Some((at, load)),
                Some((best, best_load)) if at > best || (at == best && load > best_load) => {
                    freshest = Some((at, load))
                }
                _ => {}
            }
            let entry = v.entry(1).unwrap();
            let (best_at, best_load) = freshest.unwrap();
            assert_eq!(entry.measured_at, best_at);
            assert_eq!(entry.load, best_load);
        }
    });
}

#[test]
fn cluster_conserves_jobs() {
    forall("cluster-conserves-jobs", 8, |g| {
        let jobs = g.u64(5..40);
        let mut cfg = LifeConfig::batch(6, jobs, Scheme::Ampom);
        cfg.seed = g.u64(0..20);
        let out = run_cluster_life(&cfg);
        assert_eq!(out.arrived, jobs);
        assert_eq!(out.completed, jobs);
        assert_eq!(out.slowdown.count(), jobs);
        // Every job's slowdown is at least ~1 (it cannot finish faster
        // than its demand).
        let fastest = out.slowdown.min().expect("a completed batch");
        assert!(fastest > 0.99, "slowdown {fastest}");
    });
}

#[test]
fn ampom_cluster_never_pays_more_freeze_than_eager() {
    forall("ampom-freeze-cheaper", 6, |g| {
        let seed = g.u64(0..10);
        let run = |scheme| {
            let mut cfg = LifeConfig::batch(6, 20, scheme);
            cfg.seed = seed;
            run_cluster_life(&cfg)
        };
        let ampom = run(Scheme::Ampom);
        let eager = run(Scheme::OpenMosix);
        if ampom.migrations > 0 && eager.migrations > 0 {
            let ampom_per = ampom.freeze_paid.as_secs_f64() / ampom.migrations as f64;
            let eager_per = eager.freeze_paid.as_secs_f64() / eager.migrations as f64;
            assert!(ampom_per < eager_per);
        }
    });
}
