//! The tick-driven cluster simulator.
//!
//! Each tick (1 s of simulated time): jobs arrive, nodes gossip their
//! loads, every overloaded node may push one job toward the least-loaded
//! peer it *believes* exists, and run queues execute under processor
//! sharing. Migration costs come from the calibrated single-migration
//! model: the job is frozen for the scheme's freeze time and, for lazy
//! schemes, its remaining work is taxed by the remote-paging slowdown.
//!
//! Migration *transfers contend for the network*: every node has an
//! uplink and a downlink ([`ampom_net::link::Link`]), and a migration's
//! bytes serialize through the source's uplink and then the target's
//! downlink. Concurrent eager migrations therefore queue behind each
//! other — a cluster-scale cost invisible in single-migration
//! experiments, and another reason sub-second AMPoM freezes compose
//! better than 20-second eager copies.

use ampom_core::migration::Scheme;
use ampom_mem::page::PAGE_SIZE;
use ampom_net::calibration::fast_ethernet;
use ampom_net::link::{Link, LinkConfig};
use ampom_sim::rng::SimRng;
use ampom_sim::stats::OnlineStats;
use ampom_sim::time::{SimDuration, SimTime};

use crate::balancer::{BalancePolicy, MigrationModel};
use crate::gossip::{gossip_round, GossipConfig, LoadView};
use crate::job::{Completion, Job, JobId};

/// Cluster experiment configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Total jobs to generate.
    pub jobs: usize,
    /// Mean job CPU demand.
    pub mean_demand: SimDuration,
    /// Job memory footprint in MB.
    pub job_memory_mb: u64,
    /// Mean inter-arrival time (Poisson arrivals).
    pub mean_interarrival: SimDuration,
    /// Fraction of nodes receiving arrivals (skew: openMosix's home-node
    /// model places jobs where users submit them).
    pub arrival_node_fraction: f64,
    /// Balancing policy.
    pub policy: BalancePolicy,
    /// Migration mechanism.
    pub scheme: Scheme,
    /// Gossip parameters.
    pub gossip: GossipConfig,
    /// Per-node link configuration (migration transfers contend on it).
    pub network: LinkConfig,
    /// Aggregate switch-fabric capacity as a multiple of one link's
    /// capacity (a 300-port Fast Ethernet switch has a finite backplane).
    /// Every migration payload also serializes through the fabric.
    pub fabric_capacity_links: u64,
    /// Fraction of a home deputy one solo migrant keeps busy (the
    /// multi-migrant sweep's saturation at N=1). The remote-paging tax
    /// scales by [`crate::balancer::contention_factor`] once a home
    /// node's away-jobs collectively exceed its deputy capacity.
    pub deputy_solo_saturation: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// A 16-node cluster with skewed arrivals — the default experiment.
    pub fn standard(policy: BalancePolicy, scheme: Scheme) -> Self {
        ClusterConfig {
            nodes: 16,
            jobs: 120,
            mean_demand: SimDuration::from_secs(90),
            job_memory_mb: 230,
            mean_interarrival: SimDuration::from_secs(2),
            arrival_node_fraction: 0.25,
            policy,
            scheme,
            gossip: GossipConfig::default(),
            network: fast_ethernet(),
            fabric_capacity_links: 8,
            // The multisweep's measured solo saturation for a paging-heavy
            // kernel on Fast Ethernet is ~0.1; see DESIGN.md §12.
            deputy_solo_saturation: 0.1,
            seed: 0xC1u64,
        }
    }
}

/// Aggregate outcome of a cluster run.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// Wall time until the last job finished.
    pub makespan: SimDuration,
    /// Per-job slowdown statistics (turnaround / demand).
    pub slowdown: OnlineStats,
    /// Migrations performed.
    pub migrations: u64,
    /// Total freeze time paid across all migrations.
    pub freeze_paid: SimDuration,
    /// Time-averaged standard deviation of node loads (balance quality).
    pub mean_load_stddev: f64,
    /// All completions.
    pub completions: Vec<Completion>,
}

struct NodeState {
    queue: Vec<Job>,
    /// Jobs frozen mid-migration land here with their thaw time.
    arriving: Vec<(SimTime, Job)>,
    /// Outbound link: migration payloads leave through here.
    uplink: Link,
    /// Inbound link: migration payloads arrive through here.
    downlink: Link,
    /// Jobs currently running elsewhere whose home deputy this node is:
    /// they share its page service, so their count sets the contention
    /// factor of the paging tax. u64 like every cluster counter: a
    /// long-horizon run must never truncate silently.
    away: u64,
}

/// Bytes a migration moves during its freeze, per scheme.
pub fn freeze_bytes(scheme: Scheme, memory_mb: u64) -> u64 {
    let pages = memory_mb * 1024 * 1024 / PAGE_SIZE;
    match scheme {
        Scheme::OpenMosix => memory_mb * 1024 * 1024,
        Scheme::Ampom => 3 * PAGE_SIZE + pages * 6,
        Scheme::NoPrefetch | Scheme::Ffa => 3 * PAGE_SIZE,
    }
}

/// Runs the cluster simulation to completion (all jobs finished).
pub fn simulate(cfg: &ClusterConfig) -> ClusterOutcome {
    assert!(cfg.nodes >= 2, "need at least two nodes");
    assert!(cfg.jobs > 0);
    let tick = SimDuration::from_secs(1);
    let model = MigrationModel { scheme: cfg.scheme };
    let rng = SimRng::seed_from_u64(cfg.seed);
    let mut arrival_rng = rng.fork(1);
    let mut gossip_rng = rng.fork(2);

    // Pre-generate the arrival schedule.
    let arrival_nodes =
        ((cfg.nodes as f64 * cfg.arrival_node_fraction).ceil() as usize).clamp(1, cfg.nodes);
    let mut arrivals: Vec<(SimTime, Job)> = Vec::with_capacity(cfg.jobs);
    let mut t = SimTime::ZERO;
    for i in 0..cfg.jobs {
        let gap = arrival_rng.exponential(cfg.mean_interarrival.as_secs_f64());
        t += SimDuration::from_secs_f64(gap.max(1e-6));
        let demand = arrival_rng
            .exponential(cfg.mean_demand.as_secs_f64())
            .max(1.0);
        arrivals.push((
            t,
            Job::new(
                JobId(i as u64),
                t,
                SimDuration::from_secs_f64(demand),
                cfg.job_memory_mb,
            ),
        ));
    }

    let mut nodes: Vec<NodeState> = (0..cfg.nodes)
        .map(|_| NodeState {
            queue: Vec::new(),
            arriving: Vec::new(),
            uplink: Link::new(cfg.network),
            downlink: Link::new(cfg.network),
            away: 0,
        })
        .collect();
    let mut fabric = Link::new(LinkConfig {
        capacity_bytes_per_sec: cfg.network.capacity_bytes_per_sec
            * cfg.fabric_capacity_links.max(1),
        latency: cfg.network.latency,
    });
    let mut views: Vec<LoadView> = (0..cfg.nodes)
        .map(|i| LoadView::new(cfg.nodes, i))
        .collect();

    let mut now = SimTime::ZERO;
    let mut next_arrival = 0usize;
    let mut completions: Vec<Completion> = Vec::new();
    let mut migrations = 0u64;
    let mut freeze_paid = SimDuration::ZERO;
    let mut load_stddev = OnlineStats::new();

    // Hard bound far beyond any sane makespan, to terminate pathological
    // configurations in tests.
    for _ in 0..200_000 {
        if next_arrival >= arrivals.len()
            && nodes
                .iter()
                .all(|n| n.queue.is_empty() && n.arriving.is_empty())
        {
            break;
        }

        // 1. Arrivals due this tick.
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
            let (_, job) = arrivals[next_arrival].clone();
            let target = (arrival_rng.below(arrival_nodes as u64)) as usize;
            nodes[target].queue.push(job);
            next_arrival += 1;
        }

        // 2. Thaw migrants whose freeze completed.
        for node in nodes.iter_mut() {
            let (ready, pending): (Vec<_>, Vec<_>) =
                node.arriving.drain(..).partition(|(at, _)| *at <= now);
            node.arriving = pending;
            node.queue.extend(ready.into_iter().map(|(_, j)| j));
        }

        // 3. Refresh own loads and gossip.
        for (i, node) in nodes.iter().enumerate() {
            views[i].set_own(node.queue.len() as f64, now);
        }
        gossip_round(&mut views, now, &mut gossip_rng);

        // 4. Migration decisions: each node compares itself to the best
        //    peer it believes in.
        for i in 0..cfg.nodes {
            let my_load = nodes[i].queue.len() as f64;
            let Some((target, believed)) = views[i].least_loaded_peer(now, cfg.gossip.max_age)
            else {
                continue;
            };
            let gap = my_load - believed;
            if let Some(idx) = cfg.policy.pick_migrant(&nodes[i].queue, now, gap) {
                let mut job = nodes[i].queue.swap_remove(idx);
                // The freeze transfer contends for both endpoints' links:
                // serialize through the source uplink, then the target
                // downlink. Software costs come from the calibrated model.
                let bytes = freeze_bytes(cfg.scheme, job.memory_mb);
                let sw_cost = model.freeze(&job) // base + per-entry costs
                    - cfg.network.serialization_time(bytes).min(model.freeze(&job));
                let up = nodes[i].uplink.transmit(now, bytes);
                let through = fabric.transmit(up.arrives, bytes);
                let down = nodes[target].downlink.transmit(through.arrives, bytes);
                let thaw = down.arrives + sw_cost;
                let freeze = thaw.since(now);
                freeze_paid += freeze;
                migrations += 1;
                job.migrations += 1;
                job.last_migrated = Some(thaw);
                // Home-deputy accounting: the first move fixes the home;
                // later moves only change the away set when they cross
                // the home boundary.
                let home = *job.home.get_or_insert(i);
                let was_away = i != home;
                let now_away = target != home;
                match (was_away, now_away) {
                    (false, true) => nodes[home].away += 1,
                    (true, false) => nodes[home].away = nodes[home].away.saturating_sub(1),
                    _ => {}
                }
                // The remote-paging tax inflates the remaining work,
                // stretched by how many migrants share the home deputy.
                // A job migrating *back home* pages locally: no tax.
                if now_away {
                    let tax =
                        model.slowdown_shared(nodes[home].away.max(1), cfg.deputy_solo_saturation);
                    job.remaining =
                        SimDuration::from_secs_f64(job.remaining.as_secs_f64() * (1.0 + tax));
                }
                nodes[target].arriving.push((thaw, job));
                // Pessimistically bump the local belief about the target
                // so consecutive decisions do not herd onto one node.
                views[i].merge(
                    target,
                    crate::gossip::LoadEntry {
                        load: believed + 1.0,
                        measured_at: now,
                    },
                );
            }
        }

        // 5. Execute one tick of processor sharing per node.
        let mut freed_homes: Vec<usize> = Vec::new();
        for (at, node) in nodes.iter_mut().enumerate() {
            if node.queue.is_empty() {
                continue;
            }
            let share = tick / node.queue.len() as u64;
            for job in node.queue.iter_mut() {
                let used = share.min(job.remaining);
                job.remaining -= used;
            }
            let done: Vec<Job> = node.queue.iter().filter(|j| j.is_done()).cloned().collect();
            node.queue.retain(|j| !j.is_done());
            for j in done {
                // A finished away-job releases its home deputy share.
                if let Some(home) = j.home {
                    if home != at {
                        freed_homes.push(home);
                    }
                }
                completions.push(Completion {
                    id: j.id,
                    turnaround: (now + tick).saturating_since(j.arrived),
                    demand: j.demand,
                    migrations: j.migrations,
                });
            }
        }
        for home in freed_homes {
            nodes[home].away = nodes[home].away.saturating_sub(1);
        }

        // 6. Balance-quality sample.
        let loads: Vec<f64> = nodes.iter().map(|n| n.queue.len() as f64).collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        let var = loads.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / loads.len() as f64;
        load_stddev.record(var.sqrt());

        now += tick;
    }

    let mut slowdown = OnlineStats::new();
    for c in &completions {
        slowdown.record(c.slowdown());
    }

    ClusterOutcome {
        makespan: now.since(SimTime::ZERO),
        slowdown,
        migrations,
        freeze_paid,
        mean_load_stddev: load_stddev.mean(),
        completions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(policy: BalancePolicy, scheme: Scheme, seed: u64) -> ClusterOutcome {
        let mut cfg = ClusterConfig::standard(policy, scheme);
        cfg.seed = seed;
        simulate(&cfg)
    }

    #[test]
    fn all_jobs_complete() {
        let out = outcome(BalancePolicy::Aggressive, Scheme::Ampom, 1);
        assert_eq!(out.completions.len(), 120);
        assert!(out.makespan > SimDuration::ZERO);
    }

    #[test]
    fn balancing_spreads_load() {
        // Without balancing (threshold so high nothing qualifies), skewed
        // arrivals leave most nodes idle.
        let never = BalancePolicy::LifetimeThreshold(SimDuration::from_secs(1_000_000));
        let unbalanced = outcome(never, Scheme::Ampom, 2);
        let balanced = outcome(BalancePolicy::Aggressive, Scheme::Ampom, 2);
        assert!(balanced.migrations > 0);
        assert_eq!(unbalanced.migrations, 0);
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
        // migration yields better slowdowns than with eager migration.
        let ampom = outcome(BalancePolicy::Aggressive, Scheme::Ampom, 3);
        let eager = outcome(BalancePolicy::Aggressive, Scheme::OpenMosix, 3);
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
        let a = outcome(BalancePolicy::Aggressive, Scheme::Ampom, 9);
        let b = outcome(BalancePolicy::Aggressive, Scheme::Ampom, 9);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.completions.len(), b.completions.len());
    }

    #[test]
    fn migrated_jobs_carry_their_count() {
        let out = outcome(BalancePolicy::Aggressive, Scheme::Ampom, 4);
        let migrated: u64 = out.completions.iter().map(|c| c.migrations).sum();
        assert_eq!(migrated, out.migrations);
    }

    #[test]
    fn constrained_fabric_slows_concurrent_eager_migrations() {
        let run = |fabric_links| {
            let mut cfg = ClusterConfig::standard(BalancePolicy::Aggressive, Scheme::OpenMosix);
            cfg.jobs = 40;
            cfg.fabric_capacity_links = fabric_links;
            simulate(&cfg)
        };
        let wide = run(64);
        let narrow = run(1);
        assert!(narrow.migrations > 0 && wide.migrations > 0);
        let narrow_per = narrow.freeze_paid.as_secs_f64() / narrow.migrations as f64;
        let wide_per = wide.freeze_paid.as_secs_f64() / wide.migrations as f64;
        assert!(
            narrow_per > wide_per,
            "fabric bottleneck must inflate freezes: {narrow_per:.1} vs {wide_per:.1}"
        );
    }

    #[test]
    fn freeze_bytes_per_scheme() {
        // Eager moves the footprint; AMPoM moves 3 pages + 6 B/page of
        // MPT; NoPrefetch moves 3 pages.
        assert_eq!(freeze_bytes(Scheme::OpenMosix, 230), 230 * 1024 * 1024);
        let pages = 230u64 * 1024 * 1024 / 4096;
        assert_eq!(freeze_bytes(Scheme::Ampom, 230), 3 * 4096 + pages * 6);
        assert_eq!(freeze_bytes(Scheme::NoPrefetch, 230), 3 * 4096);
    }

    #[test]
    fn concurrent_eager_migrations_contend_on_links() {
        // Under the aggressive policy, eager migrations queue behind each
        // other on the shared links, so the *average* freeze paid exceeds
        // the uncontended single-migration freeze.
        let out = outcome(BalancePolicy::Aggressive, Scheme::OpenMosix, 5);
        assert!(out.migrations > 0);
        let avg_freeze = out.freeze_paid.as_secs_f64() / out.migrations as f64;
        let solo = ampom_core::scheduler::freeze_time(Scheme::OpenMosix, 230).as_secs_f64();
        assert!(
            avg_freeze > solo,
            "contended {avg_freeze:.1}s vs uncontended {solo:.1}s"
        );
    }

    #[test]
    fn deputy_contention_taxes_crowded_homes() {
        // Same schedule, same decisions — only the deputy-sharing model
        // differs. A saturating deputy (every solo migrant uses its full
        // service capacity) must make away-jobs strictly slower than an
        // idle one (contention factor pinned at 1). Forty jobs, as in the
        // fabric test above, keep the run short: the standard 120 saturate
        // the cluster for ~137k simulated seconds.
        let run = |solo_saturation| {
            let mut cfg = ClusterConfig::standard(BalancePolicy::Aggressive, Scheme::Ampom);
            cfg.jobs = 40;
            cfg.deputy_solo_saturation = solo_saturation;
            simulate(&cfg)
        };
        let idle = run(0.0);
        let crowded = run(1.0);
        assert!(idle.migrations > 0);
        assert!(
            crowded.slowdown.mean() > idle.slowdown.mean(),
            "crowded homes {:.3} must exceed idle deputies {:.3}",
            crowded.slowdown.mean(),
            idle.slowdown.mean()
        );
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_cluster_rejected() {
        let mut cfg = ClusterConfig::standard(BalancePolicy::Aggressive, Scheme::Ampom);
        cfg.nodes = 1;
        let _ = simulate(&cfg);
    }
}
