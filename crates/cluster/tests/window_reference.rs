//! The indexed `WindowView` against the linear-scan window it replaced.
//!
//! `WindowView` once found a peer by scanning its window and found the
//! stalest entry with a `min_by` over it. That version is kept below as a
//! reference, its code unchanged apart from names, visibility and
//! comments. The property drives the reference and the production type
//! through the same random `merge`/`set_own`/`reset` sequence and compares
//! every return value and every observable after each step, including the
//! gossip payload under identically seeded RNGs, which pins the window's
//! order. The reference shuffles with its own one-draw-one-swap
//! Fisher–Yates over `SimRng::below`, so a change to `SimRng::shuffle`
//! shows here too. The property asserts that every merge case it exists
//! for was reached at least 10 times; a scripted case drives the
//! eviction path through a node evicted, re-admitted at the same
//! timestamp and evicted again.

use ampom_cluster::gossip::{merge_wins, LoadEntry, WindowView};
use ampom_sim::propcheck::{forall, Gen};
use ampom_sim::rng::SimRng;
use ampom_sim::time::{SimDuration, SimTime};

/// The linear-scan window.
#[derive(Debug, Clone)]
struct ReferenceWindow {
    me: usize,
    own: LoadEntry,
    window: Vec<(usize, LoadEntry)>,
    capacity: usize,
}

impl ReferenceWindow {
    fn new(me: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "WindowView needs a positive capacity");
        ReferenceWindow {
            me,
            own: LoadEntry {
                load: 0.0,
                measured_at: SimTime::ZERO,
            },
            window: Vec::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    fn set_own(&mut self, load: f64, now: SimTime) {
        self.own = LoadEntry {
            load,
            measured_at: now,
        };
    }

    fn reset(&mut self, now: SimTime) {
        self.window.clear();
        self.own = LoadEntry {
            load: 0.0,
            measured_at: now,
        };
    }

    fn entry(&self, node: usize) -> Option<LoadEntry> {
        if node == self.me {
            return Some(self.own);
        }
        self.window
            .iter()
            .find(|(n, _)| *n == node)
            .map(|&(_, e)| e)
    }

    fn known_peers(&self) -> usize {
        self.window.len()
    }

    fn max_entry_age(&self, now: SimTime) -> SimDuration {
        self.window
            .iter()
            .map(|(_, e)| now.saturating_since(e.measured_at))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    fn merge(&mut self, node: usize, entry: LoadEntry, now: SimTime, max_age: SimDuration) -> bool {
        if node == self.me {
            return false;
        }
        if now.saturating_since(entry.measured_at) > max_age {
            return false;
        }
        if let Some(slot) = self.window.iter_mut().find(|(n, _)| *n == node) {
            if merge_wins(slot.1, entry) {
                slot.1 = entry;
                return true;
            }
            return false;
        }
        if self.window.len() >= self.capacity {
            let victim = self
                .window
                .iter()
                .enumerate()
                .min_by(|(_, (an, ae)), (_, (bn, be))| {
                    ae.measured_at.cmp(&be.measured_at).then(bn.cmp(an))
                })
                .map(|(i, _)| i)
                .expect("non-empty window");
            if !merge_wins(self.window[victim].1, entry)
                && self.window[victim].1.measured_at >= entry.measured_at
            {
                return false;
            }
            self.window.swap_remove(victim);
        }
        self.window.push((node, entry));
        true
    }

    fn least_loaded_peer(&self, now: SimTime, max_age: SimDuration) -> Option<(usize, f64)> {
        self.window
            .iter()
            .filter(|(_, e)| now.saturating_since(e.measured_at) <= max_age)
            .map(|&(n, e)| (n, e.load))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    fn payload(&self, rng: &mut SimRng) -> Vec<(usize, LoadEntry)> {
        let mut known: Vec<(usize, LoadEntry)> = self.window.clone();
        for i in (1..known.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            known.swap(i, j);
        }
        known.truncate(known.len() / 2);
        let mut payload = Vec::with_capacity(known.len() + 1);
        payload.push((self.me, self.own));
        payload.extend(known);
        payload
    }
}

/// The merge cases the property must reach.
const CASES: [&str; 10] = [
    "own node",
    "stale at merge time",
    "held, fresher",
    "held, equal timestamp, higher load",
    "held, not fresher",
    "absent, room left",
    "absent, full, evicts",
    "absent, full, evicts one of several stalest",
    "absent, full, refused",
    "reset of a non-empty window",
];

/// Which of [`CASES`] a merge of `(node, entry)` into `model` hits.
fn classify(
    model: &ReferenceWindow,
    node: usize,
    entry: LoadEntry,
    now: SimTime,
    max_age: SimDuration,
) -> usize {
    if node == model.me {
        return 0;
    }
    if now.saturating_since(entry.measured_at) > max_age {
        return 1;
    }
    if let Some(held) = model.entry(node) {
        return match (
            entry.measured_at > held.measured_at,
            merge_wins(held, entry),
        ) {
            (true, _) => 2,
            (false, true) => 3,
            (false, false) => 4,
        };
    }
    if model.known_peers() < model.capacity {
        return 5;
    }
    let stalest = model
        .window
        .iter()
        .map(|(_, e)| e.measured_at)
        .min()
        .expect("a full window is non-empty");
    let ties = model
        .window
        .iter()
        .filter(|(_, e)| e.measured_at == stalest)
        .count();
    if !model.clone().merge(node, entry, now, max_age) {
        8
    } else if ties > 1 {
        7
    } else {
        6
    }
}

/// Every observable of the two windows agrees at `now`.
fn assert_same(
    model: &ReferenceWindow,
    real: &WindowView,
    nodes: usize,
    now: SimTime,
    max_age: SimDuration,
    payload_seed: u64,
) {
    for node in 0..nodes + 2 {
        assert_eq!(model.entry(node), real.entry(node), "entry({node})");
    }
    assert_eq!(model.known_peers(), real.known_peers());
    assert_eq!(model.max_entry_age(now), real.max_entry_age(now));
    assert_eq!(
        model.least_loaded_peer(now, max_age),
        real.least_loaded_peer(now, max_age)
    );
    let mut a = SimRng::seed_from_u64(payload_seed);
    let mut b = SimRng::seed_from_u64(payload_seed);
    assert_eq!(model.payload(&mut a), real.payload(&mut b), "payload");
    assert_eq!(a.next_u64(), b.next_u64(), "payload draws");
}

#[test]
fn indexed_window_matches_the_linear_scan_reference() {
    let mut seen = [0u32; CASES.len()];
    forall("window-reference", 256, |g: &mut Gen| {
        // Windows past 64 entries shuffle their payload across the
        // shuffle's 64-draw chunk edge, and on the heap.
        let capacity = g.usize(1..151);
        // From fewer peers than slots (the window never fills) to several
        // times as many (it fills and evicts).
        let nodes = g.usize(2..3 * capacity + 4);
        let me = g.usize(0..nodes);
        let max_age_s = g.u64(1..6);
        let max_age = SimDuration::from_secs(max_age_s);
        let mut model = ReferenceWindow::new(me, capacity);
        let mut real = WindowView::new(me, capacity);
        let mut now = SimTime::ZERO + SimDuration::from_secs(10);
        let mut reached = [false; CASES.len()];
        for _ in 0..g.usize(50..600) {
            match g.u64(0..100) {
                0 => {
                    reached[9] |= model.known_peers() > 0;
                    model.reset(now);
                    real.reset(now);
                }
                1..=5 => {
                    let load = g.u64(0..4) as f64;
                    model.set_own(load, now);
                    real.set_own(load, now);
                }
                6..=12 => now += SimDuration::from_secs(1),
                _ => {
                    // Whole-second timestamps up to two seconds past the
                    // staleness bound, and four load levels, so equal
                    // timestamps and equal loads are common.
                    let node = g.usize(0..nodes);
                    let entry = LoadEntry {
                        load: g.u64(0..4) as f64,
                        measured_at: now - SimDuration::from_secs(g.u64(0..max_age_s + 3)),
                    };
                    reached[classify(&model, node, entry, now, max_age)] = true;
                    assert_eq!(
                        model.merge(node, entry, now, max_age),
                        real.merge(node, entry, now, max_age),
                        "merge({node}, {entry:?}) at {now:?}"
                    );
                }
            }
            let payload_seed = g.u64(0..u64::MAX);
            assert_same(&model, &real, nodes, now, max_age, payload_seed);
        }
        for (n, r) in seen.iter_mut().zip(reached) {
            *n += u32::from(r);
        }
    });
    let report: Vec<String> = CASES
        .iter()
        .zip(seen)
        .map(|(case, n)| format!("{case}: {n}"))
        .collect();
    assert!(
        seen.iter().all(|&n| n >= 10),
        "merge cases reached: {report:?}"
    );
}

#[test]
fn a_node_evicted_and_readmitted_at_its_timestamp_is_evicted_again() {
    // Two slots. Every step is checked against the reference; `evicts`
    // says whether the merge changed the window by evicting a peer.
    let max_age = SimDuration::from_secs(3600);
    let now = SimTime::ZERO + SimDuration::from_secs(20);
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let mut model = ReferenceWindow::new(0, 2);
    let mut real = WindowView::new(0, 2);
    let steps: [(usize, f64, u64, bool); 9] = [
        (1, 1.0, 10, false),
        (2, 1.0, 10, false),
        // A refresh: node 1's key at 10 stays behind, stale.
        (1, 1.0, 11, false),
        // Ties at 10 go to the higher id: node 2 is evicted.
        (3, 2.0, 10, true),
        // Node 2 again at 10, with a higher load than node 3's: it
        // evicts node 3 and holds a key at the timestamp it was evicted
        // with.
        (2, 3.0, 10, true),
        // Node 2 is the stalest again and is evicted again.
        (4, 4.0, 10, true),
        // Node 4 at 10 outweighs this entry: refused.
        (5, 0.0, 10, false),
        (5, 0.0, 12, true),
        // Node 1's stale key at 10 surfaces and is popped; node 1 at 11
        // is the victim.
        (6, 0.0, 13, true),
    ];
    let mut seed = 7;
    for (step, &(node, load, s, evicts)) in steps.iter().enumerate() {
        let entry = LoadEntry {
            load,
            measured_at: at(s),
        };
        let full = model.known_peers() == 2 && model.entry(node).is_none();
        let want = model.merge(node, entry, now, max_age);
        assert_eq!(want, real.merge(node, entry, now, max_age), "step {step}");
        assert_eq!(full && want, evicts, "step {step} evicts");
        seed += 1;
        assert_same(&model, &real, 8, now, max_age, seed);
    }
    assert_eq!(real.entry(2), None);
    assert_eq!(real.entry(1), None);
    assert_eq!(
        (real.entry(5), real.entry(6)),
        (
            Some(LoadEntry {
                load: 0.0,
                measured_at: at(12)
            }),
            Some(LoadEntry {
                load: 0.0,
                measured_at: at(13)
            })
        )
    );
}
