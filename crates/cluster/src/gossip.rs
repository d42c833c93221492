//! MOSIX/openMosix probabilistic load dissemination.
//!
//! openMosix nodes do not query a central server: every time unit each
//! node sends its own load, plus a random half of what it knows about
//! other nodes, to one randomly chosen peer (Barak & Litman's MOSIX
//! information dissemination, inherited by openMosix's oM_infoD). Each
//! node therefore holds a **stale, partial load vector** — the balancer
//! must decide from that, not from ground truth. Staleness is the reason
//! suboptimal migrations happen, which is precisely why the paper argues
//! cheap freezes matter (§7).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ampom_sim::rng::SimRng;
use ampom_sim::time::SimTime;

/// One entry of a node's load vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadEntry {
    /// The reported load (run-queue length).
    pub load: f64,
    /// When the owner measured it.
    pub measured_at: SimTime,
}

/// The pinned merge rule: does `incoming` replace `existing`?
///
/// * A strictly fresher measurement always wins.
/// * At **equal timestamps** the **higher load** wins. Equal-timestamp
///   conflicts are routine at scale: the balancer's pessimistic
///   post-migration bump carries the same tick timestamp as the owner's
///   own measurement, and two gossip paths can deliver both within one
///   round. Higher-load-wins keeps the pessimism (no herding onto a node
///   that was just picked) and, unlike first-or-last-writer-wins, is
///   commutative and associative — the merged view is independent of
///   delivery order, which the deterministic parallel engine relies on.
/// * An equal-timestamp, equal-load entry does not replace (no-op).
pub fn merge_wins(existing: LoadEntry, incoming: LoadEntry) -> bool {
    incoming.measured_at > existing.measured_at
        || (incoming.measured_at == existing.measured_at && incoming.load > existing.load)
}

/// The largest window [`WindowView`] can index: its node → slot index
/// stores `slot + 1` in a `u16`.
pub const MAX_WINDOW: usize = u16::MAX as usize;

/// An eviction key: the stalest measurement first, ties toward the
/// higher node id (a min-heap through the `Reverse`). The timestamp's
/// nanoseconds fill the high 64 bits and `u64::MAX - node` the low 64, so
/// the integer orders as the pair `(measured_at, Reverse(node))` does.
type EvictionKey = Reverse<u128>;

fn eviction_key(node: usize, entry: LoadEntry) -> EvictionKey {
    let nanos = u128::from(entry.measured_at.as_nanos());
    Reverse(nanos << 64 | u128::from(u64::MAX - node as u64))
}

/// The node and the timestamp (in nanoseconds) a key was made from.
fn key_parts(Reverse(key): EvictionKey) -> (usize, u64) {
    ((u64::MAX - key as u64) as usize, (key >> 64) as u64)
}

/// A node's stale, partial view of cluster load: a bounded, age-stamped
/// window of peer entries.
///
/// A full load vector holds one slot per cluster node, which is fine at
/// 16 nodes and pure waste at 1000+: MOSIX's dissemination deliberately
/// keeps only a *window* of the freshest vector entries per node, because
/// stale entries are worse than no entries. `WindowView` keeps at most
/// `capacity` peer entries, rejects entries already older than the
/// staleness bound at merge time, and evicts the stalest entry when full
/// (ties broken by the higher node id, so eviction is deterministic). A
/// window whose capacity covers every peer never evicts: it is the full
/// vector.
///
/// The window's order is observable: [`WindowView::payload`] shuffles it,
/// so an insert always pushes and an eviction always `swap_remove`s. A
/// node → slot index finds a held peer without a scan, and a heap of
/// eviction keys finds the stalest entry. An eviction writes the
/// newcomer's key over the victim's, on top of the heap, and sifts it
/// down once. A refresh is lazy: it pushes a new key and leaves the old
/// one behind, a key whose timestamp no longer matches the window is
/// popped when it surfaces, and the heap is rebuilt from the window once
/// it holds twice as many keys as the window holds entries, so a window
/// that never fills (and so never pops) keeps it bounded.
#[derive(Debug, Clone)]
pub struct WindowView {
    me: usize,
    own: LoadEntry,
    window: Vec<(usize, LoadEntry)>,
    /// `slot[node]` is `node`'s index in `window` plus one, 0 when not
    /// held; as long as the largest node id ever held.
    slot: Vec<u16>,
    /// Eviction keys: one per held entry at its current timestamp, plus
    /// stale ones not yet popped.
    stalest: BinaryHeap<EvictionKey>,
    capacity: usize,
}

impl WindowView {
    /// A fresh window for node `me` holding at most `capacity` peers.
    ///
    /// # Panics
    /// Panics if `capacity` is 0 or above [`MAX_WINDOW`].
    pub fn new(me: usize, capacity: usize) -> Self {
        assert!(capacity > 0, "WindowView needs a positive capacity");
        assert!(
            capacity <= MAX_WINDOW,
            "WindowView capacity {capacity} exceeds the {MAX_WINDOW} slots its index addresses"
        );
        WindowView {
            me,
            own: LoadEntry {
                load: 0.0,
                measured_at: SimTime::ZERO,
            },
            window: Vec::with_capacity(capacity.min(1024)),
            slot: Vec::new(),
            stalest: BinaryHeap::new(),
            capacity,
        }
    }

    /// This node's id.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Updates this node's own entry.
    pub fn set_own(&mut self, load: f64, now: SimTime) {
        self.own = LoadEntry {
            load,
            measured_at: now,
        };
    }

    /// This node's own entry.
    pub fn own(&self) -> LoadEntry {
        self.own
    }

    /// Forgets everything but the own entry (a restarted node rejoins
    /// with an empty window).
    pub fn reset(&mut self, now: SimTime) {
        for &(node, _) in &self.window {
            self.slot[node] = 0;
        }
        self.window.clear();
        self.stalest.clear();
        self.own = LoadEntry {
            load: 0.0,
            measured_at: now,
        };
    }

    /// `node`'s index in the window, if held.
    fn slot_of(&self, node: usize) -> Option<usize> {
        self.slot
            .get(node)
            .and_then(|&s| usize::from(s).checked_sub(1))
    }

    /// The entry for `node`, if inside the window.
    pub fn entry(&self, node: usize) -> Option<LoadEntry> {
        if node == self.me {
            return Some(self.own);
        }
        self.slot_of(node).map(|i| self.window[i].1)
    }

    /// How many peers the window currently holds.
    pub fn known_peers(&self) -> usize {
        self.window.len()
    }

    /// Age of the stalest window entry at `now` (zero for an empty
    /// window).
    pub fn max_entry_age(&self, now: SimTime) -> ampom_sim::time::SimDuration {
        self.window
            .iter()
            .map(|(_, e)| now.saturating_since(e.measured_at))
            .max()
            .unwrap_or(ampom_sim::time::SimDuration::ZERO)
    }

    /// Merges a received entry under the staleness bound: entries already
    /// older than `max_age` at merge time are refused outright (a windowed
    /// view never spends a slot on an entry it would not act on), fresher
    /// entries win per [`merge_wins`], and a full window evicts its
    /// stalest entry. Returns `true` when the window changed.
    pub fn merge(
        &mut self,
        node: usize,
        entry: LoadEntry,
        now: SimTime,
        max_age: ampom_sim::time::SimDuration,
    ) -> bool {
        if node == self.me {
            return false;
        }
        if now.saturating_since(entry.measured_at) > max_age {
            return false;
        }
        if let Some(i) = self.slot_of(node) {
            let held = self.window[i].1;
            if !merge_wins(held, entry) {
                return false;
            }
            self.window[i].1 = entry;
            if held.measured_at != entry.measured_at {
                self.push_key(eviction_key(node, entry));
            }
            return true;
        }
        let evicts = self.window.len() >= self.capacity;
        if evicts {
            let victim = self.stalest_slot();
            if !merge_wins(self.window[victim].1, entry) {
                // The incoming entry is no fresher than the stalest held.
                return false;
            }
            let (gone, _) = self.window.swap_remove(victim);
            self.slot[gone] = 0;
            if let Some(&(moved, _)) = self.window.get(victim) {
                self.slot[moved] = Self::slot_value(victim);
            }
        }
        if node >= self.slot.len() {
            self.slot.reserve_exact(node + 1 - self.slot.len());
            self.slot.resize(node + 1, 0);
        }
        self.window.push((node, entry));
        self.slot[node] = Self::slot_value(self.window.len() - 1);
        let key = eviction_key(node, entry);
        if evicts {
            // The victim's key is on top: the newcomer's replaces it, one
            // sift down where a pop and a push took two.
            *self.stalest.peek_mut().expect("the victim's key is on top") = key;
        } else {
            self.push_key(key);
        }
        true
    }

    /// The index stored for window slot `i`; `new` bounds the capacity so
    /// it fits.
    fn slot_value(i: usize) -> u16 {
        u16::try_from(i + 1).expect("window capacity is at most MAX_WINDOW")
    }

    /// The window index of the stalest entry, popping the stale keys
    /// above it. Only called on a non-empty window.
    fn stalest_slot(&mut self) -> usize {
        loop {
            let (node, at) = key_parts(*self.stalest.peek().expect("every held entry has a key"));
            match self.slot_of(node) {
                Some(i) if self.window[i].1.measured_at.as_nanos() == at => return i,
                _ => {
                    self.stalest.pop();
                }
            }
        }
    }

    /// Adds an eviction key, rebuilding the heap from the window once
    /// stale keys make up half of it.
    fn push_key(&mut self, key: EvictionKey) {
        self.stalest.push(key);
        if self.stalest.len() >= 2 * self.window.len() {
            self.stalest.clear();
            self.stalest
                .extend(self.window.iter().map(|&(n, e)| eviction_key(n, e)));
        }
    }

    /// The least-loaded known peer with a fresh-enough entry, ties broken
    /// toward the lower node id (deterministic regardless of window
    /// order).
    pub fn least_loaded_peer(
        &self,
        now: SimTime,
        max_age: ampom_sim::time::SimDuration,
    ) -> Option<(usize, f64)> {
        self.window
            .iter()
            .filter(|(_, e)| now.saturating_since(e.measured_at) <= max_age)
            .map(|&(n, e)| (n, e.load))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// The MOSIX gossip payload: this node's own entry first, then a
    /// random half of the window. The half is the head of a shuffle of
    /// the window in its stored order. The shuffle permutes window
    /// indices, which takes the same draws and gives the same
    /// permutation as shuffling the entries, so only the half that is
    /// sent is copied. The indices of a window of up to 64 entries (the
    /// default `window`) are shuffled on the stack, so such a payload
    /// allocates only itself.
    pub fn payload(&self, rng: &mut SimRng) -> Vec<(usize, LoadEntry)> {
        let len = self.window.len();
        let mut on_stack = [0u16; 64];
        let mut on_heap = Vec::new();
        let order = if len <= on_stack.len() {
            &mut on_stack[..len]
        } else {
            on_heap.resize(len, 0u16);
            &mut on_heap[..]
        };
        for (i, o) in order.iter_mut().enumerate() {
            *o = i as u16;
        }
        rng.shuffle(order);
        let mut payload = Vec::with_capacity(1 + len / 2);
        payload.push((self.me, self.own));
        payload.extend(
            order[..len / 2]
                .iter()
                .map(|&i| self.window[usize::from(i)]),
        );
        payload
    }
}

/// One node's gossip plan for a tick: the chosen peer and the payload it
/// sends there. Pure in `(view, rng)`, so an engine can compute all
/// plans in parallel from an immutable snapshot and apply them in node
/// order — the deliveries are then independent of the thread count.
pub fn plan_gossip(
    view: &WindowView,
    nodes: usize,
    rng: &mut SimRng,
) -> Option<(usize, Vec<(usize, LoadEntry)>)> {
    if nodes < 2 {
        return None;
    }
    let mut target = rng.below(nodes as u64 - 1) as usize;
    if target >= view.me() {
        target += 1;
    }
    Some((target, view.payload(rng)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_sim::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// Long enough that no entry in these tests is refused as stale.
    const TRUST_ALL: SimDuration = SimDuration::from_secs(3600);

    /// A window that holds every peer of an `n`-node cluster.
    fn full(n: usize, me: usize) -> WindowView {
        WindowView::new(me, n)
    }

    fn entry(load: f64, at: u64) -> LoadEntry {
        LoadEntry {
            load,
            measured_at: t(at),
        }
    }

    /// One simultaneous push round: every node plans its send from the
    /// pre-round views, then the payloads are delivered in node order.
    fn round(views: &mut [WindowView], now: SimTime, rng: &mut SimRng) {
        let n = views.len();
        let plans: Vec<_> = views
            .iter()
            .filter_map(|v| plan_gossip(v, n, rng))
            .collect();
        for (target, payload) in plans {
            for (node, e) in payload {
                views[target].merge(node, e, now, TRUST_ALL);
            }
        }
    }

    #[test]
    fn fresh_view_knows_only_itself() {
        let v = full(8, 3);
        assert_eq!(v.known_peers(), 0);
        assert!(v.entry(3).is_some());
        assert!(v.entry(0).is_none());
    }

    #[test]
    fn merge_keeps_fresher_entry() {
        let mut v = full(4, 0);
        v.merge(1, entry(5.0, 10), t(10), TRUST_ALL);
        v.merge(1, entry(9.0, 5), t(10), TRUST_ALL); // staler
        assert_eq!(v.entry(1).unwrap().load, 5.0);
        v.merge(1, entry(2.0, 20), t(20), TRUST_ALL); // fresher
        assert_eq!(v.entry(1).unwrap().load, 2.0);
    }

    #[test]
    fn least_loaded_respects_staleness() {
        let mut v = full(4, 0);
        v.merge(1, entry(1.0, 0), t(0), TRUST_ALL);
        v.merge(2, entry(3.0, 9), t(9), TRUST_ALL);
        let now = t(10);
        // Node 1 is cheaper but its entry is 10 s old; with max_age 8 s it
        // is distrusted.
        let pick = v.least_loaded_peer(now, SimDuration::from_secs(8));
        assert_eq!(pick, Some((2, 3.0)));
        // With a looser bound node 1 wins.
        let pick = v.least_loaded_peer(now, SimDuration::from_secs(60));
        assert_eq!(pick, Some((1, 1.0)));
    }

    #[test]
    fn gossip_spreads_information() {
        let n = 16;
        let mut views: Vec<WindowView> = (0..n).map(|i| full(n, i)).collect();
        let mut rng = SimRng::seed_from_u64(11);
        for (i, v) in views.iter_mut().enumerate() {
            v.set_own(i as f64, t(0));
        }
        for r in 0..20 {
            round(&mut views, t(r), &mut rng);
        }
        // After 20 rounds of push gossip every node should know most of
        // the cluster.
        let avg_known: f64 = views.iter().map(|v| v.known_peers() as f64).sum::<f64>() / n as f64;
        assert!(avg_known > (n - 1) as f64 * 0.7, "avg known {avg_known}");
    }

    #[test]
    fn gossip_payload_contains_self_first() {
        let mut v = full(8, 2);
        v.set_own(4.0, t(1));
        v.merge(0, entry(1.0, 1), t(1), TRUST_ALL);
        v.merge(5, entry(2.0, 1), t(1), TRUST_ALL);
        let mut rng = SimRng::seed_from_u64(3);
        let payload = v.payload(&mut rng);
        assert_eq!(payload[0].0, 2);
        assert_eq!(payload[0].1.load, 4.0);
        // Half of the two known peers = 1 extra entry.
        assert_eq!(payload.len(), 2);
    }

    #[test]
    fn merge_equal_timestamp_higher_load_wins() {
        // Regression for the previously unpinned tie-break: the old rule
        // (`existing.measured_at >= entry.measured_at` keeps existing)
        // silently dropped the balancer's pessimistic bump whenever it
        // carried the same tick timestamp as the owner's measurement.
        let mut v = full(4, 0);
        v.merge(1, entry(2.0, 7), t(7), TRUST_ALL);
        // Same timestamp, higher load: wins.
        v.merge(1, entry(3.0, 7), t(7), TRUST_ALL);
        assert_eq!(v.entry(1).unwrap().load, 3.0);
        // Same timestamp, lower load: loses.
        v.merge(1, entry(1.0, 7), t(7), TRUST_ALL);
        assert_eq!(v.entry(1).unwrap().load, 3.0);
    }

    #[test]
    fn merge_rule_is_order_independent() {
        // Any delivery order of the same entry set converges to the same
        // view — the property the parallel engine's sequential-apply
        // phase relies on.
        let entries = [entry(2.0, 7), entry(5.0, 7), entry(9.0, 3), entry(1.0, 7)];
        // A handful of distinct permutations of the 4! orders.
        let orders: [[usize; 4]; 6] = [
            [0, 1, 2, 3],
            [3, 2, 1, 0],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [1, 3, 0, 2],
            [2, 0, 3, 1],
        ];
        for order in orders {
            let mut v = full(2, 0);
            for &k in &order {
                v.merge(1, entries[k], t(7), TRUST_ALL);
            }
            let got = v.entry(1).unwrap();
            assert_eq!((got.load, got.measured_at), (5.0, t(7)), "order {order:?}");
        }
    }

    #[test]
    fn window_refuses_stale_entries_at_merge_time() {
        let mut w = WindowView::new(0, 8);
        let max_age = SimDuration::from_secs(8);
        assert!(!w.merge(
            1,
            LoadEntry {
                load: 1.0,
                measured_at: t(0),
            },
            t(20),
            max_age,
        ));
        assert_eq!(w.known_peers(), 0);
        assert!(w.merge(
            1,
            LoadEntry {
                load: 1.0,
                measured_at: t(15),
            },
            t(20),
            max_age,
        ));
        assert_eq!(w.known_peers(), 1);
    }

    #[test]
    fn window_evicts_stalest_deterministically() {
        let mut w = WindowView::new(0, 2);
        let max_age = SimDuration::from_secs(3600);
        w.merge(
            1,
            LoadEntry {
                load: 1.0,
                measured_at: t(10),
            },
            t(10),
            max_age,
        );
        w.merge(
            2,
            LoadEntry {
                load: 2.0,
                measured_at: t(10),
            },
            t(10),
            max_age,
        );
        // Full window; a fresher entry for node 3 evicts the stalest.
        // Both held entries share t(10), so the tie goes to the higher
        // node id: node 2 is evicted.
        assert!(w.merge(
            3,
            LoadEntry {
                load: 9.0,
                measured_at: t(11),
            },
            t(11),
            max_age,
        ));
        assert_eq!(w.known_peers(), 2);
        assert!(w.entry(1).is_some());
        assert!(w.entry(2).is_none());
        assert!(w.entry(3).is_some());
        // An entry staler than everything held is refused even though the
        // window is full of other nodes.
        assert!(!w.merge(
            4,
            LoadEntry {
                load: 0.1,
                measured_at: t(9),
            },
            t(11),
            max_age,
        ));
        assert!(w.entry(4).is_none());
    }

    #[test]
    fn eviction_heap_stays_bounded_in_a_window_that_never_fills() {
        // 15 peers refreshing every round never fill 64 slots, so no
        // eviction ever pops a key; only the rebuild bounds the heap.
        let mut w = WindowView::new(0, 64);
        let max_age = SimDuration::from_secs(8);
        let mut most = 0;
        for round in 1..=2_000 {
            for node in 1..16 {
                let entry = LoadEntry {
                    load: (node % 3) as f64,
                    measured_at: t(round),
                };
                assert!(w.merge(node, entry, t(round), max_age));
                assert!(w.stalest.len() < 2 * w.known_peers());
                most = most.max(w.stalest.len());
            }
        }
        assert_eq!(w.known_peers(), 15);
        assert!(most >= 15, "the heap held a key per entry: {most}");
        w.reset(t(2_001));
        assert!(w.stalest.is_empty());
        assert!(w.slot.iter().all(|&s| s == 0));
    }

    #[test]
    #[should_panic(expected = "exceeds the 65535 slots its index addresses")]
    fn window_capacity_past_the_index_width_is_refused() {
        WindowView::new(0, MAX_WINDOW + 1);
    }

    #[test]
    fn window_least_loaded_breaks_ties_by_node_id() {
        let mut w = WindowView::new(0, 8);
        let max_age = SimDuration::from_secs(60);
        for node in [5, 2, 7] {
            w.merge(
                node,
                LoadEntry {
                    load: 1.0,
                    measured_at: t(1),
                },
                t(1),
                max_age,
            );
        }
        assert_eq!(w.least_loaded_peer(t(2), max_age), Some((2, 1.0)));
    }

    #[test]
    fn plan_gossip_never_targets_self() {
        let mut w = WindowView::new(3, 8);
        w.set_own(1.0, t(0));
        let mut rng = SimRng::seed_from_u64(99);
        for _ in 0..200 {
            let (target, payload) = plan_gossip(&w, 8, &mut rng).unwrap();
            assert_ne!(target, 3);
            assert!(target < 8);
            assert_eq!(payload[0].0, 3);
        }
        assert!(plan_gossip(&w, 1, &mut rng).is_none());
    }

    #[test]
    fn single_node_cluster_gossips_harmlessly() {
        let mut views = vec![full(1, 0)];
        let mut rng = SimRng::seed_from_u64(1);
        round(&mut views, t(0), &mut rng);
        assert_eq!(views[0].known_peers(), 0);
    }
}
