//! The two-node network path between a migrant and its home node.
//!
//! Every experiment in the paper involves one migrant on a destination
//! node talking to its deputy on the original (home) node over the cluster
//! network. [`NetPath`] bundles the two directed links, the per-node NICs
//! whose byte counters the monitor daemon samples, and an optional
//! cross-traffic source, and exposes the message-level operations the
//! protocol needs: paging requests, page replies, bulk (eager) transfers,
//! and the oM_infoD's load-update probes.

use ampom_net::calibration::{
    PAGE_SIZE, PER_MESSAGE_OVERHEAD, REPLY_HEADER_BYTES, REQUEST_HEADER_BYTES,
    REQUEST_PER_PAGE_BYTES,
};
use ampom_net::cross::CrossTraffic;
use ampom_net::link::{Link, LinkConfig};
use ampom_net::nic::{Nic, NicSnapshot};
use ampom_sim::time::{SimDuration, SimTime};

/// The bidirectional path between the destination node (where the migrant
/// runs) and the original node (where the deputy runs).
#[derive(Debug)]
pub struct NetPath {
    /// Original → destination: page replies, pushed pages, probe acks.
    home_to_dest: Link,
    /// Destination → original: paging requests, probes, syscalls.
    dest_to_home: Link,
    home_nic: Nic,
    dest_nic: Nic,
    cross: CrossTraffic,
    /// Cumulative bytes of the migrant's own remote-paging traffic (both
    /// directions) — what the bandwidth estimator may subtract.
    own_bytes: u64,
}

impl NetPath {
    /// Builds a path with both directions using `config` and no cross
    /// traffic.
    pub fn new(config: LinkConfig) -> Self {
        NetPath {
            home_to_dest: Link::new(config),
            dest_to_home: Link::new(config),
            home_nic: Nic::new(),
            dest_nic: Nic::new(),
            cross: CrossTraffic::silent(),
            own_bytes: 0,
        }
    }

    /// Attaches a cross-traffic source that competes with page replies on
    /// the home→destination direction.
    pub fn with_cross_traffic(mut self, cross: CrossTraffic) -> Self {
        self.cross = cross;
        self
    }

    /// The link configuration of the reply direction.
    pub fn config(&self) -> LinkConfig {
        *self.home_to_dest.config()
    }

    /// Injects any cross traffic due up to `now`. Call before transmitting.
    pub fn advance(&mut self, now: SimTime) {
        if self.cross.is_silent() {
            return;
        }
        for msg in self.cross.drain_until(now) {
            self.home_to_dest
                .transmit(msg.at.max(SimTime::ZERO), msg.bytes);
            self.home_nic.on_transmit(msg.bytes);
            self.dest_nic.on_receive(msg.bytes);
        }
    }

    /// Wire size of a paging request for `n_pages` page ids.
    pub fn request_bytes(n_pages: usize) -> u64 {
        REQUEST_HEADER_BYTES + REQUEST_PER_PAGE_BYTES * n_pages as u64
    }

    /// Wire size of one page reply.
    pub fn page_reply_bytes() -> u64 {
        REPLY_HEADER_BYTES + PAGE_SIZE
    }

    /// Sends a paging request listing `n_pages` pages at `now`; returns
    /// when it reaches the home node (including the per-message software
    /// overhead on the sending side).
    pub fn send_request(&mut self, now: SimTime, n_pages: usize) -> SimTime {
        self.advance(now);
        let bytes = Self::request_bytes(n_pages);
        let tx = self
            .dest_to_home
            .transmit(now + PER_MESSAGE_OVERHEAD, bytes);
        self.dest_nic.on_transmit(bytes);
        self.home_nic.on_receive(bytes);
        self.own_bytes += bytes;
        tx.arrives
    }

    /// Sends one page from the home node at `from`; returns its arrival at
    /// the destination. Successive calls queue FIFO, which is the
    /// pipelining the prefetcher exploits.
    pub fn send_page(&mut self, from: SimTime) -> SimTime {
        self.advance(from);
        let bytes = Self::page_reply_bytes();
        let tx = self.home_to_dest.transmit(from, bytes);
        self.home_nic.on_transmit(bytes);
        self.dest_nic.on_receive(bytes);
        self.own_bytes += bytes;
        tx.arrives
    }

    /// Sends a paging request that is lost in flight: the request
    /// serializes and occupies the uplink (the frame really left the NIC)
    /// but never reaches the home node.
    pub fn send_request_lost(&mut self, now: SimTime, n_pages: usize) {
        self.advance(now);
        let bytes = Self::request_bytes(n_pages);
        self.dest_to_home
            .transmit(now + PER_MESSAGE_OVERHEAD, bytes);
        self.dest_nic.on_transmit(bytes);
        self.own_bytes += bytes;
    }

    /// Sends one page reply that is lost in flight: it occupies the reply
    /// link like a delivered page (loss does not free bandwidth) but the
    /// destination never receives it.
    pub fn send_page_lost(&mut self, from: SimTime) {
        self.advance(from);
        let bytes = Self::page_reply_bytes();
        self.home_to_dest.transmit(from, bytes);
        self.home_nic.on_transmit(bytes);
        self.own_bytes += bytes;
    }

    /// Bulk transfer of `bytes` destination → home (the dirty-page
    /// writeback of a remigration); returns completion.
    pub fn bulk_transfer_to_home(&mut self, from: SimTime, bytes: u64) -> SimTime {
        self.advance(from);
        let tx = self.dest_to_home.transmit(from, bytes);
        self.dest_nic.on_transmit(bytes);
        self.home_nic.on_receive(bytes);
        self.own_bytes += bytes;
        tx.arrives
    }

    /// Bulk transfer of `bytes` home → destination (the eager openMosix
    /// freeze copy); returns completion (arrival of the last byte).
    pub fn bulk_transfer(&mut self, from: SimTime, bytes: u64) -> SimTime {
        self.advance(from);
        let tx = self.home_to_dest.transmit(from, bytes);
        self.home_nic.on_transmit(bytes);
        self.dest_nic.on_receive(bytes);
        self.own_bytes += bytes;
        tx.arrives
    }

    /// A small control message destination → home (syscall forwarding,
    /// load updates). Returns its arrival time.
    pub fn send_control_to_home(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.advance(now);
        let tx = self
            .dest_to_home
            .transmit(now + PER_MESSAGE_OVERHEAD, bytes);
        self.dest_nic.on_transmit(bytes);
        self.home_nic.on_receive(bytes);
        self.own_bytes += bytes;
        tx.arrives
    }

    /// `n` control messages of `bytes` each, destination → home, all sent
    /// at `now`: exactly what `n` calls to [`Self::send_control_to_home`]
    /// at the same `now` do, with the link and the NICs updated once.
    /// Returns the last message's arrival (`None` when `n` is 0, which
    /// sends nothing and injects no cross traffic).
    pub fn send_controls_to_home(&mut self, now: SimTime, bytes: u64, n: u64) -> Option<SimTime> {
        if n == 0 {
            return None;
        }
        self.advance(now);
        let tx = self
            .dest_to_home
            .transmit_n(now + PER_MESSAGE_OVERHEAD, bytes, n)?;
        self.dest_nic.on_transmit_n(bytes, n);
        self.home_nic.on_receive_n(bytes, n);
        self.own_bytes += bytes * n;
        Some(tx.arrives)
    }

    /// A small control message home → destination (acks, syscall results).
    pub fn send_control_to_dest(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.advance(now);
        let tx = self.home_to_dest.transmit(now, bytes);
        self.home_nic.on_transmit(bytes);
        self.dest_nic.on_receive(bytes);
        self.own_bytes += bytes;
        tx.arrives
    }

    /// The destination NIC's current counters (what the migrant-side
    /// monitor samples).
    pub fn dest_nic_snapshot(&self) -> NicSnapshot {
        self.dest_nic.snapshot()
    }

    /// Cumulative remote-paging bytes attributable to the migrant.
    pub fn own_bytes(&self) -> u64 {
        self.own_bytes
    }

    /// Total bytes the destination received (diagnostics).
    pub fn bytes_to_dest(&self) -> u64 {
        self.dest_nic.snapshot().rx_bytes
    }

    /// Total bytes the destination sent (diagnostics).
    pub fn bytes_from_dest(&self) -> u64 {
        self.dest_nic.snapshot().tx_bytes
    }

    /// When the reply link next becomes free (diagnostics/tests).
    pub fn reply_link_free_at(&self) -> SimTime {
        self.home_to_dest.free_at()
    }

    /// Busy fraction of the reply link over `[0, now]`.
    pub fn reply_utilization(&self, now: SimTime) -> f64 {
        self.home_to_dest.utilization(now)
    }

    /// One-way propagation latency of the path.
    pub fn latency(&self) -> SimDuration {
        self.home_to_dest.config().latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_net::calibration::fast_ethernet;
    use ampom_sim::rng::SimRng;

    fn path() -> NetPath {
        NetPath::new(fast_ethernet())
    }

    #[test]
    fn request_and_reply_round_trip_timing() {
        let mut p = path();
        let t0 = SimTime::ZERO;
        let at_home = p.send_request(t0, 1);
        assert!(at_home > t0 + p.latency());
        let back = p.send_page(at_home);
        assert!(back > at_home + p.latency());
        // Full round trip exceeds 2×latency plus serialization.
        assert!(back.since(t0) > p.latency() * 2);
    }

    #[test]
    fn pages_pipeline_on_the_reply_link() {
        let mut p = path();
        let t = SimTime::ZERO;
        let a1 = p.send_page(t);
        let a2 = p.send_page(t);
        let a3 = p.send_page(t);
        let gap21 = a2.since(a1);
        let gap32 = a3.since(a2);
        assert_eq!(gap21, gap32, "back-to-back arrivals equally spaced");
        // Spacing is exactly one serialization time — the latency is paid
        // only once for the whole pipeline.
        let ser = fast_ethernet().serialization_time(NetPath::page_reply_bytes());
        assert_eq!(gap21, ser);
        assert!(a1.since(SimTime::ZERO) < ser + p.latency() + SimDuration::from_micros(1));
    }

    #[test]
    fn nic_counters_see_both_directions() {
        let mut p = path();
        p.send_request(SimTime::ZERO, 4);
        p.send_page(SimTime::ZERO);
        let snap = p.dest_nic_snapshot();
        assert_eq!(snap.tx_bytes, NetPath::request_bytes(4));
        assert_eq!(snap.rx_bytes, NetPath::page_reply_bytes());
        assert_eq!(
            p.own_bytes(),
            NetPath::request_bytes(4) + NetPath::page_reply_bytes()
        );
    }

    #[test]
    fn cross_traffic_delays_replies_and_bumps_counters() {
        let cfg = fast_ethernet();
        let mut quiet = NetPath::new(cfg);
        let mut busy = NetPath::new(cfg).with_cross_traffic(CrossTraffic::new(
            8_000_000,
            64 * 1024,
            SimRng::seed_from_u64(3),
        ));
        let probe_at = SimTime::ZERO + SimDuration::from_millis(50);
        let a_quiet = quiet.send_page(probe_at);
        let a_busy = busy.send_page(probe_at);
        assert!(a_busy > a_quiet, "cross traffic queues ahead of the reply");
        assert!(busy.dest_nic_snapshot().rx_bytes > quiet.dest_nic_snapshot().rx_bytes);
        // Cross traffic is not "own" traffic.
        assert_eq!(busy.own_bytes(), NetPath::page_reply_bytes());
    }

    #[test]
    fn n_controls_at_once_match_n_control_messages() {
        use ampom_sim::propcheck::forall;
        // Whether a batch injected cross traffic, and whether one was
        // empty.
        let mut seen = [0u32; 2];
        forall("net-path-controls-n", 128, |g| {
            let seed = g.u64(0..1 << 32);
            let with_cross = |seed| {
                NetPath::new(fast_ethernet()).with_cross_traffic(CrossTraffic::new(
                    8_000_000,
                    16 * 1024,
                    SimRng::seed_from_u64(seed),
                ))
            };
            let (mut one_by_one, mut batched) = (with_cross(seed), with_cross(seed));
            let mut now = SimTime::ZERO;
            for _ in 0..g.usize(1..40) {
                now += SimDuration::from_micros(g.u64(0..3_000));
                match g.usize(0..3) {
                    0 => {
                        one_by_one.send_page(now);
                        batched.send_page(now);
                    }
                    1 => {
                        let pages = g.usize(1..20);
                        one_by_one.send_request(now, pages);
                        batched.send_request(now, pages);
                    }
                    _ => {
                        let n = g.u64(0..24);
                        let bytes = *g.choose(&[NetPath::page_reply_bytes(), 64]);
                        let rx_before = batched.dest_nic_snapshot().rx_bytes;
                        let last = (0..n)
                            .map(|_| one_by_one.send_control_to_home(now, bytes))
                            .last();
                        assert_eq!(batched.send_controls_to_home(now, bytes, n), last);
                        seen[0] += u32::from(batched.dest_nic_snapshot().rx_bytes > rx_before);
                        seen[1] += u32::from(n == 0);
                    }
                }
                let nics = |p: &NetPath| {
                    (
                        p.home_nic.snapshot(),
                        p.dest_nic.snapshot(),
                        (p.home_nic.rx_packets(), p.home_nic.tx_packets()),
                        (p.dest_nic.rx_packets(), p.dest_nic.tx_packets()),
                        p.own_bytes(),
                    )
                };
                assert_eq!(nics(&batched), nics(&one_by_one));
                // The links, the cross-traffic source and its generator.
                assert_eq!(format!("{batched:?}"), format!("{one_by_one:?}"));
            }
        });
        assert!(seen.iter().all(|&n| n >= 10), "cases reached: {seen:?}");
    }

    #[test]
    fn bulk_transfer_time_matches_goodput() {
        let mut p = path();
        let bytes = 115 * 1024 * 1024;
        let done = p.bulk_transfer(SimTime::ZERO, bytes);
        let expect = bytes as f64 / fast_ethernet().capacity_bytes_per_sec as f64;
        assert!((done.as_secs_f64() - expect).abs() < 0.01);
    }
}
