//! Property tests for the network substrate.

use ampom_net::link::{Link, LinkConfig};
use ampom_net::nic::Nic;
use ampom_net::probe::BandwidthEstimator;
use ampom_sim::propcheck::{forall, Gen};
use ampom_sim::time::{SimDuration, SimTime};

fn random_link(g: &mut Gen) -> LinkConfig {
    LinkConfig {
        capacity_bytes_per_sec: g.u64(1_000..100_000_000),
        latency: SimDuration::from_micros(g.u64(0..10_000)),
    }
}

#[test]
fn link_is_fifo_and_work_conserving() {
    forall("link-fifo", 256, |g| {
        let cfg = random_link(g);
        let msgs = g.vec(1..100, |g| (g.u64(0..1_000_000), g.u64(1..100_000)));
        let mut link = Link::new(cfg);
        let mut sends: Vec<(SimTime, u64)> = msgs
            .iter()
            .map(|&(t, size)| (SimTime::from_nanos(t), size))
            .collect();
        sends.sort_by_key(|&(t, _)| t);
        let mut last_depart = SimTime::ZERO;
        let mut total_ser = SimDuration::ZERO;
        for &(t, size) in &sends {
            let tx = link.transmit(t, size);
            // FIFO: departures never reorder.
            assert!(tx.departs >= last_depart);
            // Arrival = departure + latency, exactly.
            assert_eq!(tx.arrives, tx.departs + cfg.latency);
            // Work conservation: the message departs no earlier than its
            // own serialization finishing from its send time.
            assert!(tx.departs >= t + cfg.serialization_time(size));
            last_depart = tx.departs;
            total_ser += cfg.serialization_time(size);
        }
        // Busy time is exactly the sum of serializations.
        assert_eq!(link.busy_time(), total_ser);
        assert_eq!(
            link.bytes_carried(),
            sends.iter().map(|&(_, s)| s).sum::<u64>()
        );
    });
}

#[test]
fn serialization_time_is_additive() {
    forall("serialization-additive", 256, |g| {
        let cfg = random_link(g);
        let a = g.u64(0..1_000_000);
        let b = g.u64(0..1_000_000);
        let sa = cfg.serialization_time(a).as_nanos();
        let sb = cfg.serialization_time(b).as_nanos();
        let sab = cfg.serialization_time(a + b).as_nanos();
        // Integer division may lose at most 2 ns across the split.
        assert!(sab >= sa + sb);
        assert!(sab <= sa + sb + 2);
    });
}

#[test]
fn nic_counters_are_monotone() {
    forall("nic-monotone", 256, |g| {
        let ops = g.vec(0..200, |g| (g.bool(0.5), g.u64(0..1_000_000)));
        let mut nic = Nic::new();
        let mut prev = nic.snapshot();
        for &(tx, bytes) in &ops {
            if tx {
                nic.on_transmit(bytes);
            } else {
                nic.on_receive(bytes);
            }
            let cur = nic.snapshot();
            assert!(cur.rx_bytes >= prev.rx_bytes);
            assert!(cur.tx_bytes >= prev.tx_bytes);
            assert_eq!(cur.delta_since(&prev), bytes);
            prev = cur;
        }
    });
}

#[test]
fn bandwidth_estimate_stays_in_physical_range() {
    forall("bandwidth-range", 256, |g| {
        let cap = g.u64(1_000..100_000_000);
        let samples = g.vec(1..50, |g| (g.u64(1..1_000_000), g.u64(0..10_000_000)));
        let mut est = BandwidthEstimator::new(cap);
        let mut now = SimTime::ZERO;
        let mut rx = 0u64;
        for &(dt_us, bytes) in &samples {
            now += SimDuration::from_micros(dt_us);
            rx += bytes;
            let snap = ampom_net::nic::NicSnapshot {
                rx_bytes: rx,
                tx_bytes: 0,
            };
            let avail = est.sample(now, snap, 0);
            assert!(avail <= cap);
            assert!(avail >= cap / 50, "floor is 2% of capacity");
        }
    });
}
