//! The store-and-forward FIFO link.
//!
//! A [`Link`] is a *directed* channel between two nodes with a fixed
//! capacity and propagation latency. Transmissions serialize: a message of
//! `size` bytes occupies the transmitter for `size / capacity`, and messages
//! queue FIFO behind whatever is already in flight. Delivery happens one
//! propagation latency after serialization completes.
//!
//! This is the level of detail the paper's results depend on: the freeze
//! time of an eager migration is the serialization time of every dirty page;
//! a NoPrefetch fault stall is one RTT plus one page serialization; AMPoM's
//! benefit is that prefetched pages serialize back-to-back while the migrant
//! computes (the "pipelining effect" of §5.4).

use ampom_sim::time::{SimDuration, SimTime};

/// A malformed [`LinkConfig`].
///
/// Configs come in from experiment builders and sweep grids; returning a
/// typed error lets those layers reject a bad cell instead of panicking
/// inside a sweep worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// `capacity_bytes_per_sec` was 0 — no byte could ever serialize.
    ZeroCapacity,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::ZeroCapacity => write!(f, "link with zero capacity"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Immutable parameters of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Usable capacity in bytes per second (goodput, not line rate).
    pub capacity_bytes_per_sec: u64,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

impl LinkConfig {
    /// Checks the config for values no simulation could run with.
    pub fn validate(&self) -> Result<(), LinkError> {
        if self.capacity_bytes_per_sec == 0 {
            return Err(LinkError::ZeroCapacity);
        }
        Ok(())
    }

    /// Time to clock `bytes` onto the wire, or an error for a link that
    /// was never valid. A time past `u64::MAX` ns (584 years) saturates
    /// there, so the first clock it is added to overflows loudly instead
    /// of running on a wrapped value.
    pub fn try_serialization_time(&self, bytes: u64) -> Result<SimDuration, LinkError> {
        self.validate()?;
        // bytes * 1e9 / capacity, in u128 to avoid overflow for huge bursts.
        let ns = (bytes as u128 * 1_000_000_000u128) / self.capacity_bytes_per_sec as u128;
        Ok(SimDuration::from_nanos(
            u64::try_from(ns).unwrap_or(u64::MAX),
        ))
    }

    /// Time to clock `bytes` onto the wire at this link's capacity.
    ///
    /// # Panics
    /// Panics on a zero-capacity config. Configs are validated at every
    /// construction boundary (`RunConfig::validate`, the sweep builder),
    /// so reaching this is an internal invariant violation; validate
    /// up front with [`LinkConfig::validate`] when handling user input.
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        self.try_serialization_time(bytes)
            .expect("link with zero capacity")
    }

    /// Round-trip time of an empty probe (2 × latency); the `2·t0` of Eq. 3.
    pub fn rtt(&self) -> SimDuration {
        self.latency * 2
    }
}

/// The outcome of enqueueing a message on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// When the last byte left the transmitter (the link becomes free).
    pub departs: SimTime,
    /// When the message is delivered at the receiver.
    pub arrives: SimTime,
    /// How long the message waited behind earlier traffic before its first
    /// byte hit the wire.
    pub queued_for: SimDuration,
}

/// A directed FIFO link with serialization and queueing.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    /// Earliest time the transmitter is free.
    free_at: SimTime,
    /// Total bytes ever accepted.
    bytes_carried: u64,
    /// Cumulative time the link spent busy (for utilization reporting).
    busy_time: SimDuration,
    /// The last message size and its serialization time under `config`:
    /// a run sends a handful of sizes, mostly the same one back to back,
    /// so the quotient is worked out once per change of size.
    last_ser: Option<(u64, SimDuration)>,
}

impl Link {
    /// A new idle link.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            free_at: SimTime::ZERO,
            bytes_carried: 0,
            busy_time: SimDuration::ZERO,
            last_ser: None,
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Replaces the link configuration, as `tc` applied to a live
    /// interface would. In-flight traffic keeps its old schedule; only
    /// subsequent transmissions see the new rate.
    pub fn reconfigure(&mut self, config: LinkConfig) {
        self.config = config;
        self.last_ser = None;
    }

    /// [`LinkConfig::serialization_time`] of a `size`-byte message,
    /// remembered for the next message of the same size.
    ///
    /// # Panics
    /// Panics on a zero-capacity config, at the first message.
    fn serialization_time(&mut self, size: u64) -> SimDuration {
        match self.last_ser {
            Some((last, ser)) if last == size => ser,
            _ => {
                let ser = self.config.serialization_time(size);
                self.last_ser = Some((size, ser));
                ser
            }
        }
    }

    /// Enqueues a `size`-byte message at time `now`, returning its
    /// transmission schedule.
    ///
    /// # Panics
    /// Panics if `now` precedes an earlier call's `now` by way of the
    /// FIFO invariant being violated externally (the link itself only
    /// requires `now` monotonicity per sender, which the event loop
    /// guarantees).
    pub fn transmit(&mut self, now: SimTime, size: u64) -> Transmission {
        let start = now.max(self.free_at);
        let ser = self.serialization_time(size);
        let departs = start + ser;
        self.free_at = departs;
        self.bytes_carried += size;
        self.busy_time += ser;
        Transmission {
            departs,
            arrives: departs + self.config.latency,
            queued_for: start.since(now),
        }
    }

    /// Enqueues `n` messages of `size` bytes, all at time `now`: the link
    /// ends in exactly the state `n` calls to [`Self::transmit`] leave,
    /// and the result is the schedule the last of them returns (`None`
    /// when `n` is 0, which changes nothing). The messages serialize back
    /// to back, so the last departs `n` serialization times after the
    /// first starts.
    ///
    /// # Panics
    /// Panics where `n` calls would: a clock or busy time past `u64::MAX`
    /// ns. The products are checked, never wrapped.
    pub fn transmit_n(&mut self, now: SimTime, size: u64, n: u64) -> Option<Transmission> {
        if n == 0 {
            return None;
        }
        let start = now.max(self.free_at);
        let ser = self.serialization_time(size);
        let busy = ser * n;
        let departs = start + busy;
        self.free_at = departs;
        self.bytes_carried += size.checked_mul(n).expect("bytes carried overflow");
        self.busy_time += busy;
        Some(Transmission {
            departs,
            arrives: departs + self.config.latency,
            queued_for: (departs - ser).since(now),
        })
    }

    /// When the transmitter next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total bytes accepted since creation.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Cumulative serialization (busy) time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Fraction of `[0, now]` the link spent transmitting.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let span = now.as_nanos();
        if span == 0 {
            return 0.0;
        }
        (self.busy_time.as_nanos() as f64 / span as f64).min(1.0)
    }
}

/// A symmetric pair of directed links between two endpoints, as seen from
/// one of them. `forward` carries this endpoint's requests; `reverse`
/// carries the peer's replies.
#[derive(Debug, Clone)]
pub struct DuplexLink {
    /// Local → remote direction.
    pub forward: Link,
    /// Remote → local direction.
    pub reverse: Link,
}

impl DuplexLink {
    /// Builds both directions from one configuration.
    pub fn new(config: LinkConfig) -> Self {
        DuplexLink {
            forward: Link::new(config),
            reverse: Link::new(config),
        }
    }

    /// Applies a new configuration to both directions.
    pub fn reconfigure(&mut self, config: LinkConfig) {
        self.forward.reconfigure(config);
        self.reverse.reconfigure(config);
    }

    /// The round-trip time of an empty probe.
    pub fn rtt(&self) -> SimDuration {
        self.forward.config().latency + self.reverse.config().latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_link() -> Link {
        Link::new(LinkConfig {
            capacity_bytes_per_sec: 1_000_000, // 1 MB/s: 1 byte = 1 µs
            latency: SimDuration::from_micros(100),
        })
    }

    #[test]
    fn serialization_time_scales_with_size() {
        let cfg = *test_link().config();
        assert_eq!(cfg.serialization_time(0), SimDuration::ZERO);
        assert_eq!(cfg.serialization_time(1), SimDuration::from_micros(1));
        assert_eq!(cfg.serialization_time(1000), SimDuration::from_millis(1));
    }

    #[test]
    fn single_message_timing() {
        let mut l = test_link();
        let tx = l.transmit(SimTime::ZERO, 1000);
        assert_eq!(tx.departs, SimTime::ZERO + SimDuration::from_millis(1));
        assert_eq!(
            tx.arrives,
            SimTime::ZERO + SimDuration::from_millis(1) + SimDuration::from_micros(100)
        );
        assert_eq!(tx.queued_for, SimDuration::ZERO);
    }

    #[test]
    fn messages_queue_fifo() {
        let mut l = test_link();
        let a = l.transmit(SimTime::ZERO, 1000);
        let b = l.transmit(SimTime::ZERO, 1000);
        assert_eq!(b.queued_for, SimDuration::from_millis(1));
        assert_eq!(b.departs, a.departs + SimDuration::from_millis(1));
        // Arrivals are back-to-back: pipelining.
        assert_eq!(b.arrives.since(a.arrives), SimDuration::from_millis(1));
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut l = test_link();
        l.transmit(SimTime::ZERO, 1000);
        let later = SimTime::ZERO + SimDuration::from_secs(1);
        let tx = l.transmit(later, 500);
        assert_eq!(tx.queued_for, SimDuration::ZERO);
        assert_eq!(tx.departs, later + SimDuration::from_micros(500));
    }

    #[test]
    fn counters_accumulate() {
        let mut l = test_link();
        l.transmit(SimTime::ZERO, 300);
        l.transmit(SimTime::ZERO, 700);
        assert_eq!(l.bytes_carried(), 1000);
        assert_eq!(l.busy_time(), SimDuration::from_millis(1));
        let u = l.utilization(SimTime::ZERO + SimDuration::from_millis(2));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reconfigure_affects_only_new_traffic() {
        let mut l = test_link();
        let a = l.transmit(SimTime::ZERO, 1000);
        l.reconfigure(LinkConfig {
            capacity_bytes_per_sec: 2_000_000,
            latency: SimDuration::from_micros(50),
        });
        let b = l.transmit(SimTime::ZERO, 1000);
        assert_eq!(a.departs, SimTime::ZERO + SimDuration::from_millis(1));
        // b queues behind a, then serializes at the new (doubled) rate.
        assert_eq!(b.departs, a.departs + SimDuration::from_micros(500));
        assert_eq!(b.arrives, b.departs + SimDuration::from_micros(50));
    }

    #[test]
    fn duplex_rtt() {
        let d = DuplexLink::new(LinkConfig {
            capacity_bytes_per_sec: 1_000_000,
            latency: SimDuration::from_micros(150),
        });
        assert_eq!(d.rtt(), SimDuration::from_micros(300));
    }

    #[test]
    fn utilization_zero_at_t0() {
        let l = test_link();
        assert_eq!(l.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn a_serialization_time_past_u64_saturates_instead_of_wrapping() {
        let at = |capacity| LinkConfig {
            capacity_bytes_per_sec: capacity,
            latency: SimDuration::ZERO,
        };
        // 32 GiB takes 3.44e19 ns at 1 B/s: past u64, where a truncating
        // cast read 1.59e19.
        let burst = 32u64 << 30;
        assert_eq!(at(1).serialization_time(burst).as_nanos(), u64::MAX);
        // 1.72e19 ns at 2 B/s still fits, and comes out exact.
        assert_eq!(
            at(2).serialization_time(burst).as_nanos(),
            17_179_869_184_000_000_000
        );
    }

    /// Every observable of a link's state.
    fn state(l: &Link) -> (SimTime, u64, SimDuration) {
        (l.free_at(), l.bytes_carried(), l.busy_time())
    }

    #[test]
    fn n_messages_at_once_match_n_transmits() {
        use ampom_sim::propcheck::forall;
        // Which cases the generator reached: an empty batch, a batch on
        // an idle link, one queued behind earlier traffic, a reconfigure
        // between batches.
        let mut seen = [0u32; 4];
        forall("link-transmit-n", 256, |g| {
            let config = |g: &mut ampom_sim::propcheck::Gen| LinkConfig {
                capacity_bytes_per_sec: g.u64(1..200_000_000),
                latency: SimDuration::from_nanos(g.u64(0..1_000_000)),
            };
            let first = config(g);
            let (mut one_by_one, mut batched) = (Link::new(first), Link::new(first));
            let mut now = SimTime::ZERO;
            for _ in 0..g.usize(1..12) {
                if g.bool(0.2) {
                    let next = config(g);
                    one_by_one.reconfigure(next);
                    batched.reconfigure(next);
                    seen[3] += 1;
                }
                now += SimDuration::from_nanos(g.u64(0..2_000_000));
                let any = g.u64(0..1 << 20);
                let size = *g.choose(&[0, 1, 48, 4_128, any]);
                let n = g.u64(0..64);
                seen[0] += u32::from(n == 0);
                seen[1] += u32::from(n > 0 && batched.free_at() <= now);
                seen[2] += u32::from(n > 0 && batched.free_at() > now);
                let last = (0..n).map(|_| one_by_one.transmit(now, size)).last();
                assert_eq!(batched.transmit_n(now, size, n), last, "{n} x {size} B");
                assert_eq!(state(&batched), state(&one_by_one), "{n} x {size} B");
            }
        });
        assert!(seen.iter().all(|&n| n >= 10), "cases reached: {seen:?}");
    }

    #[test]
    fn the_remembered_serialization_time_is_the_configs() {
        let mut l = test_link();
        let cfg = *l.config();
        // Alternating sizes, a repeat, and a size of 0.
        for size in [4_128, 48, 4_128, 4_128, 0, 48, 1 << 30] {
            let before = l.busy_time();
            l.transmit(SimTime::ZERO, size);
            assert_eq!(l.busy_time() - before, cfg.serialization_time(size));
        }
        // A reconfigure forgets the remembered size's time.
        let faster = LinkConfig {
            capacity_bytes_per_sec: 3_000_000,
            latency: SimDuration::ZERO,
        };
        l.reconfigure(faster);
        let before = l.busy_time();
        l.transmit(SimTime::ZERO, 1 << 30);
        assert_eq!(l.busy_time() - before, faster.serialization_time(1 << 30));
        assert_ne!(
            faster.serialization_time(1 << 30),
            cfg.serialization_time(1 << 30)
        );
    }

    #[test]
    #[should_panic(expected = "zero capacity")]
    fn a_zero_capacity_link_panics_at_its_first_message() {
        let mut l = Link::new(LinkConfig {
            capacity_bytes_per_sec: 0,
            latency: SimDuration::ZERO,
        });
        l.transmit_n(SimTime::ZERO, 4_128, 3);
    }

    #[test]
    #[should_panic(expected = "SimDuration overflow")]
    fn a_batch_past_u64_nanoseconds_panics_instead_of_wrapping() {
        // 1 s per message at 1 B/s; 2^35 of them is past u64 ns, where a
        // wrapping product would read a few seconds.
        let mut l = Link::new(LinkConfig {
            capacity_bytes_per_sec: 1,
            latency: SimDuration::ZERO,
        });
        l.transmit_n(SimTime::ZERO, 1, 1 << 35);
    }

    #[test]
    fn zero_capacity_rejected() {
        let cfg = LinkConfig {
            capacity_bytes_per_sec: 0,
            latency: SimDuration::ZERO,
        };
        assert_eq!(cfg.validate(), Err(LinkError::ZeroCapacity));
        assert_eq!(cfg.try_serialization_time(1), Err(LinkError::ZeroCapacity));
        assert_eq!(
            format!("{}", LinkError::ZeroCapacity),
            "link with zero capacity"
        );
    }
}
