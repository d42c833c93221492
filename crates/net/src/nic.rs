//! Per-node network-interface byte counters.
//!
//! The original oM_infoD estimates available bandwidth "by a comparison of
//! the current and past values of the 'RX/TX bytes' fields outputted by the
//! `/sbin/ifconfig` command" (paper §4). [`Nic`] is the simulated interface
//! those samples come from: every message transmitted or delivered by the
//! cluster model bumps these counters, including cross traffic, so the
//! estimator sees the same aggregate the real daemon would.

/// A snapshot of the RX/TX byte counters at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NicSnapshot {
    /// Total bytes ever received.
    pub rx_bytes: u64,
    /// Total bytes ever transmitted.
    pub tx_bytes: u64,
}

impl NicSnapshot {
    /// Bytes moved in either direction since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` has larger counters (counters are monotonic).
    pub fn delta_since(&self, earlier: &NicSnapshot) -> u64 {
        let rx = self
            .rx_bytes
            .checked_sub(earlier.rx_bytes)
            .expect("rx counter went backwards");
        let tx = self
            .tx_bytes
            .checked_sub(earlier.tx_bytes)
            .expect("tx counter went backwards");
        rx + tx
    }
}

/// A simulated network interface with ifconfig-style byte counters and
/// packet counts.
#[derive(Debug, Clone, Default)]
pub struct Nic {
    rx_bytes: u64,
    tx_bytes: u64,
    rx_packets: u64,
    tx_packets: u64,
}

impl Nic {
    /// A fresh interface with zeroed counters.
    pub fn new() -> Self {
        Nic::default()
    }

    /// Accounts one transmitted message.
    pub fn on_transmit(&mut self, bytes: u64) {
        self.tx_bytes += bytes;
        self.tx_packets += 1;
    }

    /// Accounts one received message.
    pub fn on_receive(&mut self, bytes: u64) {
        self.rx_bytes += bytes;
        self.rx_packets += 1;
    }

    /// Accounts `n` transmitted messages of `bytes` each, as `n` calls to
    /// [`Self::on_transmit`] would.
    pub fn on_transmit_n(&mut self, bytes: u64, n: u64) {
        self.tx_bytes += bytes * n;
        self.tx_packets += n;
    }

    /// Accounts `n` received messages of `bytes` each, as `n` calls to
    /// [`Self::on_receive`] would.
    pub fn on_receive_n(&mut self, bytes: u64, n: u64) {
        self.rx_bytes += bytes * n;
        self.rx_packets += n;
    }

    /// Current counter values (what `ifconfig` would print).
    pub fn snapshot(&self) -> NicSnapshot {
        NicSnapshot {
            rx_bytes: self.rx_bytes,
            tx_bytes: self.tx_bytes,
        }
    }

    /// Total messages received.
    pub fn rx_packets(&self) -> u64 {
        self.rx_packets
    }

    /// Total messages transmitted.
    pub fn tx_packets(&self) -> u64 {
        self.tx_packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut n = Nic::new();
        n.on_transmit(100);
        n.on_transmit(50);
        n.on_receive(4096);
        let s = n.snapshot();
        assert_eq!(s.tx_bytes, 150);
        assert_eq!(s.rx_bytes, 4096);
        assert_eq!(n.tx_packets(), 2);
        assert_eq!(n.rx_packets(), 1);
    }

    #[test]
    fn n_messages_count_as_n_calls() {
        let (mut one_by_one, mut batched) = (Nic::new(), Nic::new());
        for (bytes, n) in [(4_128, 3), (0, 2), (48, 0), (7, 1)] {
            for _ in 0..n {
                one_by_one.on_transmit(bytes);
                one_by_one.on_receive(bytes + 1);
            }
            batched.on_transmit_n(bytes, n);
            batched.on_receive_n(bytes + 1, n);
        }
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
        assert_eq!(batched.tx_packets(), one_by_one.tx_packets());
        assert_eq!(batched.rx_packets(), one_by_one.rx_packets());
    }

    #[test]
    fn delta_sums_both_directions() {
        let mut n = Nic::new();
        let before = n.snapshot();
        n.on_transmit(10);
        n.on_receive(20);
        assert_eq!(n.snapshot().delta_since(&before), 30);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn delta_rejects_reversed_snapshots() {
        let mut n = Nic::new();
        n.on_transmit(10);
        let later = n.snapshot();
        let earlier = NicSnapshot::default();
        let _ = earlier.delta_since(&later);
    }
}
