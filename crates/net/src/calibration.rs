//! Physical constants of the simulated testbed.
//!
//! These reproduce the paper's environment (§5.1): the HKU Gideon 300
//! cluster — Intel P4 2 GHz nodes, 512 MB RAM, Fast Ethernet — and the
//! broadband emulation of §5.5. The handful of software-overhead constants
//! were calibrated **once** so that the three schemes' freeze times at the
//! largest DGEMM size land near the paper's reported 53.9 s / 0.6 s / 0.07 s
//! (openMosix / AMPoM / NoPrefetch), then held fixed for every experiment.
//! See DESIGN.md §7 for the calibration rationale.

use ampom_sim::time::SimDuration;

use crate::link::LinkConfig;

/// Page size of the Linux 2.4 x86 kernels openMosix patches (bytes).
pub const PAGE_SIZE: u64 = 4096;

/// Master-page-table entry size: "the size of an MPT is 6 bytes per page"
/// (paper §5.2).
pub const MPT_ENTRY_BYTES: u64 = 6;

/// Fast Ethernet nominal rate: 100 Mb/s.
pub const FAST_ETHERNET_BPS: u64 = 100_000_000;

/// Effective user-data capacity of Fast Ethernet after Ethernet/IP/TCP
/// framing and the openMosix migration protocol's own headers, in bytes/s.
/// 53.9 s for 575 MB of dirty pages (paper §5.2) implies ≈ 11.2 MB/s.
pub const FAST_ETHERNET_GOODPUT: u64 = 11_200_000;

/// One-way propagation + kernel network-stack latency on the cluster LAN
/// (`t0` in Eq. 3). Fast Ethernet RTTs on 2.4-era kernels were ~250 µs.
pub const LAN_LATENCY: SimDuration = SimDuration::from_micros(120);

/// The paper's §5.5 broadband emulation: `tc` shaped to 6 Mb/s.
pub const BROADBAND_BPS: u64 = 6_000_000;

/// Effective goodput of the shaped 6 Mb/s link, bytes/s.
pub const BROADBAND_GOODPUT: u64 = 672_000;

/// One-way latency of the emulated broadband path (2 ms in the paper).
pub const BROADBAND_LATENCY: SimDuration = SimDuration::from_millis(2);

/// Per-message fixed software cost (syscall + protocol processing) added on
/// top of wire time for every request/reply, per direction.
pub const PER_MESSAGE_OVERHEAD: SimDuration = SimDuration::from_micros(20);

/// Size of a remote-paging *request* message on the wire (header + page
/// list). Each requested page id adds [`REQUEST_PER_PAGE_BYTES`].
pub const REQUEST_HEADER_BYTES: u64 = 64;

/// Wire bytes per page id carried in a paging request.
pub const REQUEST_PER_PAGE_BYTES: u64 = 8;

/// Per-page reply overhead on the wire: Ethernet/IP/TCP framing for the
/// ~3 MTU-sized packets a 4 KB page spans (≈ 200 B) plus the remote-paging
/// protocol header. Bulk (eager) transfers amortise framing over large
/// segments and do not pay this.
pub const REPLY_HEADER_BYTES: u64 = 300;

/// Fixed freeze-time cost every migration pays: capturing registers and the
/// process control block, connection setup, and resuming the remote
/// instance. Calibrated to NoPrefetch's flat ≈ 0.07 s freeze time (§5.2).
pub const MIGRATION_BASE_COST: SimDuration = SimDuration::from_millis(68);

/// Per-MPT-entry freeze cost for AMPoM: walking the page table, packing the
/// entry, and rebuilding the mapping on the destination. Calibrated so the
/// 575 MB DGEMM MPT (≈147 k entries) freezes in ≈ 0.6 s (§5.2).
pub const MPT_ENTRY_COST: SimDuration = SimDuration::from_nanos(3_300);

/// Per-page kernel-side cost in the eager (openMosix) full copy, *excluding*
/// wire time: page-table walk, copy into the socket buffer, remap.
pub const EAGER_PAGE_COST: SimDuration = SimDuration::from_micros(6);

/// Simulated cost of one execution of AMPoM's dependent-zone analysis
/// (record fault, stride census over l=20, Eq. 1, Eq. 3, pivot selection).
/// The `algorithm` microbenchmarks measure the Rust implementation at
/// 0.85–1.5 µs for a ~34-page zone and 1.0–1.7 µs at the 512-page cap on a
/// 2-vCPU Xeon host; a 2 GHz P4 running the in-kernel C version is modelled
/// at 2 µs, keeping the Figure 11 overhead fraction comfortably under the
/// paper's 0.6 % ceiling.
pub const AMPOM_ANALYSIS_COST: SimDuration = SimDuration::from_micros(2);

/// The cluster LAN link configuration used by every experiment except the
/// broadband one.
pub fn fast_ethernet() -> LinkConfig {
    LinkConfig {
        capacity_bytes_per_sec: FAST_ETHERNET_GOODPUT,
        latency: LAN_LATENCY,
    }
}

/// The §5.5 emulated broadband link configuration.
pub fn broadband() -> LinkConfig {
    LinkConfig {
        capacity_bytes_per_sec: BROADBAND_GOODPUT,
        latency: BROADBAND_LATENCY,
    }
}

/// Wire time of one page (data + reply header) on a link — the `td` of
/// Eq. 3.
pub fn page_transfer_time(link: &LinkConfig) -> SimDuration {
    link.serialization_time(PAGE_SIZE + REPLY_HEADER_BYTES)
}

/// A malformed serialized [`MeasuredLink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalibrationParseError {
    /// A required key is absent. The payload names it.
    MissingKey(&'static str),
    /// A value failed to parse as an integer. The payload names the key.
    BadValue(&'static str),
    /// A line is not a `key = value` pair.
    BadLine(String),
}

impl std::fmt::Display for CalibrationParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationParseError::MissingKey(k) => write!(f, "missing calibration key: {k}"),
            CalibrationParseError::BadValue(k) => {
                write!(f, "calibration value for {k} is not an integer")
            }
            CalibrationParseError::BadLine(l) => {
                write!(f, "calibration line is not `key = value`: {l:?}")
            }
        }
    }
}

impl std::error::Error for CalibrationParseError {}

/// Link parameters measured on real hardware by the `ampom-rpc`
/// calibration handshake: RTT probes give `t0`, a timed bulk page fetch
/// gives the effective capacity, and `td` follows from Eq. 3's page
/// transfer time at that capacity.
///
/// The struct round-trips through a `key = value` text form
/// ([`MeasuredLink::to_kv`] / [`MeasuredLink::from_kv`]) so a measurement
/// taken on one machine can parameterise simulations on another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredLink {
    /// Measured one-way latency (half the smoothed probe RTT).
    pub t0: SimDuration,
    /// Measured transfer time of one page (data + reply header).
    pub td: SimDuration,
    /// Effective goodput observed during the bulk fetch, bytes/s.
    pub capacity_bytes_per_sec: u64,
}

impl ampom_obs::MetricSource for MeasuredLink {
    fn export_metrics(&self, reg: &mut ampom_obs::MetricsRegistry) {
        reg.export_gauge(
            "ampom_link_t0_seconds",
            "Measured one-way latency (half the smoothed probe RTT)",
            self.t0.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_link_td_seconds",
            "Measured transfer time of one page",
            self.td.as_secs_f64(),
        );
        reg.export_gauge(
            "ampom_link_capacity_bytes_per_sec",
            "Effective goodput observed during the bulk calibration fetch",
            self.capacity_bytes_per_sec as f64,
        );
    }
}

impl MeasuredLink {
    /// The [`LinkConfig`] that makes the simulator reproduce this
    /// measured link: capacity as observed, latency = measured `t0`.
    pub fn link_config(&self) -> LinkConfig {
        LinkConfig {
            capacity_bytes_per_sec: self.capacity_bytes_per_sec,
            latency: self.t0,
        }
    }

    /// Serializes as `key = value` lines (nanoseconds / bytes-per-second).
    pub fn to_kv(&self) -> String {
        format!(
            "t0_ns = {}\ntd_ns = {}\ncapacity_bytes_per_sec = {}\n",
            self.t0.as_nanos(),
            self.td.as_nanos(),
            self.capacity_bytes_per_sec
        )
    }

    /// Parses the [`MeasuredLink::to_kv`] form. Unknown keys are ignored
    /// (forward compatibility); missing or non-integer values are typed
    /// errors.
    pub fn from_kv(text: &str) -> Result<Self, CalibrationParseError> {
        let mut t0 = None;
        let mut td = None;
        let mut capacity = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| CalibrationParseError::BadLine(line.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "t0_ns" => {
                    t0 = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| CalibrationParseError::BadValue("t0_ns"))?,
                    )
                }
                "td_ns" => {
                    td = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| CalibrationParseError::BadValue("td_ns"))?,
                    )
                }
                "capacity_bytes_per_sec" => {
                    capacity =
                        Some(value.parse::<u64>().map_err(|_| {
                            CalibrationParseError::BadValue("capacity_bytes_per_sec")
                        })?)
                }
                _ => {}
            }
        }
        Ok(MeasuredLink {
            t0: SimDuration::from_nanos(t0.ok_or(CalibrationParseError::MissingKey("t0_ns"))?),
            td: SimDuration::from_nanos(td.ok_or(CalibrationParseError::MissingKey("td_ns"))?),
            capacity_bytes_per_sec: capacity
                .ok_or(CalibrationParseError::MissingKey("capacity_bytes_per_sec"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_reproduces_eager_575mb_freeze() {
        // 575 MB of dirty pages over the calibrated goodput must land near
        // the paper's 53.9 s.
        let bytes = 575u64 * 1024 * 1024;
        let secs = bytes as f64 / FAST_ETHERNET_GOODPUT as f64;
        assert!((50.0..60.0).contains(&secs), "eager copy time {secs}");
    }

    #[test]
    fn mpt_cost_reproduces_ampom_575mb_freeze() {
        let pages = 575u64 * 1024 * 1024 / PAGE_SIZE;
        let mpt_wire = (pages * MPT_ENTRY_BYTES) as f64 / FAST_ETHERNET_GOODPUT as f64;
        let mpt_cpu = MPT_ENTRY_COST.as_secs_f64() * pages as f64;
        let total = MIGRATION_BASE_COST.as_secs_f64() + mpt_wire + mpt_cpu;
        assert!((0.4..0.9).contains(&total), "AMPoM freeze {total}");
    }

    #[test]
    fn base_cost_matches_noprefetch_freeze() {
        let s = MIGRATION_BASE_COST.as_secs_f64();
        assert!((0.05..0.1).contains(&s));
    }

    #[test]
    fn page_transfer_time_is_sub_millisecond_on_lan() {
        let td = page_transfer_time(&fast_ethernet());
        assert!(td > SimDuration::from_micros(300));
        assert!(td < SimDuration::from_micros(500));
    }

    #[test]
    fn broadband_is_much_slower() {
        let lan = page_transfer_time(&fast_ethernet());
        let wan = page_transfer_time(&broadband());
        assert!(wan.as_nanos() > 10 * lan.as_nanos());
    }

    #[test]
    fn measured_link_round_trips_through_kv() {
        let m = MeasuredLink {
            t0: SimDuration::from_micros(85),
            td: SimDuration::from_micros(410),
            capacity_bytes_per_sec: 10_500_000,
        };
        let parsed = MeasuredLink::from_kv(&m.to_kv()).unwrap();
        assert_eq!(parsed, m);
        let cfg = m.link_config();
        assert_eq!(cfg.capacity_bytes_per_sec, 10_500_000);
        assert_eq!(cfg.latency, SimDuration::from_micros(85));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn measured_link_parse_ignores_comments_and_unknown_keys() {
        let text = "# calibration taken on loopback\nt0_ns = 1000\n\
                    future_field = 9\ntd_ns = 2000\ncapacity_bytes_per_sec = 3000\n";
        let m = MeasuredLink::from_kv(text).unwrap();
        assert_eq!(m.t0, SimDuration::from_nanos(1000));
        assert_eq!(m.td, SimDuration::from_nanos(2000));
        assert_eq!(m.capacity_bytes_per_sec, 3000);
    }

    #[test]
    fn measured_link_parse_errors_are_typed() {
        assert_eq!(
            MeasuredLink::from_kv("t0_ns = 1\ntd_ns = 2\n"),
            Err(CalibrationParseError::MissingKey("capacity_bytes_per_sec"))
        );
        assert_eq!(
            MeasuredLink::from_kv("t0_ns = xyz\ntd_ns = 2\ncapacity_bytes_per_sec = 3\n"),
            Err(CalibrationParseError::BadValue("t0_ns"))
        );
        assert!(matches!(
            MeasuredLink::from_kv("not a pair"),
            Err(CalibrationParseError::BadLine(_))
        ));
    }
}
