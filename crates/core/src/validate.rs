//! Cross-validation: an independent, event-driven re-implementation of
//! the NoPrefetch scheme.
//!
//! The main [`crate::runner`] is process-centric: it advances the
//! migrant's clock directly and exploits the FIFO link's closed-form
//! arrival times. That is fast, but its correctness rests on the claim
//! that the closed form equals what a classic event-driven simulation
//! would compute. This module *checks that claim*: it implements the
//! NoPrefetch migrant as explicit events on an [`ampom_sim::EventQueue`]
//! — request departure, request arrival, deputy service completion, reply
//! arrival, compute completion — with no shared code on the timing path,
//! and the test suite asserts both simulators produce identical fault
//! counts and identical total times on a range of workloads.
//!
//! Two schemes are cross-checked:
//!
//! * [`run_noprefetch_event_driven`] — the demand-paging path with no
//!   shared timing code at all;
//! * [`run_ampom_event_driven`] — the full prefetching protocol. The
//!   *analysis* (window/census/zone) is the shared
//!   [`crate::prefetcher::AmpomPrefetcher`] —
//!   the claim under test is the timing engine, not the arithmetic — but
//!   every link occupancy, deputy queue, staging decision and stall is
//!   recomputed from explicit events.

use std::collections::VecDeque;

use ampom_mem::page::PageId;
use ampom_mem::space::TouchOutcome;
use ampom_net::calibration::{PER_MESSAGE_OVERHEAD, REPLY_HEADER_BYTES};
use ampom_net::link::LinkConfig;
use ampom_sim::event::EventQueue;
use ampom_sim::time::{SimDuration, SimTime};
use ampom_workloads::memref::Workload;

use crate::cluster::NetPath;
use crate::deputy::{PAGE_SERVICE_COST, REQUEST_PARSE_COST};
use crate::migration::{perform_freeze, PreMigrationState, Scheme};
use crate::runner::MINOR_FAULT_COST;
use crate::runner::PAGE_INSTALL_COST;

/// Result of an event-driven NoPrefetch run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationReport {
    /// Total wall time from migration start to completion.
    pub total_time: SimDuration,
    /// Demand fault requests sent.
    pub fault_requests: u64,
}

/// Events of the NoPrefetch protocol.
#[derive(Debug)]
enum Ev {
    /// The migrant finishes computing the current reference and consumes
    /// the next one.
    Advance,
    /// The demand request reaches the home node.
    RequestAtHome { page: PageId },
    /// The deputy finished serving; the reply begins serialising.
    DeputyDone { page: PageId },
    /// The page lands at the destination; the migrant resumes.
    ReplyArrived { page: PageId },
}

/// Checks a link is usable for cross-validation; mirrors
/// [`crate::runner::RunConfig::validate`]'s link rule.
fn validate_link(link: &LinkConfig) -> Result<(), crate::error::AmpomError> {
    if link.capacity_bytes_per_sec == 0 {
        return Err(crate::error::AmpomError::LinkDown(
            "link capacity is 0 bytes/s; no page could ever be served".into(),
        ));
    }
    Ok(())
}

/// Runs `workload` under NoPrefetch with a from-scratch event-driven
/// engine. Uses the same freeze mechanism (the freeze is closed-form in
/// both implementations) but an independent execution phase. Returns
/// [`crate::error::AmpomError::LinkDown`] for a zero-capacity link
/// instead of dividing by zero inside the serialization arithmetic.
pub fn run_noprefetch_event_driven<W: Workload + ?Sized>(
    workload: &mut W,
    link: LinkConfig,
) -> Result<ValidationReport, crate::error::AmpomError> {
    validate_link(&link)?;
    let layout = workload.layout().clone();
    let pre = PreMigrationState::new(layout.clone(), workload.allocation_pages());
    let mut path = NetPath::new(link);
    let mut trace = ampom_sim::trace::Trace::disabled();
    let freeze = perform_freeze(Scheme::NoPrefetch, &pre, &mut path, &mut trace);
    let mut space = freeze.space;
    let mut table = freeze.table;

    // Independent link state: explicit next-free times instead of
    // `NetPath`'s transmit bookkeeping.
    let mut req_link_free = SimTime::ZERO;
    let mut reply_link_free = SimTime::ZERO;
    let mut deputy_free = SimTime::ZERO;
    let req_bytes = NetPath::request_bytes(1);
    let reply_bytes = 4096 + REPLY_HEADER_BYTES;

    let mut q: EventQueue<Ev> = EventQueue::new();
    q.schedule(SimTime::ZERO + freeze.freeze_time, Ev::Advance);

    let mut fault_requests = 0u64;
    let mut pending: VecDeque<ampom_workloads::memref::MemRef> = VecDeque::new();
    let mut done_at = SimTime::ZERO + freeze.freeze_time;

    // Pull references lazily; `pending` holds the one reference being
    // retried after its page arrives.
    while let Some((now, ev)) = q.pop() {
        match ev {
            Ev::Advance => {
                let r = match pending.pop_front() {
                    Some(r) => r,
                    None => match workload.next() {
                        Some(r) => r,
                        None => {
                            done_at = now;
                            continue;
                        }
                    },
                };
                match space.touch(r.page, r.write) {
                    TouchOutcome::Hit => {
                        q.schedule(now + r.cpu, Ev::Advance);
                    }
                    TouchOutcome::LocalAllocate => {
                        if table.lookup(r.page).is_none() {
                            table.create_at_destination(r.page);
                        }
                        q.schedule(now + MINOR_FAULT_COST + r.cpu, Ev::Advance);
                    }
                    TouchOutcome::RemoteFault => {
                        fault_requests += 1;
                        pending.push_front(r);
                        // Request: per-message overhead, then the request
                        // link, then propagation.
                        let start = (now + PER_MESSAGE_OVERHEAD).max(req_link_free);
                        let departs = start + link.serialization_time(req_bytes);
                        req_link_free = departs;
                        q.schedule(departs + link.latency, Ev::RequestAtHome { page: r.page });
                    }
                }
            }
            Ev::RequestAtHome { page } => {
                let start = now.max(deputy_free) + REQUEST_PARSE_COST + PAGE_SERVICE_COST;
                deputy_free = start;
                q.schedule(start, Ev::DeputyDone { page });
            }
            Ev::DeputyDone { page } => {
                let start = now.max(reply_link_free);
                let departs = start + link.serialization_time(reply_bytes);
                reply_link_free = departs;
                q.schedule(departs + link.latency, Ev::ReplyArrived { page });
            }
            Ev::ReplyArrived { page } => {
                table.transfer_to_destination(page);
                space.install(page);
                // Install cost, then retry the faulted reference.
                q.schedule(now + crate::runner::PAGE_INSTALL_COST, Ev::Advance);
            }
        }
    }

    Ok(ValidationReport {
        total_time: done_at.since(SimTime::ZERO),
        fault_requests,
    })
}

/// Events of the AMPoM protocol.
#[derive(Debug)]
enum AmpomEv {
    /// The migrant finishes its current compute and takes the next
    /// reference.
    Advance,
    /// A paging request (demand page first, if any) reaches the home node.
    RequestAtHome { pages: Vec<PageId> },
    /// One page's reply lands at the destination (goes to staging).
    ReplyArrived { page: PageId },
}

/// Independent network state mirroring `NetPath`'s accounting with
/// explicit free-time variables and byte counters — no shared timing code.
struct IndepNet {
    link: LinkConfig,
    req_free: SimTime,
    reply_free: SimTime,
    dest_rx: u64,
    dest_tx: u64,
}

impl IndepNet {
    /// Destination → home, with the per-message software overhead
    /// (requests, probes). Returns the arrival time at the home node.
    fn send_to_home(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = (now + PER_MESSAGE_OVERHEAD).max(self.req_free);
        let departs = start + self.link.serialization_time(bytes);
        self.req_free = departs;
        self.dest_tx += bytes;
        departs + self.link.latency
    }

    /// Home → destination (replies, probe acks). Returns the arrival.
    fn send_to_dest(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.reply_free);
        let departs = start + self.link.serialization_time(bytes);
        self.reply_free = departs;
        self.dest_rx += bytes;
        departs + self.link.latency
    }

    fn snapshot(&self) -> ampom_net::nic::NicSnapshot {
        ampom_net::nic::NicSnapshot {
            rx_bytes: self.dest_rx,
            tx_bytes: self.dest_tx,
        }
    }
}

/// Independent re-implementation of the oM_infoD schedule over
/// [`IndepNet`]. The estimation arithmetic (`RttProber`,
/// `BandwidthEstimator`) is shared — the claim under test is the timing.
struct IndepMonitor {
    rtt: ampom_net::probe::RttProber,
    bw: ampom_net::probe::BandwidthEstimator,
    next_probe_at: SimTime,
    last_wrap: u64,
    fallback_t0: SimDuration,
}

impl IndepMonitor {
    fn new(link: LinkConfig) -> Self {
        IndepMonitor {
            rtt: ampom_net::probe::RttProber::new(),
            bw: ampom_net::probe::BandwidthEstimator::new(link.capacity_bytes_per_sec),
            next_probe_at: SimTime::ZERO,
            last_wrap: 0,
            fallback_t0: link.latency,
        }
    }

    fn advance(&mut self, now: SimTime, net: &mut IndepNet) {
        while self.next_probe_at <= now {
            let sent_at = self.next_probe_at;
            let id = self.rtt.probe_sent(sent_at);
            let at_home = net.send_to_home(sent_at, crate::monitor::PROBE_BYTES);
            // The ack direction has no software-overhead stage (mirrors
            // NetPath::send_control_to_dest).
            let ack_at = net.send_to_dest(at_home, crate::monitor::PROBE_BYTES);
            self.rtt.ack_received(id, ack_at);
            self.next_probe_at = sent_at + crate::monitor::PROBE_PERIOD;
        }
    }

    fn on_window_wrap(&mut self, now: SimTime, wraps: u64, net: &IndepNet) {
        if wraps > self.last_wrap {
            self.last_wrap = wraps;
            self.bw.sample(now, net.snapshot(), 0);
        }
    }

    fn estimates(&self) -> crate::prefetcher::NetEstimates {
        crate::prefetcher::NetEstimates {
            t0: self.rtt.t0().unwrap_or(self.fallback_t0),
            td: self.bw.transfer_time(4096 + REPLY_HEADER_BYTES),
        }
    }
}

/// Runs `workload` under AMPoM with an independent event-driven engine.
/// Returns `(total_time, fault_requests, pages_prefetched)` for
/// comparison with the main runner's report. The analysis arithmetic
/// (prefetcher, RTT/bandwidth estimators) is shared; every link
/// occupancy, deputy queue, probe, staging decision and stall is
/// recomputed from explicit events.
pub fn run_ampom_event_driven<W: Workload + ?Sized>(
    workload: &mut W,
    link: LinkConfig,
    ampom: crate::prefetcher::AmpomConfig,
) -> Result<(SimDuration, u64, u64), crate::error::AmpomError> {
    use crate::prefetcher::AmpomPrefetcher;
    use ampom_net::calibration::AMPOM_ANALYSIS_COST;
    use std::collections::HashMap;

    validate_link(&link)?;
    let mut pf = AmpomPrefetcher::try_new(ampom)?;
    let layout = workload.layout().clone();
    let pre = PreMigrationState::new(layout.clone(), workload.allocation_pages());
    let mut path = NetPath::new(link);
    let mut trace = ampom_sim::trace::Trace::disabled();
    let freeze = perform_freeze(Scheme::Ampom, &pre, &mut path, &mut trace);
    let mut space = freeze.space;
    let mut table = freeze.table;
    let page_limit = PageId(layout.total_pages());

    // Mirror the post-freeze link state: the freeze's bulk transfer left
    // the reply link busy until (freeze_end − latency) and delivered its
    // bytes to the destination NIC.
    let mut net = IndepNet {
        link,
        req_free: SimTime::ZERO,
        reply_free: (SimTime::ZERO + freeze.freeze_time) - link.latency,
        dest_rx: freeze.bytes_at_freeze,
        dest_tx: 0,
    };
    let mut monitor = IndepMonitor::new(link);
    let mut deputy_free = SimTime::ZERO;

    let mut q: EventQueue<AmpomEv> = EventQueue::new();
    q.schedule(SimTime::ZERO + freeze.freeze_time, AmpomEv::Advance);

    // `in_flight` spans request-send to install: `None` = requested but
    // not yet arrived, `Some(t)` = arrived (staged) at `t`. The main
    // runner's precomputed-arrival map collapses both states; the event
    // engine has to distinguish them.
    let mut in_flight: HashMap<PageId, Option<SimTime>> = HashMap::new();
    let mut staged: VecDeque<(SimTime, PageId)> = VecDeque::new();
    let mut fault_requests = 0u64;
    let mut pages_prefetched = 0u64;
    let mut pending: VecDeque<ampom_workloads::memref::MemRef> = VecDeque::new();
    let mut cpu_since_fault = SimDuration::ZERO;
    let mut last_fault_at = SimTime::ZERO + freeze.freeze_time;
    let mut done_at = SimTime::ZERO + freeze.freeze_time;
    // A fault re-entered while its page is in flight must not re-run the
    // analysis (the main runner analyses once per fault *entry* and then
    // blocks; the event engine re-enters Advance instead of blocking).
    let mut wait_until: Option<(PageId, SimTime)> = None;

    while let Some((now, ev)) = q.pop() {
        match ev {
            AmpomEv::Advance => {
                let r = match pending.pop_front() {
                    Some(r) => r,
                    None => match workload.next() {
                        Some(r) => r,
                        None => {
                            done_at = done_at.max(now);
                            continue;
                        }
                    },
                };
                if let Some((page, until)) = wait_until {
                    // Resuming from an in-flight wait: install and retry.
                    debug_assert_eq!(page, r.page);
                    debug_assert!(now >= until);
                    wait_until = None;
                    let installed = install_staged(&mut staged, &mut in_flight, &mut space, now);
                    let t = now + PAGE_INSTALL_COST.saturating_mul(installed);
                    let hit = space.touch(r.page, r.write);
                    debug_assert_eq!(hit, TouchOutcome::Hit);
                    cpu_since_fault += r.cpu;
                    q.schedule(t + r.cpu, AmpomEv::Advance);
                    continue;
                }
                match space.touch(r.page, r.write) {
                    TouchOutcome::Hit => {
                        cpu_since_fault += r.cpu;
                        q.schedule(now + r.cpu, AmpomEv::Advance);
                    }
                    TouchOutcome::LocalAllocate => {
                        if table.lookup(r.page).is_none() {
                            table.create_at_destination(r.page);
                        }
                        let t0 = now + MINOR_FAULT_COST;
                        let util = utilization(cpu_since_fault, t0, last_fault_at);
                        last_fault_at = t0;
                        cpu_since_fault = SimDuration::ZERO;
                        monitor.advance(t0, &mut net);
                        let est = monitor.estimates();
                        let d = pf.on_fault(r.page, t0, util, est, page_limit, |p| {
                            space.state(p) == ampom_mem::space::PageState::Remote
                                && !in_flight.contains_key(&p)
                        });
                        let t1 = t0 + AMPOM_ANALYSIS_COST;
                        monitor.on_window_wrap(t1, pf.observation().window_wraps, &net);
                        if !d.prefetch.is_empty() {
                            for p in &d.prefetch {
                                in_flight.insert(*p, None);
                            }
                            let arrive =
                                net.send_to_home(t1, NetPath::request_bytes(d.prefetch.len()));
                            q.schedule(
                                arrive,
                                AmpomEv::RequestAtHome {
                                    pages: d.prefetch.clone(),
                                },
                            );
                            pages_prefetched += d.prefetch.len() as u64;
                        }
                        cpu_since_fault += r.cpu;
                        q.schedule(t1 + r.cpu, AmpomEv::Advance);
                    }
                    TouchOutcome::RemoteFault => {
                        // The main runner computes the C_i utilisation at
                        // the *fault entry* instant (before install costs)
                        // but records the window time after them; mirror
                        // both exactly.
                        let fault_entry = now;
                        let installed =
                            install_staged(&mut staged, &mut in_flight, &mut space, now);
                        let t0 = now + PAGE_INSTALL_COST.saturating_mul(installed);
                        let util = utilization(cpu_since_fault, fault_entry, last_fault_at);
                        last_fault_at = fault_entry;
                        cpu_since_fault = SimDuration::ZERO;
                        monitor.advance(t0, &mut net);
                        let est = monitor.estimates();
                        let d = pf.on_fault(r.page, t0, util, est, page_limit, |p| {
                            space.state(p) == ampom_mem::space::PageState::Remote
                                && !in_flight.contains_key(&p)
                        });
                        let t1 = t0 + AMPOM_ANALYSIS_COST;
                        monitor.on_window_wrap(t1, pf.observation().window_wraps, &net);

                        if space.is_resident(r.page) {
                            if !d.prefetch.is_empty() {
                                for p in &d.prefetch {
                                    in_flight.insert(*p, None);
                                }
                                let arrive =
                                    net.send_to_home(t1, NetPath::request_bytes(d.prefetch.len()));
                                q.schedule(
                                    arrive,
                                    AmpomEv::RequestAtHome {
                                        pages: d.prefetch.clone(),
                                    },
                                );
                                pages_prefetched += d.prefetch.len() as u64;
                            }
                            pending.push_front(r);
                            q.schedule(t1, AmpomEv::Advance);
                        } else if in_flight.contains_key(&r.page) {
                            if !d.prefetch.is_empty() {
                                for p in &d.prefetch {
                                    in_flight.insert(*p, None);
                                }
                                let arrive =
                                    net.send_to_home(t1, NetPath::request_bytes(d.prefetch.len()));
                                q.schedule(
                                    arrive,
                                    AmpomEv::RequestAtHome {
                                        pages: d.prefetch.clone(),
                                    },
                                );
                                pages_prefetched += d.prefetch.len() as u64;
                            }
                            pending.push_front(r);
                            match in_flight[&r.page] {
                                // Already arrived (staged): install at t1.
                                Some(_) => {
                                    wait_until = Some((r.page, t1));
                                    q.schedule(t1, AmpomEv::Advance);
                                }
                                // Still on the wire: the ReplyArrived
                                // handler wakes us.
                                None => {
                                    wait_until = Some((r.page, t1));
                                }
                            }
                        } else {
                            fault_requests += 1;
                            let mut pages: Vec<PageId> = Vec::with_capacity(d.prefetch.len() + 1);
                            pages.push(r.page);
                            pages.extend_from_slice(&d.prefetch);
                            for p in &pages {
                                in_flight.insert(*p, None);
                            }
                            pages_prefetched += d.prefetch.len() as u64;
                            let arrive = net.send_to_home(t1, NetPath::request_bytes(pages.len()));
                            q.schedule(arrive, AmpomEv::RequestAtHome { pages });
                            // Park until the demand page's reply lands;
                            // the ReplyArrived handler wakes us.
                            pending.push_front(r);
                            wait_until = Some((r.page, t1));
                        }
                    }
                }
            }
            AmpomEv::RequestAtHome { pages } => {
                let mut start = now.max(deputy_free) + REQUEST_PARSE_COST;
                for page in pages {
                    if table.lookup(page) != Some(ampom_mem::table::PageLocation::Origin) {
                        continue;
                    }
                    start += PAGE_SERVICE_COST;
                    table.transfer_to_destination(page);
                    let arrive = net.send_to_dest(start, 4096 + REPLY_HEADER_BYTES);
                    q.schedule(arrive, AmpomEv::ReplyArrived { page });
                }
                deputy_free = start;
            }
            AmpomEv::ReplyArrived { page } => {
                staged.push_back((now, page));
                in_flight.insert(page, Some(now));
                // If the migrant is parked waiting for exactly this page,
                // wake it — but not before its fault's analysis ends.
                if let Some((waiting, until)) = wait_until {
                    if waiting == page {
                        let wake = now.max(until);
                        wait_until = Some((waiting, wake));
                        q.schedule(wake, AmpomEv::Advance);
                    }
                }
            }
        }
    }

    Ok((
        done_at.since(SimTime::ZERO),
        fault_requests,
        pages_prefetched,
    ))
}

fn utilization(cpu: SimDuration, now: SimTime, last_fault: SimTime) -> f64 {
    let wall = now.saturating_since(last_fault).as_secs_f64();
    if wall <= 0.0 {
        1.0
    } else {
        (cpu.as_secs_f64() / wall).clamp(0.0, 1.0)
    }
}

/// Installs staged arrivals at a fault entry; returns how many.
fn install_staged(
    staged: &mut VecDeque<(SimTime, PageId)>,
    in_flight: &mut std::collections::HashMap<PageId, Option<SimTime>>,
    space: &mut ampom_mem::space::AddressSpace,
    now: SimTime,
) -> u64 {
    let mut n = 0;
    while let Some(&(arrival, page)) = staged.front() {
        if arrival > now {
            break;
        }
        staged.pop_front();
        in_flight.remove(&page);
        if space.state(page) == ampom_mem::space::PageState::Remote {
            space.install(page);
            n += 1;
        }
    }
    n
}

/// Random inputs for the oracle and identity properties: the synthetic
/// workloads the oracles model and the links they run on.
#[cfg(test)]
pub(crate) mod arbitrary {
    use ampom_sim::propcheck::Gen;

    use super::*;
    use crate::experiment::WorkloadSpec;

    /// A Sequential, Strided, UniformRandom, Interleaved or Scripted
    /// workload of up to a few hundred pages, 1 ns–100 µs per touch.
    pub(crate) fn workload(g: &mut Gen) -> WorkloadSpec {
        let cpu = SimDuration::from_nanos(g.u64(1..100_001));
        let pages = g.u64(1..400);
        match g.usize(0..5) {
            0 => WorkloadSpec::Sequential { pages, cpu },
            1 => WorkloadSpec::Strided {
                pages,
                stride: g.u64(1..pages.min(8) + 1),
                cpu,
            },
            2 => WorkloadSpec::UniformRandom {
                pages,
                touches: g.u64(1..600),
                cpu,
            },
            3 => WorkloadSpec::Interleaved {
                streams: g.u64(1..5),
                stream_pages: g.u64(1..100),
                cpu,
            },
            _ => {
                let refs = g.vec_u64(1..400, 0..pages);
                WorkloadSpec::Scripted {
                    pages,
                    refs: std::sync::Arc::new(refs),
                    cpu,
                }
            }
        }
    }

    /// A link of 100 kB/s–125 MB/s with 1 µs–5 ms one-way latency.
    pub(crate) fn link(g: &mut Gen) -> LinkConfig {
        LinkConfig {
            capacity_bytes_per_sec: g.u64(100_000..125_000_001),
            latency: SimDuration::from_nanos(g.u64(1_000..5_000_001)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::WorkloadSpec;
    use crate::prefetcher::AmpomConfig;
    use crate::runner::{run_workload, RunConfig};
    use ampom_net::calibration::{broadband, fast_ethernet};
    use ampom_sim::rng::SimRng;
    use ampom_workloads::synthetic::{Scripted, Sequential, UniformRandom};

    const CPU: SimDuration = SimDuration::from_micros(25);

    fn cross_check(build: impl Fn() -> Box<dyn Workload>, link: LinkConfig) {
        let mut a = build();
        let event_driven = run_noprefetch_event_driven(a.as_mut(), link).expect("valid link");
        let mut b = build();
        let cfg = RunConfig::new(Scheme::NoPrefetch).with_link(link);
        let process_centric = run_workload(b.as_mut(), &cfg);
        assert_eq!(
            event_driven.fault_requests, process_centric.fault_requests,
            "fault counts diverge"
        );
        assert_eq!(
            event_driven.total_time, process_centric.total_time,
            "simulated clocks diverge"
        );
    }

    #[test]
    fn agrees_on_sequential_sweep() {
        cross_check(|| Box::new(Sequential::new(512, CPU)), fast_ethernet());
    }

    #[test]
    fn agrees_on_random_touches() {
        cross_check(
            || Box::new(UniformRandom::new(128, 700, CPU, SimRng::seed_from_u64(3))),
            fast_ethernet(),
        );
    }

    #[test]
    fn agrees_on_revisit_heavy_script() {
        let script: Vec<u64> = (0..64).chain(0..64).chain((0..64).rev()).collect();
        cross_check(
            move || Box::new(Scripted::new(64, &script, CPU)),
            fast_ethernet(),
        );
    }

    #[test]
    fn agrees_on_broadband() {
        cross_check(|| Box::new(Sequential::new(128, CPU)), broadband());
    }

    #[test]
    fn agrees_on_zero_compute_edge() {
        cross_check(
            || Box::new(Sequential::new(64, SimDuration::from_nanos(1))),
            fast_ethernet(),
        );
    }

    #[test]
    fn agrees_on_random_workloads_and_links() {
        ampom_sim::propcheck::forall("noprefetch-oracle", 256, |g| {
            let spec = arbitrary::workload(g);
            let link = arbitrary::link(g);
            let seed = g.u64(0..u64::MAX);
            cross_check(|| spec.build(seed).expect("valid workload"), link);
        });
    }

    fn cross_check_ampom(build: impl Fn() -> Box<dyn Workload>, link: LinkConfig) {
        use crate::prefetcher::AmpomConfig;
        let mut a = build();
        let (ed_total, ed_requests, ed_prefetched) =
            super::run_ampom_event_driven(a.as_mut(), link, AmpomConfig::default())
                .expect("valid link and config");
        let mut b = build();
        let cfg = RunConfig::new(Scheme::Ampom).with_link(link);
        let pc = run_workload(b.as_mut(), &cfg);
        assert_eq!(ed_requests, pc.fault_requests, "fault requests diverge");
        assert_eq!(
            ed_prefetched, pc.pages_prefetched,
            "prefetch counts diverge"
        );
        assert_eq!(ed_total, pc.total_time, "simulated clocks diverge");
    }

    #[test]
    fn ampom_agrees_on_sequential_sweep() {
        cross_check_ampom(|| Box::new(Sequential::new(512, CPU)), fast_ethernet());
    }

    #[test]
    fn ampom_agrees_on_random_touches() {
        cross_check_ampom(
            || Box::new(UniformRandom::new(128, 700, CPU, SimRng::seed_from_u64(3))),
            fast_ethernet(),
        );
    }

    #[test]
    fn ampom_agrees_on_revisit_heavy_script() {
        let script: Vec<u64> = (0..64).chain(0..64).chain((0..64).rev()).collect();
        cross_check_ampom(
            move || Box::new(Scripted::new(64, &script, CPU)),
            fast_ethernet(),
        );
    }

    #[test]
    fn ampom_agrees_on_broadband() {
        cross_check_ampom(|| Box::new(Sequential::new(128, CPU)), broadband());
    }

    /// The awaited reply lands inside the fault's 2 µs analysis window:
    /// the migrant resumes when the analysis ends, not at the arrival.
    #[test]
    fn ampom_agrees_when_the_reply_lands_during_the_analysis() {
        let link = LinkConfig {
            capacity_bytes_per_sec: 106_789_691,
            latency: SimDuration::from_nanos(2_259_000),
        };
        cross_check_ampom(
            || {
                WorkloadSpec::Sequential {
                    pages: 266,
                    cpu: SimDuration::from_nanos(38_217),
                }
                .build(0)
                .expect("valid workload")
            },
            link,
        );
    }

    #[test]
    fn dead_link_and_bad_config_return_errors() {
        use crate::error::AmpomError;
        let mut dead = fast_ethernet();
        dead.capacity_bytes_per_sec = 0;
        let mut w = Sequential::new(16, CPU);
        assert!(matches!(
            run_noprefetch_event_driven(&mut w, dead),
            Err(AmpomError::LinkDown(_))
        ));
        let bad = AmpomConfig {
            dmax: 0,
            ..AmpomConfig::default()
        };
        let mut w2 = Sequential::new(16, CPU);
        assert!(matches!(
            run_ampom_event_driven(&mut w2, fast_ethernet(), bad),
            Err(AmpomError::InvalidConfig(_))
        ));
    }
}
