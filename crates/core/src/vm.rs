//! Virtual-machine migration with multi-process access streams — the
//! paper's §7 future work, made concrete.
//!
//! "Possible future work includes … a tailored AMPoM for migrating virtual
//! machines whose memory references are consisted of access streams from
//! multiple processes." (§7; also §6: "AMPoM can be extended to consider
//! memory access streams from multiple processes in a virtual machine in
//! order to perform more effective prefetching.")
//!
//! A VM's guest-physical address space hosts several processes whose page
//! references interleave at the hypervisor's fault handler. A single
//! lookback window sees that interleaving as noise: with `k` busy guest
//! processes, a stride-1 pattern inside one process appears as a stride-k
//! pattern in the shared window — and beyond `dmax = 4` it becomes
//! invisible. The tailored design de-multiplexes the fault stream by guest
//! process and runs one window per process.
//!
//! This module provides:
//!
//! * [`VmWorkload`] — a guest: several `Workload`s, each mapped into its
//!   own slice of the VM's address space, interleaved by a round-robin
//!   scheduler with a configurable time slice; itself a `Workload`,
//! * [`VmAnalysis`] — shared-window (naive) vs per-process-window
//!   (tailored) analysis,
//! * [`run_vm`] — the migration runner for a VM under AMPoM: the one
//!   migrant loop with a prefetcher that routes each fault to its
//!   guest's window, reporting the same metrics as any other run.
//!
//! The `hpcc-repro ext-vm` experiment and `examples/vm_migration.rs`
//! compare the two analyses.

use ampom_mem::page::PageId;
use ampom_mem::region::MemoryLayout;
use ampom_sim::time::SimTime;
use ampom_workloads::memref::{MemRef, Workload};

use crate::metrics::RunReport;
use crate::migration::Scheme;
use crate::policy::{Fetchable, PrefetchFeedback, PrefetchObservation, Prefetcher};
use crate::prefetcher::{NetEstimates, PrefetchStats, ZoneAnalysis};
use crate::runner::RunConfig;
use crate::transport::{drive, run_solo, SimulatedTransport};

/// How the prefetcher treats the VM's interleaved fault stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmAnalysis {
    /// One lookback window over the whole VM (what an unmodified AMPoM
    /// would see at the VMM level).
    SharedWindow,
    /// One lookback window per guest process (the §7 tailored design).
    PerProcess,
    /// No prefetching — the NoPrefetch baseline at VM granularity.
    NoPrefetch,
}

impl VmAnalysis {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            VmAnalysis::SharedWindow => "shared-window",
            VmAnalysis::PerProcess => "per-process",
            VmAnalysis::NoPrefetch => "no-prefetch",
        }
    }
}

/// A guest process inside the VM.
struct GuestProc {
    workload: Box<dyn Workload>,
    /// Where this process's address space begins inside the VM's space.
    base_offset: u64,
    /// First guest-physical page of this process's data slice.
    first_page: u64,
    /// Pending slice budget (refs remaining in the current quantum).
    slice_left: u32,
    done: bool,
}

/// A virtual machine: several guest processes over one guest-physical
/// address space, scheduled round-robin. As a [`Workload`] it yields the
/// interleaved, translated reference stream the hypervisor sees.
pub struct VmWorkload {
    layout: MemoryLayout,
    procs: Vec<GuestProc>,
    slice: u32,
    current: usize,
    total_refs: u64,
    data_bytes: u64,
}

impl VmWorkload {
    /// Builds a VM hosting `workloads`, each given its own slice of the
    /// guest-physical data region, interleaved with the given quantum
    /// (references per scheduling slice).
    ///
    /// # Panics
    /// Panics if `workloads` is empty or `slice` is zero.
    pub fn new(workloads: Vec<Box<dyn Workload>>, slice: u32) -> Self {
        assert!(!workloads.is_empty(), "a VM needs at least one process");
        assert!(slice > 0, "slice must be positive");
        let total_data: u64 = workloads.iter().map(|w| w.data_bytes()).sum();
        let layout = MemoryLayout::with_data_bytes(total_data);
        let mut offset = layout.data_start().index();
        let mut procs = Vec::new();
        let mut total_refs = 0;
        for w in workloads {
            // Each guest's pages map at `offset - guest_data_start`.
            let guest_start = w.layout().data_start().index();
            let pages = w.data_bytes().div_ceil(ampom_mem::PAGE_SIZE);
            total_refs += w.total_refs_hint();
            procs.push(GuestProc {
                base_offset: offset - guest_start,
                first_page: offset,
                slice_left: slice,
                done: false,
                workload: w,
            });
            offset += pages;
        }
        VmWorkload {
            layout,
            procs,
            slice,
            current: 0,
            total_refs,
            data_bytes: total_data,
        }
    }

    /// Number of guest processes.
    pub fn process_count(&self) -> usize {
        self.procs.len()
    }

    /// First guest-physical page of each guest's data slice, ascending:
    /// the slices are disjoint, so a page's owner is the last guest that
    /// starts at or below it (see [`guest_of`]).
    fn guest_starts(&self) -> Vec<u64> {
        self.procs.iter().map(|p| p.first_page).collect()
    }
}

/// The guest owning `page`, given [`VmWorkload::guest_starts`].
fn guest_of(starts: &[u64], page: PageId) -> usize {
    starts
        .partition_point(|&s| s <= page.index())
        .saturating_sub(1)
}

impl Iterator for VmWorkload {
    type Item = MemRef;

    fn next(&mut self) -> Option<MemRef> {
        let n = self.procs.len();
        for _ in 0..n {
            let idx = self.current;
            let p = &mut self.procs[idx];
            if !p.done {
                if let Some(r) = p.workload.next() {
                    let translated = MemRef {
                        page: PageId(r.page.index() + p.base_offset),
                        ..r
                    };
                    p.slice_left -= 1;
                    if p.slice_left == 0 {
                        p.slice_left = self.slice;
                        self.current = (idx + 1) % n;
                    }
                    return Some(translated);
                }
                p.done = true;
            }
            self.current = (idx + 1) % n;
        }
        None
    }
}

impl Workload for VmWorkload {
    fn name(&self) -> &'static str {
        "VM"
    }

    fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Every guest page, translated to guest-physical.
    fn allocation_pages(&self) -> Vec<PageId> {
        let mut pages = Vec::new();
        for p in &self.procs {
            for page in p.workload.allocation_pages() {
                pages.push(PageId(page.index() + p.base_offset));
            }
        }
        pages
    }

    fn total_refs_hint(&self) -> u64 {
        self.total_refs
    }
}

/// The VM's prefetcher: routes each fault to the lookback window of the
/// guest owning the faulted page, or to one shared window.
struct GuestWindows {
    windows: Vec<Box<dyn Prefetcher>>,
    /// [`VmWorkload::guest_starts`] when routing per guest; empty for
    /// the shared window.
    starts: Vec<u64>,
    /// The window that analysed the latest fault.
    last: usize,
}

impl GuestWindows {
    /// Mean spatial score over every window's analyses.
    fn mean_score(&self) -> f64 {
        let mut score_sum = 0.0;
        let mut score_n = 0u64;
        for w in &self.windows {
            let s = w.observe().stats;
            score_sum += s.scores.mean() * s.scores.count() as f64;
            score_n += s.scores.count();
        }
        if score_n == 0 {
            0.0
        } else {
            score_sum / score_n as f64
        }
    }
}

impl Prefetcher for GuestWindows {
    fn on_fault(
        &mut self,
        page: PageId,
        now: SimTime,
        cpu_util: f64,
        net: NetEstimates,
        page_limit: PageId,
        fetchable: &mut dyn Fetchable,
        prefetch: &mut Vec<PageId>,
    ) -> ZoneAnalysis {
        self.last = guest_of(&self.starts, page);
        self.windows[self.last].on_fault(page, now, cpu_util, net, page_limit, fetchable, prefetch)
    }

    fn note_outcome(&mut self, feedback: PrefetchFeedback) {
        for w in &mut self.windows {
            w.note_outcome(feedback);
        }
    }

    /// The latest fault's window, with the statistics of every window
    /// merged: the monitor re-samples bandwidth when that window wraps.
    fn observe(&self) -> PrefetchObservation {
        let mut stats = PrefetchStats::default();
        for w in &self.windows {
            stats.merge(&w.observe().stats);
        }
        PrefetchObservation {
            stats,
            ..self.windows[self.last].observe()
        }
    }
}

/// Outcome of one VM migration run.
#[derive(Debug)]
pub struct VmReport {
    /// The analysis mode used.
    pub analysis: VmAnalysis,
    /// Standard run metrics.
    pub report: RunReport,
    /// Mean spatial score seen by the analysis (diagnostic: the shared
    /// window's score collapses as guest count grows).
    pub mean_score: f64,
}

/// Migrates a VM under AMPoM-style lightweight migration and runs it to
/// completion through the one migrant loop, with the chosen analysis
/// mode as its prefetcher.
///
/// # Panics
/// Panics on an invalid configuration.
pub fn run_vm(mut vm: VmWorkload, cfg: &RunConfig, analysis: VmAnalysis) -> VmReport {
    // Every mode migrates with AMPoM's freeze; the mode picks the windows.
    let cfg = RunConfig {
        scheme: Scheme::Ampom,
        ..cfg.clone()
    };
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid VM run configuration: {e}"));
    let (windows, starts) = match analysis {
        VmAnalysis::SharedWindow => (1, Vec::new()),
        VmAnalysis::PerProcess => (vm.process_count(), vm.guest_starts()),
        VmAnalysis::NoPrefetch => (0, Vec::new()),
    };
    let mut router = GuestWindows {
        windows: (0..windows).map(|_| cfg.policy.build(&cfg.ampom)).collect(),
        starts,
        last: 0,
    };
    let prefetcher = (windows > 0).then_some(&mut router as &mut dyn Prefetcher);
    let mut report = run_solo(drive(
        &mut vm,
        &cfg,
        &mut SimulatedTransport::new(&cfg),
        prefetcher,
    ))
    .unwrap_or_else(|e| panic!("simulated VM run failed: {e}"));
    report.workload = format!("VM[{}]", vm.process_count());
    VmReport {
        analysis,
        mean_score: router.mean_score(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_sim::time::SimDuration;
    use ampom_workloads::synthetic::Sequential;

    const CPU: SimDuration = SimDuration::from_micros(15);

    fn vm_of(k: usize, pages_each: u64, slice: u32) -> VmWorkload {
        let procs: Vec<Box<dyn Workload>> = (0..k)
            .map(|_| Box::new(Sequential::new(pages_each, CPU)) as Box<dyn Workload>)
            .collect();
        VmWorkload::new(procs, slice)
    }

    #[test]
    fn vm_interleaves_and_translates_addresses() {
        let mut vm = vm_of(3, 32, 1);
        assert_eq!(vm.process_count(), 3);
        let starts = vm.guest_starts();
        let (r0, r1, r2) = (vm.next().unwrap(), vm.next().unwrap(), vm.next().unwrap());
        let owners = [r0, r1, r2].map(|r| guest_of(&starts, r.page));
        assert_eq!(owners, [0, 1, 2]);
        // Distinct address-space slices.
        assert_ne!(r0.page, r1.page);
        assert_ne!(r1.page, r2.page);
        assert!(r1.page.distance(r0.page) >= 32);
    }

    #[test]
    fn vm_slice_controls_interleaving_granularity() {
        let vm = vm_of(2, 16, 4);
        let starts = vm.guest_starts();
        let owners: Vec<usize> = vm.take(12).map(|r| guest_of(&starts, r.page)).collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn vm_drains_every_guest_completely() {
        let vm = vm_of(3, 20, 2);
        let total = vm.total_refs_hint();
        assert_eq!(vm.count() as u64, total);
        assert_eq!(total, 60);
    }

    #[test]
    fn vm_block_pull_equals_the_iterator() {
        // Guests of unequal length, so the tail runs one guest alone.
        let build = || {
            let procs: Vec<Box<dyn Workload>> = [300, 120, 45]
                .into_iter()
                .map(|pages| Box::new(Sequential::new(pages, CPU)) as Box<dyn Workload>)
                .collect();
            VmWorkload::new(procs, 7)
        };
        let by_next: Vec<MemRef> = build().collect();
        let mut rng = ampom_sim::rng::SimRng::seed_from_u64(9);
        let random: Vec<usize> = (0..4).map(|_| 1 + rng.below(600) as usize).collect();
        for max in [1, 2, 7, 255, 256, 257].into_iter().chain(random) {
            let mut vm = build();
            let mut out = Vec::new();
            loop {
                let before = out.len();
                vm.next_block(&mut out, max);
                assert!(out.len() - before <= max);
                if out.len() == before {
                    break;
                }
            }
            assert_eq!(out, by_next, "blocks of {max}");
            vm.next_block(&mut out, max);
            assert_eq!(out.len(), by_next.len(), "appended after the end");
        }
    }

    #[test]
    fn per_process_analysis_beats_shared_window_with_many_guests() {
        // 6 guests: stride-6 interleaving in the shared window exceeds
        // dmax=4, so the shared analysis goes blind while the per-process
        // analysis sees six clean sequential streams. The comparison uses
        // the pure Eq. 3 algorithm (baseline read-ahead disabled) — the
        // Linux-style read-ahead floor would otherwise chain fetches for
        // both modes and mask the windowing difference.
        let run = |mode| {
            let mut cfg = RunConfig::new(Scheme::Ampom);
            cfg.ampom.baseline_readahead = 0;
            run_vm(vm_of(6, 200, 1), &cfg, mode)
        };
        let shared = run(VmAnalysis::SharedWindow);
        let per_proc = run(VmAnalysis::PerProcess);
        let nopf = run(VmAnalysis::NoPrefetch);
        assert!(
            per_proc.report.fault_requests * 2 < shared.report.fault_requests,
            "per-process {} vs shared {}",
            per_proc.report.fault_requests,
            shared.report.fault_requests
        );
        assert!(per_proc.mean_score > shared.mean_score + 0.3);
        // The blind shared window degenerates to demand paging.
        assert!(shared.report.fault_requests as f64 > 0.9 * nopf.report.fault_requests as f64);
        assert!(per_proc.report.total_time < nopf.report.total_time);
    }

    #[test]
    fn shared_window_still_fine_with_few_guests() {
        // 2 guests interleave at stride 2 — within dmax, so the shared
        // window still detects the streams.
        let run = |mode| run_vm(vm_of(2, 200, 1), &RunConfig::new(Scheme::Ampom), mode);
        let shared = run(VmAnalysis::SharedWindow);
        assert!(shared.mean_score > 0.3, "score {}", shared.mean_score);
        let nopf = run(VmAnalysis::NoPrefetch);
        assert!(shared.report.fault_requests * 2 < nopf.report.fault_requests);
    }

    #[test]
    fn mixed_guests_isolate_the_random_one() {
        // One sequential guest + one random guest. Per-process windows
        // keep the sequential guest's S at 1 while scoring the random
        // guest near 0; a shared window muddles both.
        use ampom_workloads::synthetic::UniformRandom;
        let build = || {
            let procs: Vec<Box<dyn Workload>> = vec![
                Box::new(Sequential::new(400, CPU)),
                Box::new(UniformRandom::new(
                    400,
                    400,
                    CPU,
                    ampom_sim::rng::SimRng::seed_from_u64(5),
                )),
            ];
            VmWorkload::new(procs, 1)
        };
        let mut cfg = RunConfig::new(Scheme::Ampom);
        cfg.ampom.baseline_readahead = 0;
        let per_proc = run_vm(build(), &cfg, VmAnalysis::PerProcess);
        let nopf = run_vm(build(), &cfg, VmAnalysis::NoPrefetch);
        // The sequential guest's stream is fully prefetchable even though
        // half the fault stream is random noise: the tailored analysis
        // covers its ~400 pages and beats demand paging end to end.
        assert!(per_proc.report.pages_prefetched > 200);
        assert!(per_proc.report.fault_requests < nopf.report.fault_requests);
        assert!(per_proc.report.total_time < nopf.report.total_time);
    }

    #[test]
    fn vm_freeze_is_lightweight() {
        let r = run_vm(
            vm_of(4, 100, 2),
            &RunConfig::new(Scheme::Ampom),
            VmAnalysis::PerProcess,
        );
        assert!(r.report.freeze_time < SimDuration::from_millis(200));
        assert!(r.report.mpt_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_vm_rejected() {
        let _ = VmWorkload::new(Vec::new(), 1);
    }
}
