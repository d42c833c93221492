//! The migration mechanisms (paper §2.1, Figure 2).
//!
//! Three schemes are compared throughout the paper's evaluation plus the
//! original Freeze Free Algorithm shown in its Figure 2:
//!
//! * [`Scheme::OpenMosix`] — eager: "all dirty pages in the address space
//!   are transferred to the destination node during migration";
//! * [`Scheme::NoPrefetch`] — the paper's FFA variant: "the same three
//!   pages (code, stack, and data) would still be transferred during
//!   migration, but all missing pages would be fetched (without prefetch)
//!   from the original node rather than from the file server";
//! * [`Scheme::Ampom`] — three pages **plus the master page table**:
//!   "we migrate the same three pages and the master page table (MPT)
//!   during migration, while keeping all remaining pages in the original
//!   node";
//! * [`Scheme::Ffa`] — Roush & Campbell's original: three pages at freeze,
//!   then the home node pushes the remaining stack pages and flushes all
//!   dirty pages to a file server, which serves subsequent faults.

use std::fmt;

use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_mem::region::{MemoryLayout, RegionKind};
use ampom_mem::space::AddressSpace;
use ampom_mem::table::PageTablePair;
use ampom_net::calibration::{fast_ethernet, EAGER_PAGE_COST, MIGRATION_BASE_COST, MPT_ENTRY_COST};
use ampom_sim::time::{SimDuration, SimTime};
use ampom_sim::trace::{Trace, TraceData, TraceKind};

use crate::cluster::NetPath;

/// The migration scheme under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unmodified openMosix: eager full dirty-page copy.
    OpenMosix,
    /// Three pages at freeze; pure demand paging afterwards.
    NoPrefetch,
    /// Three pages + MPT at freeze; demand paging with adaptive
    /// prefetching (the paper's contribution).
    Ampom,
    /// Original Freeze Free Algorithm with a file server.
    Ffa,
}

impl Scheme {
    /// The three schemes of the paper's main evaluation.
    pub const EVALUATED: [Scheme; 3] = [Scheme::Ampom, Scheme::OpenMosix, Scheme::NoPrefetch];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::OpenMosix => "openMosix",
            Scheme::NoPrefetch => "NoPrefetch",
            Scheme::Ampom => "AMPoM",
            Scheme::Ffa => "FFA",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Bytes a migration of a `memory_mb` footprint moves during its freeze:
/// eager openMosix copies the footprint, AMPoM three pages plus 6 B of
/// MPT per page, NoPrefetch and FFA three pages.
pub fn freeze_bytes(scheme: Scheme, memory_mb: u64) -> u64 {
    let bytes = memory_mb * 1024 * 1024;
    match scheme {
        Scheme::OpenMosix => bytes,
        Scheme::Ampom => 3 * PAGE_SIZE + bytes / PAGE_SIZE * 6,
        Scheme::NoPrefetch | Scheme::Ffa => 3 * PAGE_SIZE,
    }
}

/// Freeze time of a `memory_mb` migration in closed form (the Figure 5
/// calibration): the base cost, AMPoM's per-entry MPT cost, and the
/// [`freeze_bytes`] payload over Fast Ethernet. Cluster-scale models
/// price a move with this instead of running [`perform_freeze`].
pub fn freeze_time(scheme: Scheme, memory_mb: u64) -> SimDuration {
    let mpt = match scheme {
        Scheme::Ampom => MPT_ENTRY_COST.saturating_mul(memory_mb * 1024 * 1024 / PAGE_SIZE),
        Scheme::OpenMosix | Scheme::NoPrefetch | Scheme::Ffa => SimDuration::ZERO,
    };
    MIGRATION_BASE_COST + mpt + fast_ethernet().serialization_time(freeze_bytes(scheme, memory_mb))
}

/// What the freeze phase produced.
#[derive(Debug)]
pub struct FreezeOutcome {
    /// Freeze time: suspension of execution until resume on the
    /// destination (the Figure 5 metric).
    pub freeze_time: SimDuration,
    /// Bytes moved during the freeze.
    pub bytes_at_freeze: u64,
    /// MPT bytes shipped (AMPoM only; 0 otherwise).
    pub mpt_bytes: u64,
    /// The migrant's address-space view on the destination at resume.
    pub space: AddressSpace,
    /// The MPT/HPT pair at resume.
    pub table: PageTablePair,
    /// The three freeze pages (code, data, stack).
    pub freeze_pages: [PageId; 3],
}

/// The pre-migration state on the home node: which pages the process has
/// mapped and dirtied before the migration is initiated.
#[derive(Debug, Clone)]
pub struct PreMigrationState {
    /// The address-space layout.
    pub layout: MemoryLayout,
    /// Data pages the allocation phase dirtied.
    pub allocated: Vec<PageId>,
    /// The "currently accessed" data page at freeze time.
    pub current_data: PageId,
}

impl PreMigrationState {
    /// Builds the state for a workload that allocated the given data pages
    /// (§5.1: migration is initiated right after allocation completes).
    pub fn new(layout: MemoryLayout, allocated: Vec<PageId>) -> Self {
        let current_data = allocated
            .last()
            .copied()
            .unwrap_or_else(|| layout.data_start());
        PreMigrationState {
            layout,
            allocated,
            current_data,
        }
    }

    /// Every mapped page: allocated data + code + stack.
    pub fn mapped_pages(&self) -> Vec<PageId> {
        let mut pages = self.allocated.clone();
        pages.extend(self.layout.region(RegionKind::Code).pages.iter());
        pages.extend(self.layout.region(RegionKind::Stack).pages.iter());
        pages.sort();
        pages.dedup();
        pages
    }

    /// Dirty pages at freeze time: allocated data + stack (text is clean).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut pages = self.allocated.clone();
        pages.extend(self.layout.region(RegionKind::Stack).pages.iter());
        pages.sort();
        pages.dedup();
        pages
    }
}

/// Executes the freeze phase of `scheme` starting at `SimTime::ZERO`,
/// moving data over `path` and recording the timeline in `trace`.
pub fn perform_freeze(
    scheme: Scheme,
    pre: &PreMigrationState,
    path: &mut NetPath,
    trace: &mut Trace,
) -> FreezeOutcome {
    let t0 = SimTime::ZERO;
    trace.record_with(t0, TraceKind::FreezeBegin, || {
        TraceData::note(format!("scheme={scheme}"))
    });

    let mapped = pre.mapped_pages();
    let dirty = pre.dirty_pages();
    let mut table = PageTablePair::at_migration(mapped.iter().copied());
    let mut space = AddressSpace::new(pre.layout.clone());
    for &p in &mapped {
        space.mark_remote(p);
    }
    let freeze_pages = pre.layout.freeze_pages(pre.current_data);

    let (resume_at, bytes, mpt_bytes) = match scheme {
        Scheme::OpenMosix => {
            // Eager: capture state, walk and copy every dirty page, bulk
            // transfer, rebuild on the destination.
            let bytes = dirty.len() as u64 * PAGE_SIZE;
            let kernel_cost = EAGER_PAGE_COST.saturating_mul(dirty.len() as u64);
            let start = t0 + MIGRATION_BASE_COST + kernel_cost;
            let done = path.bulk_transfer(start, bytes);
            trace.record_with(done, TraceKind::PagesArrived, || {
                TraceData::pages(dirty.len() as u64)
                    .with_bytes(bytes)
                    .with_note("eager dirty pages")
            });
            for &p in &dirty {
                table.transfer_to_destination(p);
                space.install(p);
                // The page arrives with its (dirty) home contents; the
                // dest copy is the only copy, so it stays logically dirty.
                space.touch(p, true);
            }
            (done, bytes, 0)
        }
        Scheme::NoPrefetch | Scheme::Ffa => {
            let bytes = 3 * PAGE_SIZE;
            let start = t0 + MIGRATION_BASE_COST;
            let done = path.bulk_transfer(start, bytes);
            trace.record_with(done, TraceKind::PagesArrived, || {
                TraceData::pages(3)
                    .with_bytes(bytes)
                    .with_note("freeze pages")
            });
            (done, bytes, 0)
        }
        Scheme::Ampom => {
            let mpt = table.mpt_bytes();
            let bytes = 3 * PAGE_SIZE + mpt;
            let kernel_cost = MPT_ENTRY_COST.saturating_mul(table.mapped_pages());
            let start = t0 + MIGRATION_BASE_COST + kernel_cost;
            let done = path.bulk_transfer(start, bytes);
            trace.record_with(done, TraceKind::PagesArrived, || {
                TraceData::pages(3)
                    .with_bytes(bytes)
                    .with_note(format!("freeze pages + {mpt} B MPT"))
            });
            (done, bytes, mpt)
        }
    };

    if scheme != Scheme::OpenMosix {
        for &p in &freeze_pages {
            // Stack/code freeze pages may be clean (unmapped in dirty set)
            // but they are mapped; ship them.
            if !space.is_resident(p) {
                table.transfer_to_destination(p);
                space.install(p);
            }
        }
    }

    let freeze_time = resume_at.since(t0);
    trace.record_with(resume_at, TraceKind::FreezeEnd, || {
        TraceData::note(format!("freeze={freeze_time}"))
    });

    FreezeOutcome {
        freeze_time,
        bytes_at_freeze: bytes,
        mpt_bytes,
        space,
        table,
        freeze_pages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pre(mb: u64) -> PreMigrationState {
        let layout = MemoryLayout::with_data_bytes(mb * 1024 * 1024);
        let allocated: Vec<PageId> = layout.data_pages().iter().collect();
        PreMigrationState::new(layout, allocated)
    }

    fn freeze(scheme: Scheme, mb: u64) -> FreezeOutcome {
        let mut path = NetPath::new(fast_ethernet());
        let mut trace = Trace::enabled();
        perform_freeze(scheme, &pre(mb), &mut path, &mut trace)
    }

    #[test]
    fn openmosix_freeze_matches_paper_at_575mb() {
        let out = freeze(Scheme::OpenMosix, 575);
        let s = out.freeze_time.as_secs_f64();
        assert!(
            (50.0..60.0).contains(&s),
            "eager freeze {s}s vs paper 53.9s"
        );
        // Everything dirty is now resident on the destination.
        assert_eq!(
            out.space.remote_pages(),
            out.table.mapped_pages() - out.space.resident_pages()
        );
        assert!(out.space.resident_pages() > 147_000);
    }

    #[test]
    fn ampom_freeze_matches_paper_at_575mb() {
        let out = freeze(Scheme::Ampom, 575);
        let s = out.freeze_time.as_secs_f64();
        assert!((0.4..0.9).contains(&s), "AMPoM freeze {s}s vs paper 0.6s");
        assert!(out.mpt_bytes > 800_000, "MPT ≈ 6 B × 147k pages");
        // Only the three freeze pages are resident.
        assert_eq!(out.space.resident_pages(), 3);
    }

    #[test]
    fn noprefetch_freeze_matches_paper() {
        let out = freeze(Scheme::NoPrefetch, 575);
        let s = out.freeze_time.as_secs_f64();
        assert!(
            (0.05..0.1).contains(&s),
            "NoPrefetch freeze {s}s vs paper 0.07s"
        );
        assert_eq!(out.space.resident_pages(), 3);
    }

    #[test]
    fn freeze_time_ordering_holds_at_every_size() {
        for mb in [115, 230, 345, 460, 575] {
            let eager = freeze(Scheme::OpenMosix, mb).freeze_time;
            let ampom = freeze(Scheme::Ampom, mb).freeze_time;
            let nopf = freeze(Scheme::NoPrefetch, mb).freeze_time;
            assert!(nopf < ampom, "{mb}MB: NoPrefetch < AMPoM");
            assert!(ampom < eager, "{mb}MB: AMPoM < openMosix");
            assert!(
                eager.as_nanos() > 20 * ampom.as_nanos(),
                "{mb}MB: AMPoM avoids ≥95% of freeze"
            );
        }
    }

    #[test]
    fn ampom_freeze_grows_linearly_with_size() {
        let f115 = freeze(Scheme::Ampom, 115).freeze_time.as_secs_f64();
        let f575 = freeze(Scheme::Ampom, 575).freeze_time.as_secs_f64();
        // Linear in MPT size modulo the fixed base cost.
        let ratio = (f575 - 0.068) / (f115 - 0.068);
        assert!(
            (4.0..6.0).contains(&ratio),
            "MPT-driven growth ratio {ratio}"
        );
    }

    #[test]
    fn noprefetch_freeze_is_size_independent() {
        let small = freeze(Scheme::NoPrefetch, 115).freeze_time;
        let large = freeze(Scheme::NoPrefetch, 575).freeze_time;
        assert_eq!(small, large);
    }

    #[test]
    fn lazy_schemes_leave_pages_at_origin() {
        let out = freeze(Scheme::Ampom, 115);
        assert_eq!(out.space.resident_pages(), 3);
        assert!(out.table.pages_at_origin() > 29_000);
        out.space.check_counters();
        out.table.check_invariants();
    }

    #[test]
    fn freeze_pages_cover_three_regions() {
        let out = freeze(Scheme::NoPrefetch, 115);
        let [c, d, s] = out.freeze_pages;
        for p in [c, d, s] {
            assert!(out.space.is_resident(p));
        }
        assert_ne!(c, d);
        assert_ne!(d, s);
    }

    #[test]
    fn freeze_model_matches_calibration() {
        let eager = freeze_time(Scheme::OpenMosix, 575);
        let ampom = freeze_time(Scheme::Ampom, 575);
        let nopf = freeze_time(Scheme::NoPrefetch, 575);
        assert!((50.0..60.0).contains(&eager.as_secs_f64()));
        assert!((0.4..0.9).contains(&ampom.as_secs_f64()));
        assert!(nopf < SimDuration::from_millis(100));
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
    fn trace_records_the_timeline() {
        let mut path = NetPath::new(fast_ethernet());
        let mut trace = Trace::enabled();
        perform_freeze(Scheme::Ampom, &pre(115), &mut path, &mut trace);
        assert!(trace.first_of(TraceKind::FreezeBegin).is_some());
        assert!(trace.first_of(TraceKind::FreezeEnd).is_some());
        let begin = trace.first_of(TraceKind::FreezeBegin).unwrap().at;
        let end = trace.first_of(TraceKind::FreezeEnd).unwrap().at;
        assert!(end > begin);
    }
}
