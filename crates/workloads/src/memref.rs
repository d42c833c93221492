//! The page-reference stream abstraction.
//!
//! A [`Workload`] is an iterator of [`MemRef`]s — the post-migration
//! execution of an HPCC kernel as the virtual-memory system perceives it.
//! The experiment protocol of paper §5.1 ("we initiated migration right
//! after a kernel has finished allocating the required memory") is encoded
//! in [`Workload::allocation_pages`]: those pages are dirtied on the home
//! node *before* migration, and the iterator yields the references the
//! migrant makes *after* it.

use ampom_mem::page::PageId;
use ampom_mem::region::MemoryLayout;
use ampom_sim::time::SimDuration;

/// One page-granular step of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// The page touched.
    pub page: PageId,
    /// Whether the touch writes (dirties) the page.
    pub write: bool,
    /// CPU time the kernel spends on this touch (arithmetic plus all
    /// accesses that stay within the page).
    pub cpu: SimDuration,
}

impl MemRef {
    /// A read touch.
    pub fn read(page: PageId, cpu: SimDuration) -> Self {
        MemRef {
            page,
            write: false,
            cpu,
        }
    }

    /// A write touch.
    pub fn write(page: PageId, cpu: SimDuration) -> Self {
        MemRef {
            page,
            write: true,
            cpu,
        }
    }
}

/// A post-migration execution trace at page granularity.
///
/// Implementors are deterministic: two instances built with the same
/// parameters and seed yield identical streams, which is what makes the
/// three migration schemes comparable on "the same" run.
///
/// A workload is open-loop: its stream never depends on how the
/// simulation went, so an implementor must not read simulation state to
/// choose its next reference. The migrant loop relies on that: it pulls
/// a block of references through [`Workload::next_block`] (up to 256 in
/// `ampom-core`) before it has simulated the first of them.
pub trait Workload: Iterator<Item = MemRef> {
    /// Kernel name as the paper spells it.
    fn name(&self) -> &'static str;

    /// The address-space layout (code + data + stack).
    fn layout(&self) -> &MemoryLayout;

    /// Bytes of data the kernel allocates (the Table 1 "memory size").
    fn data_bytes(&self) -> u64;

    /// Pages dirtied during the pre-migration allocation phase. For the
    /// HPCC kernels this is the whole data region ("all HPCC programs
    /// access their entire address spaces"); the small-working-set DGEMM
    /// variant also allocates everything — that is its point.
    fn allocation_pages(&self) -> Vec<PageId> {
        self.layout().data_pages().iter().collect()
    }

    /// Expected number of references the iterator will yield (exact for
    /// the deterministic kernels; used for progress accounting and
    /// pre-sizing).
    fn total_refs_hint(&self) -> u64;

    /// Appends the stream's next references to `out`, in order, at most
    /// `max` of them. With `max > 0` it appends none only once the
    /// stream is done, and then on every later call, so draining by
    /// blocks yields exactly what draining by [`Iterator::next`] does.
    ///
    /// The default calls `self.next()` in a loop. It is compiled once
    /// per implementing type, so those calls are static and inline: a
    /// caller holding a `dyn Workload` pays one virtual call per block
    /// instead of one per reference.
    fn next_block(&mut self, out: &mut Vec<MemRef>, max: usize) {
        for _ in 0..max {
            match self.next() {
                Some(r) => out.push(r),
                None => break,
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Drains a workload and sanity-checks stream-level invariants shared
    /// by every kernel: non-empty, every page within the data region,
    /// positive CPU on every touch, and length matching the hint.
    pub fn check_stream_invariants<W: Workload>(mut w: W) -> Vec<MemRef> {
        let hint = w.total_refs_hint();
        let layout = w.layout().clone();
        let refs: Vec<MemRef> = w.by_ref().collect();
        assert!(!refs.is_empty(), "empty reference stream");
        assert_eq!(refs.len() as u64, hint, "total_refs_hint mismatch");
        for r in &refs {
            assert!(
                layout.data_pages().contains(r.page),
                "reference {page} outside data region",
                page = r.page
            );
            assert!(r.cpu > SimDuration::ZERO, "zero-cost touch");
        }
        refs
    }
}
