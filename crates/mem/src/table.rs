//! The master / home page-table pair.
//!
//! Paper §2.2: "When a process is migrated, its page table in the Linux
//! kernel will be transferred to the destination node, which will become
//! the MPT of the migrant. At the same time, the original page table will
//! become the HPT… When a page is transferred to the migrant … its copy in
//! the original node will be deleted and the HPT will be updated
//! accordingly. When a page is created by a migrant, only the MPT needs to
//! be updated. When a page is unmapped … if the page is stored in the
//! original node, both the MPT and the HPT will be updated, otherwise only
//! the MPT will be updated."
//!
//! [`PageTablePair`] implements exactly those transitions and exposes the
//! invariant the design rests on: **every mapped page's contents are stored
//! in exactly one place**, and the HPT is precisely the set of mapped pages
//! stored at the origin (plus, for FFA, the file server's stock).

use crate::page::PageId;

/// Where a mapped page's contents are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageLocation {
    /// On the process's home (original) node, served by the deputy.
    Origin,
    /// On the node executing the migrant.
    Destination,
    /// On the Freeze-Free-Algorithm file server (FFA only).
    FileServer,
}

/// Which tables an operation had to update — the paper calls this out
/// because HPT updates are remote bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableUpdate {
    /// Only the destination-side master table changed.
    MptOnly,
    /// Both the master and the home table changed.
    Both,
}

/// The MPT/HPT pair tracking one migrated process's pages.
///
/// Laid out like the kernel tables it models: one entry per page, indexed
/// by page number, so every lookup and transition is one array access. An
/// entry is `None` for an unmapped page; the array grows to the highest
/// page ever mapped and iterates in ascending page order. The HPT is not
/// stored apart: it is the entries whose location is
/// [`PageLocation::Origin`].
#[derive(Debug, Clone, Default)]
pub struct PageTablePair {
    /// The master page table: where each mapped page is stored.
    mpt: Vec<Option<PageLocation>>,
    /// Number of `Some` entries in `mpt`.
    mapped: u64,
    /// Count of MPT updates performed (bookkeeping-cost accounting).
    mpt_updates: u64,
    /// Count of HPT updates performed.
    hpt_updates: u64,
}

impl PageTablePair {
    /// MPT entry size on the wire: "the size of an MPT is 6 bytes per page"
    /// (paper §5.2).
    pub const MPT_ENTRY_BYTES: u64 = 6;

    /// Builds the pair at migration time: every currently-mapped page
    /// starts stored at the origin. (The migration mechanism then moves the
    /// freeze-time pages to the destination.) A page listed twice is
    /// mapped once.
    pub fn at_migration(mapped: impl IntoIterator<Item = PageId>) -> Self {
        let mut pair = PageTablePair::default();
        for page in mapped {
            let entry = pair.slot(page);
            if entry.is_none() {
                *entry = Some(PageLocation::Origin);
                pair.mapped += 1;
            }
        }
        pair
    }

    /// The entry for `page`, growing the table to hold it.
    fn slot(&mut self, page: PageId) -> &mut Option<PageLocation> {
        let i = page.index() as usize;
        if i >= self.mpt.len() {
            self.mpt.resize(i + 1, None);
        }
        &mut self.mpt[i]
    }

    /// The location of a mapped `page`, for updating in place.
    fn entry_mut(&mut self, page: PageId) -> Option<&mut PageLocation> {
        self.mpt
            .get_mut(page.index() as usize)
            .and_then(Option::as_mut)
    }

    /// How many mapped pages are stored at `loc`.
    fn count_at(&self, loc: PageLocation) -> u64 {
        self.mpt.iter().filter(|&&l| l == Some(loc)).count() as u64
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    /// Bytes the MPT occupies when shipped at freeze time.
    pub fn mpt_bytes(&self) -> u64 {
        self.mapped_pages() * Self::MPT_ENTRY_BYTES
    }

    /// Where `page` is stored, or `None` if unmapped.
    #[inline]
    pub fn lookup(&self, page: PageId) -> Option<PageLocation> {
        self.mpt.get(page.index() as usize).copied().flatten()
    }

    /// The home page table: mapped pages whose contents the origin still
    /// stores, in ascending page order.
    pub fn hpt_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.mpt
            .iter()
            .enumerate()
            .filter(|&(_, &loc)| loc == Some(PageLocation::Origin))
            .map(|(i, _)| PageId(i as u64))
    }

    /// Number of pages still stored at the origin.
    pub fn pages_at_origin(&self) -> u64 {
        self.count_at(PageLocation::Origin)
    }

    /// Number of pages stored at the destination.
    pub fn pages_at_destination(&self) -> u64 {
        self.count_at(PageLocation::Destination)
    }

    /// A page's contents were transferred to the migrant (at freeze time or
    /// by a later fault/prefetch): origin copy deleted, HPT updated.
    ///
    /// # Panics
    /// Panics if the page is unmapped or already at the destination —
    /// transferring a page twice means the protocol fetched a page it
    /// already had.
    pub fn transfer_to_destination(&mut self, page: PageId) -> TableUpdate {
        let loc = self
            .entry_mut(page)
            .unwrap_or_else(|| panic!("transfer of unmapped page {page}"));
        assert_ne!(
            *loc,
            PageLocation::Destination,
            "page {page} transferred twice"
        );
        let from_origin = *loc == PageLocation::Origin;
        *loc = PageLocation::Destination;
        self.mpt_updates += 1;
        if from_origin {
            self.hpt_updates += 1;
            TableUpdate::Both
        } else {
            TableUpdate::MptOnly
        }
    }

    /// A page evicted from the destination is pushed back to the origin
    /// (its only other potential holder — §2.2 deleted the origin copy
    /// when the page moved, so an evicted page must travel, dirty or not).
    ///
    /// # Panics
    /// Panics unless the page is currently stored at the destination.
    pub fn return_to_origin(&mut self, page: PageId) -> TableUpdate {
        let loc = self
            .entry_mut(page)
            .unwrap_or_else(|| panic!("return of unmapped page {page}"));
        assert_eq!(
            *loc,
            PageLocation::Destination,
            "page {page} returned while not at the destination"
        );
        *loc = PageLocation::Origin;
        self.mpt_updates += 1;
        self.hpt_updates += 1;
        TableUpdate::Both
    }

    /// FFA only: the origin flushed a page's contents to the file server.
    /// The origin stops storing the page, so both tables change — the same
    /// `Both` every sibling origin-departure transition reports.
    ///
    /// # Panics
    /// Panics unless the page is currently stored at the origin.
    pub fn flush_to_file_server(&mut self, page: PageId) -> TableUpdate {
        let loc = self
            .entry_mut(page)
            .unwrap_or_else(|| panic!("flush of unmapped page {page}"));
        assert_eq!(
            *loc,
            PageLocation::Origin,
            "file-server flush of page {page} not stored at origin"
        );
        *loc = PageLocation::FileServer;
        self.mpt_updates += 1;
        self.hpt_updates += 1;
        TableUpdate::Both
    }

    /// "When a page is created by a migrant, only the MPT needs to be
    /// updated."
    ///
    /// # Panics
    /// Panics if the page is already mapped.
    pub fn create_at_destination(&mut self, page: PageId) -> TableUpdate {
        let prev = self.slot(page).replace(PageLocation::Destination);
        assert!(prev.is_none(), "create of already-mapped page {page}");
        self.mapped += 1;
        self.mpt_updates += 1;
        TableUpdate::MptOnly
    }

    /// Unmaps a page. "If the page is stored in the original node, both the
    /// MPT and the HPT will be updated, otherwise only the MPT."
    ///
    /// # Panics
    /// Panics if the page is not mapped.
    pub fn unmap(&mut self, page: PageId) -> TableUpdate {
        let loc = self
            .mpt
            .get_mut(page.index() as usize)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("unmap of unmapped page {page}"));
        self.mapped -= 1;
        self.mpt_updates += 1;
        if loc == PageLocation::Origin {
            self.hpt_updates += 1;
            TableUpdate::Both
        } else {
            TableUpdate::MptOnly
        }
    }

    /// Total MPT update operations performed.
    pub fn mpt_update_count(&self) -> u64 {
        self.mpt_updates
    }

    /// Total HPT update operations performed.
    pub fn hpt_update_count(&self) -> u64 {
        self.hpt_updates
    }

    /// Checks the single-storage invariant: the per-location counts
    /// partition the mapped set, and the kept mapped count matches a scan
    /// of the table.
    pub fn check_invariants(&self) {
        let scanned = self.mpt.iter().filter(|l| l.is_some()).count() as u64;
        assert_eq!(scanned, self.mapped, "mapped count drifted from the table");
        let origin = self.pages_at_origin();
        let dest = self.pages_at_destination();
        let fs = self.count_at(PageLocation::FileServer);
        assert_eq!(origin + dest + fs, self.mapped_pages());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_with(pages: u64) -> PageTablePair {
        PageTablePair::at_migration((0..pages).map(PageId))
    }

    #[test]
    fn migration_starts_everything_at_origin() {
        let p = pair_with(10);
        assert_eq!(p.mapped_pages(), 10);
        assert_eq!(p.pages_at_origin(), 10);
        assert_eq!(p.pages_at_destination(), 0);
        assert_eq!(p.mpt_bytes(), 60);
        assert_eq!(p.hpt_pages().count(), 10);
    }

    #[test]
    fn transfer_moves_storage_and_updates_both_tables() {
        let mut p = pair_with(4);
        let upd = p.transfer_to_destination(PageId(2));
        assert_eq!(upd, TableUpdate::Both);
        assert_eq!(p.lookup(PageId(2)), Some(PageLocation::Destination));
        assert_eq!(p.pages_at_origin(), 3);
        assert!(p.hpt_pages().all(|pg| pg != PageId(2)));
        p.check_invariants();
    }

    #[test]
    fn create_updates_mpt_only() {
        let mut p = pair_with(2);
        let upd = p.create_at_destination(PageId(50));
        assert_eq!(upd, TableUpdate::MptOnly);
        assert_eq!(p.lookup(PageId(50)), Some(PageLocation::Destination));
        assert_eq!(p.hpt_update_count(), 0);
        assert_eq!(p.mpt_update_count(), 1);
    }

    #[test]
    fn unmap_origin_page_touches_both_tables() {
        let mut p = pair_with(3);
        assert_eq!(p.unmap(PageId(1)), TableUpdate::Both);
        assert_eq!(p.lookup(PageId(1)), None);
        assert_eq!(p.hpt_update_count(), 1);
    }

    #[test]
    fn unmap_destination_page_touches_mpt_only() {
        let mut p = pair_with(3);
        p.transfer_to_destination(PageId(1));
        let hpt_before = p.hpt_update_count();
        assert_eq!(p.unmap(PageId(1)), TableUpdate::MptOnly);
        assert_eq!(p.hpt_update_count(), hpt_before);
    }

    #[test]
    fn eviction_returns_page_to_origin() {
        let mut p = pair_with(3);
        p.transfer_to_destination(PageId(1));
        assert_eq!(p.return_to_origin(PageId(1)), TableUpdate::Both);
        assert_eq!(p.lookup(PageId(1)), Some(PageLocation::Origin));
        // It can be fetched again later.
        p.transfer_to_destination(PageId(1));
        assert_eq!(p.lookup(PageId(1)), Some(PageLocation::Destination));
        p.check_invariants();
    }

    #[test]
    #[should_panic(expected = "not at the destination")]
    fn returning_an_origin_page_panics() {
        let mut p = pair_with(1);
        p.return_to_origin(PageId(0));
    }

    #[test]
    fn ffa_flush_moves_page_to_file_server() {
        let mut p = pair_with(2);
        let mpt_before = p.mpt_update_count();
        let hpt_before = p.hpt_update_count();
        assert_eq!(p.flush_to_file_server(PageId(0)), TableUpdate::Both);
        assert_eq!(p.mpt_update_count(), mpt_before + 1);
        assert_eq!(p.hpt_update_count(), hpt_before + 1);
        assert_eq!(p.lookup(PageId(0)), Some(PageLocation::FileServer));
        // Fetch from the file server updates MPT only (not stored at origin).
        assert_eq!(p.transfer_to_destination(PageId(0)), TableUpdate::MptOnly);
        p.check_invariants();
    }

    #[test]
    #[should_panic(expected = "transferred twice")]
    fn double_transfer_panics() {
        let mut p = pair_with(2);
        p.transfer_to_destination(PageId(0));
        p.transfer_to_destination(PageId(0));
    }

    #[test]
    #[should_panic(expected = "unmapped page")]
    fn transfer_of_unmapped_panics() {
        let mut p = pair_with(1);
        p.transfer_to_destination(PageId(9));
    }

    #[test]
    #[should_panic(expected = "already-mapped")]
    fn double_create_panics() {
        let mut p = pair_with(1);
        p.create_at_destination(PageId(0));
    }

    #[test]
    #[should_panic(expected = "not stored at origin")]
    fn flush_of_destination_page_panics() {
        let mut p = pair_with(1);
        p.transfer_to_destination(PageId(0));
        p.flush_to_file_server(PageId(0));
    }
}
