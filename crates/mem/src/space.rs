//! Per-page residency state on the executing node.
//!
//! After a lightweight migration the destination node holds only a few
//! pages; the rest are either still stored at the home node (`Remote`) or
//! were never touched at all (`Untouched` — a fresh anonymous page that can
//! be created locally without any network traffic, which is why AMPoM wins
//! the Figure 10 small-working-set experiment: "they would allocate new
//! pages after migration rather than using the existing ones").

use crate::page::PageId;
use crate::region::MemoryLayout;

/// Residency state of one page, from the executing node's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PageState {
    /// Never allocated or touched; first touch zero-fills locally.
    #[default]
    Untouched,
    /// In local RAM. `dirty` tracks whether it has been written since it
    /// was last cleaned (eager openMosix migration moves exactly the dirty
    /// pages).
    Resident {
        /// Written since last cleaned.
        dirty: bool,
    },
    /// Mapped, but its contents live on the home node; access faults and
    /// requires a remote fetch.
    Remote,
}

/// What happened when the process touched a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchOutcome {
    /// Page was resident; no fault.
    Hit,
    /// Page was untouched; a zero page was created locally (minor fault,
    /// no network traffic).
    LocalAllocate,
    /// Page contents are on the home node; a remote fault is required.
    RemoteFault,
}

/// The executing node's view of one process's address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    layout: MemoryLayout,
    states: Vec<PageState>,
    resident: u64,
    dirty: u64,
    remote: u64,
}

impl AddressSpace {
    /// A fresh address space with every page untouched.
    pub fn new(layout: MemoryLayout) -> Self {
        let n = layout.total_pages() as usize;
        AddressSpace {
            layout,
            states: vec![PageState::Untouched; n],
            resident: 0,
            dirty: 0,
            remote: 0,
        }
    }

    /// The address-space layout.
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Total pages in the layout.
    pub fn total_pages(&self) -> u64 {
        self.states.len() as u64
    }

    /// Current state of `page`.
    ///
    /// # Panics
    /// Panics if `page` is outside the layout.
    #[inline]
    pub fn state(&self, page: PageId) -> PageState {
        self.states[self.index(page)]
    }

    /// True if an access to `page` would not fault remotely.
    #[inline]
    pub fn is_resident(&self, page: PageId) -> bool {
        matches!(self.state(page), PageState::Resident { .. })
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> u64 {
        self.resident
    }

    /// Number of resident *dirty* pages (what eager openMosix migrates).
    pub fn dirty_pages(&self) -> u64 {
        self.dirty
    }

    /// Number of pages whose contents are on the home node.
    pub fn remote_pages(&self) -> u64 {
        self.remote
    }

    /// The remote pages among `64·word … 64·word + 63` as a bit mask (bit
    /// `i` is page `64·word + i`), for filters that answer 64 pages at a
    /// time. Pages past the end of the space are not remote.
    pub fn remote_word(&self, word: u64) -> u64 {
        let start = usize::try_from(word.saturating_mul(64)).unwrap_or(usize::MAX);
        let states = self.states.get(start..).unwrap_or_default();
        // One 0/1 byte per page (a loop the compiler vectorizes), then
        // eight bytes to eight bits per multiply: byte `i`'s bit lands at
        // bit `56 + i` of the product, and no two partial products
        // overlap, so nothing carries into the top byte.
        let mut remote = [0u8; 64];
        for (r, s) in remote.iter_mut().zip(states) {
            *r = u8::from(*s == PageState::Remote);
        }
        remote
            .chunks_exact(8)
            .enumerate()
            .fold(0, |mask, (k, bytes)| {
                let bytes = u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"));
                mask | (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k)
            })
    }

    /// Touches `page` (read or write), updating residency state and dirty
    /// bits, and reports what kind of fault (if any) occurred. On
    /// `RemoteFault` the state is *not* changed — the caller must fetch the
    /// page and then call [`AddressSpace::install`].
    #[inline]
    pub fn touch(&mut self, page: PageId, write: bool) -> TouchOutcome {
        let i = self.index(page);
        match self.states[i] {
            PageState::Resident { dirty } => {
                if write && !dirty {
                    self.states[i] = PageState::Resident { dirty: true };
                    self.dirty += 1;
                }
                TouchOutcome::Hit
            }
            PageState::Untouched => {
                // Anonymous zero-fill: created locally, dirty immediately
                // (the kernel must consider it dirty; there is no backing
                // store).
                self.states[i] = PageState::Resident { dirty: true };
                self.resident += 1;
                self.dirty += 1;
                TouchOutcome::LocalAllocate
            }
            PageState::Remote => TouchOutcome::RemoteFault,
        }
    }

    /// Installs a page that just arrived from the home node. Arriving pages
    /// carry their home-node contents and are clean until written.
    ///
    /// # Panics
    /// Panics if the page was not in the `Remote` state — installing over a
    /// resident page would double-count residency, and installing an
    /// untouched page means the remote protocol fetched something it never
    /// needed.
    pub fn install(&mut self, page: PageId) {
        let i = self.index(page);
        assert_eq!(
            self.states[i],
            PageState::Remote,
            "install of non-remote page {page}"
        );
        self.states[i] = PageState::Resident { dirty: false };
        self.resident += 1;
        self.remote -= 1;
    }

    /// Marks `page` as stored remotely (used when constructing the
    /// post-migration view: pages left behind become `Remote`).
    pub fn mark_remote(&mut self, page: PageId) {
        let i = self.index(page);
        match self.states[i] {
            PageState::Remote => {}
            PageState::Resident { dirty } => {
                self.resident -= 1;
                if dirty {
                    self.dirty -= 1;
                }
                self.states[i] = PageState::Remote;
                self.remote += 1;
            }
            PageState::Untouched => {
                self.states[i] = PageState::Remote;
                self.remote += 1;
            }
        }
    }

    /// Marks a resident page clean (after it has been copied out, e.g. by
    /// the eager migration or the FFA file-server flush).
    pub fn clean(&mut self, page: PageId) {
        let i = self.index(page);
        if let PageState::Resident { dirty: true } = self.states[i] {
            self.states[i] = PageState::Resident { dirty: false };
            self.dirty -= 1;
        }
    }

    /// Iterator over all pages currently in the given state category.
    pub fn pages_where<'a>(
        &'a self,
        pred: impl Fn(PageState) -> bool + 'a,
    ) -> impl Iterator<Item = PageId> + 'a {
        self.states
            .iter()
            .enumerate()
            .filter(move |&(_, &s)| pred(s))
            .map(|(i, _)| PageId(i as u64))
    }

    /// Recomputes the cached counters from scratch and asserts they match —
    /// a consistency check used by property tests.
    pub fn check_counters(&self) {
        let mut resident = 0;
        let mut dirty = 0;
        let mut remote = 0;
        for s in &self.states {
            match s {
                PageState::Resident { dirty: d } => {
                    resident += 1;
                    if *d {
                        dirty += 1;
                    }
                }
                PageState::Remote => remote += 1,
                PageState::Untouched => {}
            }
        }
        assert_eq!(resident, self.resident, "resident counter drift");
        assert_eq!(dirty, self.dirty, "dirty counter drift");
        assert_eq!(remote, self.remote, "remote counter drift");
    }

    #[inline]
    fn index(&self, page: PageId) -> usize {
        let i = page.index() as usize;
        assert!(
            i < self.states.len(),
            "page {page} outside address space of {} pages",
            self.states.len()
        );
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> AddressSpace {
        AddressSpace::new(MemoryLayout::new(4096, 4 * 4096, 4096))
    }

    #[test]
    fn fresh_space_is_untouched() {
        let s = small_space();
        assert_eq!(s.total_pages(), 6);
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(s.dirty_pages(), 0);
        assert_eq!(s.remote_pages(), 0);
        assert_eq!(s.state(PageId(0)), PageState::Untouched);
    }

    #[test]
    fn first_touch_allocates_locally_and_dirties() {
        let mut s = small_space();
        assert_eq!(s.touch(PageId(1), false), TouchOutcome::LocalAllocate);
        assert_eq!(s.state(PageId(1)), PageState::Resident { dirty: true });
        assert_eq!(s.resident_pages(), 1);
        assert_eq!(s.dirty_pages(), 1);
        assert_eq!(s.touch(PageId(1), true), TouchOutcome::Hit);
        s.check_counters();
    }

    #[test]
    fn remote_pages_fault_until_installed() {
        let mut s = small_space();
        s.mark_remote(PageId(2));
        assert_eq!(s.touch(PageId(2), false), TouchOutcome::RemoteFault);
        assert_eq!(s.remote_pages(), 1);
        s.install(PageId(2));
        assert_eq!(s.state(PageId(2)), PageState::Resident { dirty: false });
        assert_eq!(s.touch(PageId(2), false), TouchOutcome::Hit);
        assert_eq!(s.dirty_pages(), 0);
        // A write dirties the clean arrival.
        s.touch(PageId(2), true);
        assert_eq!(s.dirty_pages(), 1);
        s.check_counters();
    }

    #[test]
    fn mark_remote_transitions_from_any_state() {
        let mut s = small_space();
        s.touch(PageId(0), true); // resident dirty
        s.mark_remote(PageId(0));
        assert_eq!(s.state(PageId(0)), PageState::Remote);
        assert_eq!(s.resident_pages(), 0);
        assert_eq!(s.dirty_pages(), 0);
        s.mark_remote(PageId(1)); // from untouched
        assert_eq!(s.remote_pages(), 2);
        s.mark_remote(PageId(1)); // idempotent
        assert_eq!(s.remote_pages(), 2);
        s.check_counters();
    }

    #[test]
    fn clean_resets_dirty_bit_only() {
        let mut s = small_space();
        s.touch(PageId(3), true);
        s.clean(PageId(3));
        assert_eq!(s.state(PageId(3)), PageState::Resident { dirty: false });
        assert_eq!(s.dirty_pages(), 0);
        s.clean(PageId(3)); // idempotent
        s.check_counters();
    }

    #[test]
    #[should_panic(expected = "install of non-remote")]
    fn installing_resident_page_panics() {
        let mut s = small_space();
        s.touch(PageId(0), false);
        s.install(PageId(0));
    }

    #[test]
    #[should_panic(expected = "outside address space")]
    fn out_of_range_page_panics() {
        let s = small_space();
        let _ = s.state(PageId(100));
    }

    #[test]
    fn remote_word_reads_64_pages_and_stops_at_the_end() {
        // 130 pages: two full words and a two-page tail.
        let mut s = AddressSpace::new(MemoryLayout::new(4096, 128 * 4096, 4096));
        assert_eq!(s.total_pages(), 130);
        for p in [0, 5, 63, 64, 127, 129] {
            s.mark_remote(PageId(p));
        }
        s.touch(PageId(6), true);
        assert_eq!(s.remote_word(0), 1 | 1 << 5 | 1 << 63);
        assert_eq!(s.remote_word(1), 1 | 1 << 63);
        assert_eq!(s.remote_word(2), 1 << 1, "the tail word stops at page 129");
        s.install(PageId(129));
        for word in [2, 3, u64::MAX / 64, u64::MAX] {
            assert_eq!(s.remote_word(word), 0, "word {word}");
        }
    }

    #[test]
    fn pages_where_filters() {
        let mut s = small_space();
        s.touch(PageId(0), true);
        s.mark_remote(PageId(4));
        let remote: Vec<_> = s.pages_where(|st| st == PageState::Remote).collect();
        assert_eq!(remote, vec![PageId(4)]);
        let dirty: Vec<_> = s
            .pages_where(|st| matches!(st, PageState::Resident { dirty: true }))
            .collect();
        assert_eq!(dirty, vec![PageId(0)]);
    }
}
