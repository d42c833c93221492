//! The page-indexed MPT/HPT pair and write-set against the ordered-map
//! implementations they replaced.
//!
//! `PageTablePair` and `WriteSet` once kept their per-page state in
//! `BTreeMap`/`BTreeSet`s. Those versions are kept below as references,
//! their code unchanged apart from names, visibility and comments. Each
//! property drives a reference and the production type through the same
//! random legal operation sequence and compares every return value and
//! every observable after each step; the table suite also compares the
//! panic messages of illegal transitions. Each suite asserts that every
//! edge case it exists for was reached at least 10 times.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use ampom_mem::page::PageId;
use ampom_mem::table::{PageLocation, PageTablePair, TableUpdate};
use ampom_mem::writeback::{WriteSet, WriteSetCounters};
use ampom_sim::propcheck::{forall, Gen};

/// The ordered-map MPT/HPT pair.
#[derive(Debug, Clone, Default)]
struct ReferenceTable {
    mpt: BTreeMap<PageId, PageLocation>,
    mpt_updates: u64,
    hpt_updates: u64,
}

impl ReferenceTable {
    const MPT_ENTRY_BYTES: u64 = 6;

    fn at_migration(mapped: impl IntoIterator<Item = PageId>) -> Self {
        let mpt: BTreeMap<_, _> = mapped
            .into_iter()
            .map(|p| (p, PageLocation::Origin))
            .collect();
        ReferenceTable {
            mpt,
            mpt_updates: 0,
            hpt_updates: 0,
        }
    }

    fn mapped_pages(&self) -> u64 {
        self.mpt.len() as u64
    }

    fn mpt_bytes(&self) -> u64 {
        self.mapped_pages() * Self::MPT_ENTRY_BYTES
    }

    fn lookup(&self, page: PageId) -> Option<PageLocation> {
        self.mpt.get(&page).copied()
    }

    fn hpt_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.mpt
            .iter()
            .filter(|&(_, &loc)| loc == PageLocation::Origin)
            .map(|(&p, _)| p)
    }

    fn pages_at_origin(&self) -> u64 {
        self.mpt
            .values()
            .filter(|&&l| l == PageLocation::Origin)
            .count() as u64
    }

    fn pages_at_destination(&self) -> u64 {
        self.mpt
            .values()
            .filter(|&&l| l == PageLocation::Destination)
            .count() as u64
    }

    fn transfer_to_destination(&mut self, page: PageId) -> TableUpdate {
        let loc = self
            .mpt
            .get_mut(&page)
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

    fn return_to_origin(&mut self, page: PageId) -> TableUpdate {
        let loc = self
            .mpt
            .get_mut(&page)
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

    fn flush_to_file_server(&mut self, page: PageId) -> TableUpdate {
        let loc = self
            .mpt
            .get_mut(&page)
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

    fn create_at_destination(&mut self, page: PageId) -> TableUpdate {
        let prev = self.mpt.insert(page, PageLocation::Destination);
        assert!(prev.is_none(), "create of already-mapped page {page}");
        self.mpt_updates += 1;
        TableUpdate::MptOnly
    }

    fn unmap(&mut self, page: PageId) -> TableUpdate {
        let loc = self
            .mpt
            .remove(&page)
            .unwrap_or_else(|| panic!("unmap of unmapped page {page}"));
        self.mpt_updates += 1;
        if loc == PageLocation::Origin {
            self.hpt_updates += 1;
            TableUpdate::Both
        } else {
            TableUpdate::MptOnly
        }
    }
}

/// The ordered-map write-set.
#[derive(Debug, Clone, Default)]
struct ReferenceWriteSet {
    versions: BTreeMap<PageId, u64>,
    dirty: BTreeSet<PageId>,
    pending: BTreeMap<u64, Vec<(PageId, u64)>>,
    next_seq: u64,
    counters: WriteSetCounters,
}

impl ReferenceWriteSet {
    fn note_write(&mut self, page: PageId) {
        self.counters.writes_noted += 1;
        if self.dirty.contains(&page) {
            return;
        }
        let prior = self.versions.get(&page).copied().unwrap_or(0);
        if prior > 0 && self.in_flight(page) {
            self.counters.redirties += 1;
        }
        self.versions.insert(page, prior + 1);
        self.dirty.insert(page);
    }

    fn in_flight(&self, page: PageId) -> bool {
        self.pending
            .values()
            .any(|entries| entries.iter().any(|&(p, _)| p == page))
    }

    fn build_batch(&mut self, max_pages: usize) -> Option<(u64, Vec<(PageId, u64)>)> {
        if self.dirty.is_empty() || max_pages == 0 {
            return None;
        }
        let take: Vec<PageId> = self.dirty.iter().take(max_pages).copied().collect();
        let entries: Vec<(PageId, u64)> = take
            .iter()
            .map(|&p| {
                self.dirty.remove(&p);
                (p, self.versions[&p])
            })
            .collect();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counters.batches_built += 1;
        self.counters.pages_flushed += entries.len() as u64;
        self.pending.insert(seq, entries.clone());
        Some((seq, entries))
    }

    fn on_ack(&mut self, seq: u64) {
        if self.pending.remove(&seq).is_some() {
            self.counters.acks += 1;
        }
    }

    fn take_for_retry(&mut self, seq: u64) -> Option<Vec<(PageId, u64)>> {
        let entries = self.pending.get(&seq).cloned();
        if entries.is_some() {
            self.counters.retransmits += 1;
            self.counters.pages_flushed += entries.as_ref().map_or(0, Vec::len) as u64;
        }
        entries
    }

    fn pending_seqs(&self) -> Vec<u64> {
        self.pending.keys().copied().collect()
    }

    fn is_drained(&self) -> bool {
        self.dirty.is_empty() && self.pending.is_empty()
    }

    fn dirty_len(&self) -> usize {
        self.dirty.len()
    }
}

/// Every read-only observable of the two tables agrees.
fn assert_tables_agree(got: &PageTablePair, want: &ReferenceTable) {
    got.check_invariants();
    assert_eq!(got.mapped_pages(), want.mapped_pages());
    assert_eq!(got.mpt_bytes(), want.mpt_bytes());
    assert_eq!(got.pages_at_origin(), want.pages_at_origin());
    assert_eq!(got.pages_at_destination(), want.pages_at_destination());
    assert!(got.hpt_pages().eq(want.hpt_pages()), "HPT order differs");
    assert_eq!(got.mpt_update_count(), want.mpt_updates);
    assert_eq!(got.hpt_update_count(), want.hpt_updates);
}

/// The panic message of `f`, or `None` if it returned.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    catch_unwind(AssertUnwindSafe(f)).err().map(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panics carry a message")
    })
}

/// One table transition, by number.
fn apply(table: &mut PageTablePair, op: usize, page: PageId) -> TableUpdate {
    match op {
        0 => table.transfer_to_destination(page),
        1 => table.return_to_origin(page),
        2 => table.flush_to_file_server(page),
        3 => table.create_at_destination(page),
        _ => table.unmap(page),
    }
}

fn apply_reference(table: &mut ReferenceTable, op: usize, page: PageId) -> TableUpdate {
    match op {
        0 => table.transfer_to_destination(page),
        1 => table.return_to_origin(page),
        2 => table.flush_to_file_server(page),
        3 => table.create_at_destination(page),
        _ => table.unmap(page),
    }
}

/// Which transitions are legal for a page at `loc`.
fn legal(op: usize, loc: Option<PageLocation>) -> bool {
    match op {
        0 => matches!(loc, Some(PageLocation::Origin | PageLocation::FileServer)),
        1 => loc == Some(PageLocation::Destination),
        2 => loc == Some(PageLocation::Origin),
        3 => loc.is_none(),
        _ => loc.is_some(),
    }
}

#[test]
fn page_table_matches_reference() {
    // Cases reached: a duplicate and an unsorted page at migration, a
    // transfer from the file server, a return then re-transfer, a flush,
    // a create past the initial range, an unmap then re-create, a lookup
    // past the end, an illegal transition.
    let mut seen = [0u32; 9];
    forall("table-reference", 512, |g: &mut Gen| {
        let span = g.u64(1..96);
        let mapped = g.vec_u64(0..64, 0..span);
        let initial_end = mapped.iter().max().map_or(0, |&p| p + 1);
        let mut got = PageTablePair::at_migration(mapped.iter().copied().map(PageId));
        let mut want = ReferenceTable::at_migration(mapped.iter().copied().map(PageId));
        assert_tables_agree(&got, &want);
        let mut reached = [false; 9];
        reached[0] = mapped.iter().collect::<BTreeSet<_>>().len() < mapped.len();
        reached[1] = mapped.windows(2).any(|w| w[0] > w[1]);
        let mut returned = BTreeSet::new();
        let mut unmapped = BTreeSet::new();
        for _ in 0..g.usize(0..200) {
            let page = PageId(g.u64(0..span + 32));
            let loc = want.lookup(page);
            assert_eq!(got.lookup(page), loc, "lookup of {page}");
            reached[7] |= page.index() >= initial_end && loc.is_none();
            let op = g.usize(0..5);
            if !legal(op, loc) {
                // Now and then, try it on copies: both must refuse it
                // with the same message.
                if g.bool(0.1) {
                    let (mut got, mut want) = (got.clone(), want.clone());
                    let refused = panic_message(|| {
                        apply(&mut got, op, page);
                    });
                    assert!(refused.is_some(), "op {op} on {page} at {loc:?} accepted");
                    let expected = panic_message(|| {
                        apply_reference(&mut want, op, page);
                    });
                    assert_eq!(refused, expected, "op {op} on {page} at {loc:?}");
                    reached[8] = true;
                }
                continue;
            }
            assert_eq!(
                apply(&mut got, op, page),
                apply_reference(&mut want, op, page),
                "op {op} on {page} at {loc:?}"
            );
            match op {
                0 if loc == Some(PageLocation::FileServer) => reached[2] = true,
                0 if returned.contains(&page) => reached[3] = true,
                1 => {
                    returned.insert(page);
                }
                2 => reached[4] = true,
                3 => {
                    reached[5] |= page.index() >= initial_end;
                    reached[6] |= unmapped.contains(&page);
                }
                4 => {
                    unmapped.insert(page);
                }
                _ => {}
            }
            assert_tables_agree(&got, &want);
        }
        assert_eq!(got.lookup(PageId(u64::MAX)), None);
        for (n, r) in seen.iter_mut().zip(reached) {
            *n += u32::from(r);
        }
    });
    assert!(
        seen.iter().all(|&n| n >= 10),
        "edge cases reached: {seen:?}"
    );
}

/// Every read-only observable of the two write-sets agrees.
fn assert_write_sets_agree(got: &WriteSet, want: &ReferenceWriteSet) {
    assert!(
        got.versions()
            .eq(want.versions.iter().map(|(&p, &v)| (p, v))),
        "versions differ"
    );
    assert_eq!(got.pages_dirtied(), want.versions.len() as u64);
    assert_eq!(got.dirty_len(), want.dirty_len());
    assert_eq!(got.is_drained(), want.is_drained());
    assert_eq!(got.pending_seqs(), want.pending_seqs());
    assert_eq!(got.counters, want.counters);
}

#[test]
fn write_set_matches_reference() {
    // Cases reached: a redirty while a batch is pending, a cap of 0, a
    // batch cut short by its cap, a batch past the first 64 pages, an
    // out-of-order ack, an ack of a batch already acked, a retry of a
    // pending batch, a retry of one not pending, a batch built
    // acknowledged while another is pending.
    let mut seen = [0u32; 9];
    forall("write-set-reference", 512, |g: &mut Gen| {
        let span = g.u64(1..200);
        let mut got = WriteSet::new();
        let mut want = ReferenceWriteSet::default();
        let mut reached = [false; 9];
        // Stale entries the next acknowledged batch must replace.
        let mut acked = vec![(PageId(u64::MAX), 0)];
        for _ in 0..g.usize(0..300) {
            match g.usize(0..8) {
                0..=3 => {
                    let page = PageId(g.u64(0..span));
                    let redirties = want.counters.redirties;
                    got.note_write(page);
                    want.note_write(page);
                    reached[0] |= want.counters.redirties > redirties;
                }
                4 => {
                    let cap = if g.bool(0.1) { 0 } else { g.usize(1..65) };
                    let dirty = want.dirty_len();
                    let batch = if g.bool(0.5) {
                        let batch = got.build_batch(cap);
                        assert_eq!(batch, want.build_batch(cap), "cap {cap}");
                        batch
                    } else {
                        // Built and acknowledged at once: the reference
                        // builds, then acks.
                        let others_pending = !want.pending.is_empty();
                        let batch = got
                            .build_acked_batch(cap, &mut acked)
                            .map(|seq| (seq, acked.clone()));
                        let reference = want.build_batch(cap);
                        if let Some((seq, _)) = reference {
                            want.on_ack(seq);
                        }
                        assert_eq!(batch, reference, "acknowledged, cap {cap}");
                        reached[8] |= batch.is_some() && others_pending;
                        batch
                    };
                    reached[1] |= cap == 0 && dirty > 0;
                    reached[2] |= cap > 0 && dirty > cap;
                    reached[3] |= batch.is_some_and(|(_, e)| e.iter().any(|&(p, _)| p.0 >= 64));
                }
                5 | 6 => {
                    let pending = want.pending_seqs();
                    let seq = if pending.is_empty() || g.bool(0.2) {
                        g.u64(0..want.next_seq + 2)
                    } else {
                        *g.choose(&pending)
                    };
                    let is_pending = pending.contains(&seq);
                    reached[4] |= is_pending && pending[0] < seq;
                    reached[5] |= !is_pending && seq < want.next_seq;
                    got.on_ack(seq);
                    want.on_ack(seq);
                }
                _ => {
                    let pending = want.pending_seqs();
                    let seq = if pending.is_empty() || g.bool(0.3) {
                        g.u64(0..want.next_seq + 2)
                    } else {
                        *g.choose(&pending)
                    };
                    let retry = got.take_for_retry(seq);
                    reached[6] |= retry.is_some();
                    reached[7] |= retry.is_none();
                    assert_eq!(retry, want.take_for_retry(seq), "retry {seq}");
                }
            }
            assert_write_sets_agree(&got, &want);
        }
        for (n, r) in seen.iter_mut().zip(reached) {
            *n += u32::from(r);
        }
    });
    assert!(
        seen.iter().all(|&n| n >= 10),
        "edge cases reached: {seen:?}"
    );
}
