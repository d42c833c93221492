//! The writeback half of the page lifecycle: dirty-page tracking promoted
//! to a **write-set** with delta batching, and the deputy-side sink that
//! applies batches with exactly-once accounting.
//!
//! Forward migration moves clean copies toward the migrant; nothing ever
//! flowed back. The [`WriteSet`] closes the loop on the migrant side: every
//! dirtying store bumps a per-page **version counter**, dirty pages collect
//! into delta batches (at most `max_pages` per flush so a background flush
//! never monopolises the reply link), and each batch carries a sequence
//! number so the deputy's [`WritebackSink`] can deduplicate retransmits.
//!
//! Exactly-once under the PR 2 fault model rests on two layers:
//!
//! 1. **Batch dedup** — a retransmitted sequence number the sink has seen
//!    is re-acked without reapplying anything.
//! 2. **Version compare** — after a sink restart (deputy outage) the
//!    seen-sequence set is gone, but the per-page high-water versions
//!    survive in the applied store, so a replayed batch's stale entries
//!    are recognised and skipped page by page.
//!
//! Either layer alone suffices on a lossy-but-up link; together they keep
//! the conservation property (*every dirtied page applied exactly once per
//! version*) through arbitrary loss/restart interleavings.

use std::collections::BTreeMap;

use crate::page::PageId;

/// Plain counters a [`WriteSet`] accumulates; copied into the run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteSetCounters {
    /// Dirtying stores noted (first-dirty and redirty alike).
    pub writes_noted: u64,
    /// Pages redirtied while a flush of their previous version was in
    /// flight (these force a second writeback of the same page).
    pub redirties: u64,
    /// Delta batches built.
    pub batches_built: u64,
    /// Page entries across all built batches (retransmits included).
    pub pages_flushed: u64,
    /// Batches handed back by [`WriteSet::take_for_retry`].
    pub retransmits: u64,
    /// Batches acknowledged.
    pub acks: u64,
}

/// The migrant-side write-set: dirty pages awaiting writeback, per-page
/// version counters, and the in-flight batches not yet acknowledged.
///
/// Per-page state is indexed by page number, like the page tables: a
/// version array (0 for a page never dirtied) and a dirty bitset, both
/// grown on demand to the highest page dirtied.
#[derive(Debug, Clone, Default)]
pub struct WriteSet {
    /// Highest version ever assigned per page (monotone, never reset).
    versions: Vec<u64>,
    /// Dirty pages whose latest version is not yet in any batch: one bit
    /// per page, 64 pages per word.
    dirty: Vec<u64>,
    /// Number of bits set in `dirty`.
    dirty_count: usize,
    /// Sent-but-unacked batches, ascending by sequence number.
    pending: Vec<(u64, Vec<(PageId, u64)>)>,
    next_seq: u64,
    /// Accumulated counters.
    pub counters: WriteSetCounters,
}

impl WriteSet {
    /// An empty write-set.
    pub fn new() -> Self {
        WriteSet::default()
    }

    /// Notes one dirtying store to `page`. The first store since the last
    /// flush bumps the page's version; a store while that version is
    /// already batched (in flight) bumps again — the page must travel
    /// twice, once per version.
    pub fn note_write(&mut self, page: PageId) {
        self.counters.writes_noted += 1;
        let i = page.index() as usize;
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if word >= self.dirty.len() {
            self.dirty.resize(word + 1, 0);
        }
        if self.dirty[word] & bit != 0 {
            // Latest version not yet batched; nothing new to flush.
            return;
        }
        if i >= self.versions.len() {
            self.versions.resize(i + 1, 0);
        }
        let prior = self.versions[i];
        if prior > 0 && self.in_flight(page) {
            self.counters.redirties += 1;
        }
        self.versions[i] = prior + 1;
        self.dirty[word] |= bit;
        self.dirty_count += 1;
    }

    fn in_flight(&self, page: PageId) -> bool {
        self.pending
            .iter()
            .any(|(_, entries)| entries.iter().any(|&(p, _)| p == page))
    }

    /// The position of pending batch `seq`.
    fn pending_index(&self, seq: u64) -> Option<usize> {
        self.pending.binary_search_by_key(&seq, |&(s, _)| s).ok()
    }

    /// Builds the next delta batch of at most `max_pages` dirty pages
    /// (lowest page ids first, deterministic). Returns `None` when nothing
    /// is dirty; otherwise the batch is recorded as pending under the
    /// returned sequence number until [`WriteSet::on_ack`].
    pub fn build_batch(&mut self, max_pages: usize) -> Option<(u64, Vec<(PageId, u64)>)> {
        let mut entries = Vec::new();
        let seq = self.fill_batch(max_pages, &mut entries)?;
        self.pending.push((seq, entries.clone()));
        Some((seq, entries))
    }

    /// [`Self::build_batch`] into `entries` (cleared first), for a carrier
    /// that acknowledges each batch before the next store: the batch
    /// counts as built and acknowledged at once, and no pending copy is
    /// kept, so [`Self::on_ack`] and [`Self::take_for_retry`] never see
    /// it. Returns the batch's sequence number, or `None` when nothing is
    /// dirty.
    pub fn build_acked_batch(
        &mut self,
        max_pages: usize,
        entries: &mut Vec<(PageId, u64)>,
    ) -> Option<u64> {
        let seq = self.fill_batch(max_pages, entries)?;
        self.counters.acks += 1;
        Some(seq)
    }

    /// Moves up to `max_pages` dirty pages, lowest first, with their
    /// versions into `entries` (cleared first) and numbers the batch.
    fn fill_batch(&mut self, max_pages: usize, entries: &mut Vec<(PageId, u64)>) -> Option<u64> {
        entries.clear();
        if self.dirty_count == 0 || max_pages == 0 {
            return None;
        }
        let take = max_pages.min(self.dirty_count);
        entries.reserve(take);
        let mut word = 0;
        while entries.len() < take {
            let bits = self.dirty[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            let i = word * 64 + bits.trailing_zeros() as usize;
            self.dirty[word] = bits & (bits - 1);
            entries.push((PageId(i as u64), self.versions[i]));
        }
        self.dirty_count -= take;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counters.batches_built += 1;
        self.counters.pages_flushed += take as u64;
        Some(seq)
    }

    /// Acknowledges batch `seq`; unknown sequence numbers (a duplicate
    /// ack) are ignored.
    pub fn on_ack(&mut self, seq: u64) {
        if let Some(at) = self.pending_index(seq) {
            self.pending.remove(at);
            self.counters.acks += 1;
        }
    }

    /// Hands back the pending batch `seq` for retransmission (a lost
    /// batch or a lost ack — the sink dedups either way).
    pub fn take_for_retry(&mut self, seq: u64) -> Option<Vec<(PageId, u64)>> {
        let entries = self.pending[self.pending_index(seq)?].1.clone();
        self.counters.retransmits += 1;
        self.counters.pages_flushed += entries.len() as u64;
        Some(entries)
    }

    /// Sequence numbers of every sent-but-unacked batch, ascending.
    pub fn pending_seqs(&self) -> Vec<u64> {
        self.pending.iter().map(|&(s, _)| s).collect()
    }

    /// True when every dirtied page has been batched *and* acknowledged.
    pub fn is_drained(&self) -> bool {
        self.dirty_count == 0 && self.pending.is_empty()
    }

    /// Pages currently dirty and not yet batched.
    pub fn dirty_len(&self) -> usize {
        self.dirty_count
    }

    /// The version high-water mark of every page ever dirtied, in
    /// ascending page order.
    pub fn versions(&self) -> impl Iterator<Item = (PageId, u64)> + '_ {
        self.versions
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .map(|(i, &v)| (PageId(i as u64), v))
    }

    /// Number of distinct pages ever dirtied.
    pub fn pages_dirtied(&self) -> u64 {
        self.versions().count() as u64
    }
}

/// Plain counters a [`WritebackSink`] accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkCounters {
    /// Batches applied (at least one fresh page).
    pub batches_applied: u64,
    /// Whole batches recognised as retransmits by sequence number.
    pub duplicate_batches: u64,
    /// Page entries skipped by the version compare.
    pub duplicate_pages: u64,
    /// Page entries actually applied.
    pub pages_applied: u64,
    /// Sink restarts survived (seen-sequence state lost).
    pub restarts: u64,
}

/// What [`WritebackSink::apply_batch`] did with one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Entries newly applied.
    pub applied: u32,
    /// Entries skipped as duplicates (batch- or version-level).
    pub duplicates: u32,
}

/// A set of sequence numbers held as disjoint, non-adjacent inclusive
/// runs `first..=last`, keyed by `first`: an in-order stream of any
/// length is one run. Inclusive ends let a run reach `u64::MAX`.
#[derive(Debug, Clone, Default)]
struct SeqRuns {
    runs: BTreeMap<u64, u64>,
}

impl SeqRuns {
    /// Adds `seq`, merging it into the runs it touches; `false` when it
    /// was already present.
    fn insert(&mut self, seq: u64) -> bool {
        let below = self.runs.range(..=seq).next_back().map(|(&f, &l)| (f, l));
        let first = match below {
            Some((_, last)) if last >= seq => return false,
            // `last < seq`, so `last + 1` cannot overflow.
            Some((first, last)) if last + 1 == seq => first,
            _ => seq,
        };
        // Runs are non-adjacent, so only a run starting at `seq + 1` can
        // join from above.
        let last = seq
            .checked_add(1)
            .and_then(|next| self.runs.remove(&next))
            .unwrap_or(seq);
        self.runs.insert(first, last);
        true
    }
}

/// The deputy-side sink: applies writeback batches idempotently.
#[derive(Debug, Clone, Default)]
pub struct WritebackSink {
    /// Highest version applied per page — the durable store; survives
    /// restarts exactly like the home node's page frames do.
    applied: BTreeMap<PageId, u64>,
    /// Sequence numbers applied since the last restart — volatile. Held
    /// as runs, so a session's in-order writer costs one entry however
    /// long it lives.
    seen_seqs: SeqRuns,
    /// Accumulated counters.
    pub counters: SinkCounters,
}

impl WritebackSink {
    /// An empty sink.
    pub fn new() -> Self {
        WritebackSink::default()
    }

    /// Applies one batch. Duplicate sequence numbers re-ack without
    /// reapplying; within a fresh batch, entries whose version the store
    /// already holds are skipped (the post-restart replay path).
    pub fn apply_batch(&mut self, seq: u64, entries: &[(PageId, u64)]) -> ApplyOutcome {
        if !self.seen_seqs.insert(seq) {
            self.counters.duplicate_batches += 1;
            return ApplyOutcome {
                applied: 0,
                duplicates: entries.len() as u32,
            };
        }
        let mut out = ApplyOutcome {
            applied: 0,
            duplicates: 0,
        };
        for &(page, version) in entries {
            let have = self.applied.get(&page).copied().unwrap_or(0);
            if have >= version {
                self.counters.duplicate_pages += 1;
                out.duplicates += 1;
            } else {
                self.applied.insert(page, version);
                self.counters.pages_applied += 1;
                out.applied += 1;
            }
        }
        if out.applied > 0 {
            self.counters.batches_applied += 1;
        }
        out
    }

    /// A deputy restart: the volatile seen-sequence set is lost, the
    /// applied store (real page frames) survives.
    pub fn restart(&mut self) {
        self.seen_seqs.runs.clear();
        self.counters.restarts += 1;
    }

    /// Highest version applied for `page`, or 0 if never written back.
    pub fn applied_version(&self, page: PageId) -> u64 {
        self.applied.get(&page).copied().unwrap_or(0)
    }

    /// Number of distinct pages ever written back.
    pub fn pages_written_back(&self) -> u64 {
        self.applied.len() as u64
    }

    /// The applied store: page → highest version.
    pub fn applied(&self) -> &BTreeMap<PageId, u64> {
        &self.applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_sim::propcheck::forall;
    use std::collections::BTreeSet;

    #[test]
    fn versions_are_monotone_and_redirty_forces_a_second_flush() {
        let mut ws = WriteSet::new();
        ws.note_write(PageId(3));
        ws.note_write(PageId(3)); // still dirty, same version
        let (seq, entries) = ws.build_batch(8).expect("dirty page batches");
        assert_eq!(entries, vec![(PageId(3), 1)]);
        // Redirty while version 1 is in flight.
        ws.note_write(PageId(3));
        assert_eq!(ws.counters.redirties, 1);
        ws.on_ack(seq);
        let (_, entries) = ws.build_batch(8).expect("redirty batches again");
        assert_eq!(entries, vec![(PageId(3), 2)]);
        assert!(!ws.is_drained(), "second batch unacked");
    }

    #[test]
    fn batches_respect_the_page_cap_and_drain_in_order() {
        let mut ws = WriteSet::new();
        for p in 0..10 {
            ws.note_write(PageId(p));
        }
        let (s0, b0) = ws.build_batch(4).unwrap();
        let (s1, b1) = ws.build_batch(4).unwrap();
        let (s2, b2) = ws.build_batch(4).unwrap();
        assert_eq!((b0.len(), b1.len(), b2.len()), (4, 4, 2));
        assert!(ws.build_batch(4).is_none(), "nothing left to batch");
        assert_eq!(b0[0].0, PageId(0), "lowest pages first");
        for s in [s0, s1, s2] {
            ws.on_ack(s);
        }
        assert!(ws.is_drained());
        assert_eq!(ws.counters.pages_flushed, 10);
    }

    #[test]
    fn sink_dedups_by_sequence_and_by_version() {
        let mut sink = WritebackSink::new();
        let batch = [(PageId(1), 1), (PageId(2), 1)];
        let first = sink.apply_batch(7, &batch);
        assert_eq!((first.applied, first.duplicates), (2, 0));
        // Retransmit of the same seq: batch-level dedup.
        let again = sink.apply_batch(7, &batch);
        assert_eq!((again.applied, again.duplicates), (0, 2));
        assert_eq!(sink.counters.duplicate_batches, 1);
        // Restart loses the seen set; the version compare still refuses.
        sink.restart();
        let replay = sink.apply_batch(7, &batch);
        assert_eq!((replay.applied, replay.duplicates), (0, 2));
        assert_eq!(sink.counters.duplicate_pages, 2);
        // A genuinely newer version still lands after all that.
        let newer = sink.apply_batch(8, &[(PageId(1), 2)]);
        assert_eq!((newer.applied, newer.duplicates), (1, 0));
        assert_eq!(sink.applied_version(PageId(1)), 2);
        assert_eq!(sink.pages_written_back(), 2);
    }

    #[test]
    fn retry_rebuilds_the_pending_batch_verbatim() {
        let mut ws = WriteSet::new();
        ws.note_write(PageId(5));
        let (seq, entries) = ws.build_batch(8).unwrap();
        let retry = ws.take_for_retry(seq).expect("pending batch");
        assert_eq!(retry, entries);
        assert_eq!(ws.counters.retransmits, 1);
        assert_eq!(ws.pending_seqs(), vec![seq]);
        ws.on_ack(seq);
        assert!(ws.take_for_retry(seq).is_none(), "acked batch is gone");
        assert!(ws.is_drained());
    }

    /// The sink as it was with a `BTreeSet` of every applied sequence
    /// number: the reference the run-set sink must match.
    #[derive(Default)]
    struct ReferenceSink {
        applied: BTreeMap<PageId, u64>,
        seen: BTreeSet<u64>,
        counters: SinkCounters,
    }

    impl ReferenceSink {
        fn apply_batch(&mut self, seq: u64, entries: &[(PageId, u64)]) -> ApplyOutcome {
            if !self.seen.insert(seq) {
                self.counters.duplicate_batches += 1;
                return ApplyOutcome {
                    applied: 0,
                    duplicates: entries.len() as u32,
                };
            }
            let mut out = ApplyOutcome {
                applied: 0,
                duplicates: 0,
            };
            for &(page, version) in entries {
                if self.applied.get(&page).copied().unwrap_or(0) >= version {
                    self.counters.duplicate_pages += 1;
                    out.duplicates += 1;
                } else {
                    self.applied.insert(page, version);
                    self.counters.pages_applied += 1;
                    out.applied += 1;
                }
            }
            if out.applied > 0 {
                self.counters.batches_applied += 1;
            }
            out
        }

        fn restart(&mut self) {
            self.seen.clear();
            self.counters.restarts += 1;
        }
    }

    /// The runs are sorted, disjoint and non-adjacent, and hold exactly
    /// `expected`.
    fn assert_runs_hold(runs: &SeqRuns, expected: &BTreeSet<u64>) {
        let pairs: Vec<(u64, u64)> = runs.runs.iter().map(|(&f, &l)| (f, l)).collect();
        for &(first, last) in &pairs {
            assert!(first <= last, "empty run {first}..={last}");
        }
        for w in pairs.windows(2) {
            let (last, next_first) = (w[0].1, w[1].0);
            assert!(
                last.checked_add(1).is_some_and(|n| n < next_first),
                "runs {:?} and {:?} touch",
                w[0],
                w[1]
            );
        }
        let held: BTreeSet<u64> = pairs.iter().flat_map(|&(f, l)| f..=l).collect();
        assert_eq!(&held, expected);
    }

    #[test]
    fn seen_runs_match_a_set_of_every_sequence_number() {
        forall("sink-seq-runs", 400, |g| {
            let mut sink = WritebackSink::new();
            let mut reference = ReferenceSink::default();
            let mut next = if g.bool(0.4) {
                u64::MAX - g.u64(0..40)
            } else {
                g.u64(0..1_000)
            };
            let mut used: Vec<u64> = Vec::new();
            for _ in 0..g.usize(1..200) {
                if g.bool(0.04) {
                    sink.restart();
                    reference.restart();
                    continue;
                }
                let seq = match g.u64(0..10) {
                    // An in-order run.
                    0..=4 => {
                        next = next.wrapping_add(1);
                        next
                    }
                    // A retransmit.
                    5 if !used.is_empty() => *g.choose(&used),
                    // A gap.
                    6 => {
                        next = next.wrapping_add(g.u64(2..10));
                        next
                    }
                    // Reordered around the cursor.
                    7 => next.wrapping_add(g.u64(1..8)),
                    8 => next.wrapping_sub(g.u64(0..8)),
                    _ => u64::MAX - g.u64(0..4),
                };
                used.push(seq);
                let entries = g.vec(0..5, |g| (PageId(g.u64(0..16)), g.u64(1..6)));
                let got = sink.apply_batch(seq, &entries);
                assert_eq!(got, reference.apply_batch(seq, &entries), "seq {seq}");
                assert_eq!(sink.counters, reference.counters, "seq {seq}");
                assert_runs_hold(&sink.seen_seqs, &reference.seen);
            }
            assert_eq!(sink.applied(), &reference.applied);
        });
    }

    #[test]
    fn an_in_order_writer_keeps_one_run() {
        let mut sink = WritebackSink::new();
        for seq in 1..=100_000u64 {
            let outcome = sink.apply_batch(seq, &[(PageId(seq % 64), seq)]);
            assert_eq!(outcome.applied, 1);
        }
        assert_eq!(sink.seen_seqs.runs.len(), 1);
        assert_eq!(sink.apply_batch(50_000, &[(PageId(0), 1)]).duplicates, 1);
        assert_eq!(sink.counters.duplicate_batches, 1);
        sink.restart();
        assert!(
            sink.seen_seqs.runs.is_empty(),
            "a restart forgets every run"
        );
    }

    #[test]
    fn runs_reach_u64_max_without_wrapping() {
        let mut runs = SeqRuns::default();
        assert!(runs.insert(u64::MAX));
        assert!(runs.insert(u64::MAX - 1));
        assert!(runs.insert(0), "0 does not join a run ending at u64::MAX");
        assert!(!runs.insert(u64::MAX));
        let expected = BTreeSet::from([0, u64::MAX - 1, u64::MAX]);
        assert_runs_hold(&runs, &expected);
        assert_eq!(runs.runs.len(), 2);
    }
}
