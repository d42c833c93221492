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
    /// Delta batches built.
    pub batches_built: u64,
    /// Page entries across all built batches.
    pub pages_flushed: u64,
}

/// The migrant-side write-set: dirty pages awaiting writeback and
/// per-page version counters.
///
/// Per-page state is indexed by page number, like the page tables: a
/// version array (0 for a page never dirtied) and a dirty bitset, both
/// grown on demand to the highest page dirtied.
///
/// The write-set keeps no copy of a batch once built: its carrier
/// settles each batch before the next store, resending it as often as
/// the link demands (the simulated transport resolves a batch's whole
/// fate chain when it sends it; the live client waits for the ack).
#[derive(Debug, Clone, Default)]
pub struct WriteSet {
    /// Highest version ever assigned per page (monotone, never reset).
    versions: Vec<u64>,
    /// Dirty pages whose latest version is not yet in any batch: one bit
    /// per page, 64 pages per word.
    dirty: Vec<u64>,
    /// Number of bits set in `dirty`.
    dirty_count: usize,
    next_seq: u64,
    /// Accumulated counters.
    pub counters: WriteSetCounters,
}

impl WriteSet {
    /// An empty write-set.
    pub fn new() -> Self {
        WriteSet::default()
    }

    /// Notes one dirtying store to `page`. The first store since the
    /// page was last batched bumps its version, so a page dirtied again
    /// after a flush travels again, once per version.
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
        self.versions[i] += 1;
        self.dirty[word] |= bit;
        self.dirty_count += 1;
    }

    /// Builds the next delta batch into `entries` (cleared first): at
    /// most `max_pages` dirty pages, lowest page ids first, with their
    /// versions. The batch counts as acknowledged once built, since its
    /// carrier settles it before the next store. Returns the batch's
    /// sequence number, or `None` when nothing is dirty.
    pub fn build_acked_batch(
        &mut self,
        max_pages: usize,
        entries: &mut Vec<(PageId, u64)>,
    ) -> Option<u64> {
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
        let mut batch = Vec::new();
        ws.note_write(PageId(3));
        ws.note_write(PageId(3)); // still dirty, same version
        ws.build_acked_batch(8, &mut batch)
            .expect("dirty page batches");
        assert_eq!(batch, vec![(PageId(3), 1)]);
        // Redirtied after the flush: the page travels again.
        ws.note_write(PageId(3));
        assert_eq!(ws.dirty_len(), 1);
        ws.build_acked_batch(8, &mut batch)
            .expect("redirty batches again");
        assert_eq!(batch, vec![(PageId(3), 2)]);
        assert_eq!(ws.dirty_len(), 0);
        assert_eq!(ws.counters.writes_noted, 3);
    }

    #[test]
    fn batches_respect_the_page_cap_and_drain_in_order() {
        let mut ws = WriteSet::new();
        for p in 0..10 {
            ws.note_write(PageId(p));
        }
        let mut lens = Vec::new();
        let mut first = None;
        let mut batch = Vec::new();
        while let Some(seq) = ws.build_acked_batch(4, &mut batch) {
            assert_eq!(seq, lens.len() as u64, "sequence numbers count up");
            first.get_or_insert(batch[0].0);
            lens.push(batch.len());
        }
        assert_eq!(lens, vec![4, 4, 2]);
        assert!(batch.is_empty(), "nothing left to batch");
        assert_eq!(first, Some(PageId(0)), "lowest pages first");
        assert_eq!(ws.dirty_len(), 0);
        assert_eq!(ws.counters.pages_flushed, 10);
        assert_eq!(ws.counters.batches_built, 3);
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
