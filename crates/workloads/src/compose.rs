//! Workload combinators.
//!
//! Real processes have phases: an interactive warm-up, a compute burst, a
//! scan, idle periods. These adapters compose the primitive workloads
//! into such lifecycles while preserving the [`Workload`] contract
//! (deterministic streams, exact `total_refs_hint`, references inside the
//! layout):
//!
//! * [`Concat`] — run several workloads one after another in a shared
//!   address space (each gets its own slice, like a program moving
//!   between data structures),
//! * [`Repeat`] — loop one workload's reference stream `n` times
//!   (steady-state services re-enter their main loop),
//! * [`Scaled`] — multiply every touch's CPU cost (model a slower or
//!   faster machine without re-deriving a generator),
//! * [`Skip`] and [`Prefix`] — the tail and the head of a stream (a
//!   process migrated mid-execution; one called home partway).

use ampom_mem::page::PageId;
use ampom_mem::region::MemoryLayout;
use ampom_sim::time::SimDuration;

use crate::memref::{MemRef, Workload};

/// Several workloads executed back to back, each in its own slice of a
/// shared data region.
pub struct Concat {
    layout: MemoryLayout,
    parts: Vec<(Box<dyn Workload>, u64)>, // (workload, page offset)
    current: usize,
    total_refs: u64,
    data_bytes: u64,
}

impl Concat {
    /// Concatenates `parts` into one address space.
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn new(parts: Vec<Box<dyn Workload>>) -> Self {
        assert!(!parts.is_empty(), "Concat of nothing");
        let data_bytes: u64 = parts.iter().map(|w| w.data_bytes()).sum();
        let layout = MemoryLayout::with_data_bytes(data_bytes);
        let mut offset = layout.data_start().index();
        let mut placed = Vec::new();
        let mut total_refs = 0;
        for w in parts {
            let guest_start = w.layout().data_start().index();
            total_refs += w.total_refs_hint();
            let pages = w.data_bytes().div_ceil(ampom_mem::PAGE_SIZE);
            placed.push((w, offset - guest_start));
            offset += pages;
        }
        Concat {
            layout,
            parts: placed,
            current: 0,
            total_refs,
            data_bytes,
        }
    }
}

impl Iterator for Concat {
    type Item = MemRef;
    fn next(&mut self) -> Option<MemRef> {
        while self.current < self.parts.len() {
            let (w, offset) = &mut self.parts[self.current];
            if let Some(r) = w.next() {
                return Some(MemRef {
                    page: PageId(r.page.index() + *offset),
                    ..r
                });
            }
            self.current += 1;
        }
        None
    }
}

impl Workload for Concat {
    fn name(&self) -> &'static str {
        "Concat"
    }
    fn layout(&self) -> &MemoryLayout {
        &self.layout
    }
    fn data_bytes(&self) -> u64 {
        self.data_bytes
    }
    fn allocation_pages(&self) -> Vec<PageId> {
        let mut pages = Vec::new();
        for (w, offset) in &self.parts {
            for p in w.allocation_pages() {
                pages.push(PageId(p.index() + offset));
            }
        }
        pages
    }
    fn total_refs_hint(&self) -> u64 {
        self.total_refs
    }
}

/// One workload's reference stream, looped `n` times. The stream is
/// materialised on first pass so later passes replay it exactly.
pub struct Repeat {
    layout: MemoryLayout,
    data_bytes: u64,
    refs: Vec<MemRef>,
    passes: u32,
    pass: u32,
    index: usize,
}

impl Repeat {
    /// Loops `inner`'s stream `passes` times.
    ///
    /// # Panics
    /// Panics if `passes` is zero.
    pub fn new(mut inner: Box<dyn Workload>, passes: u32) -> Self {
        assert!(passes > 0, "Repeat zero times");
        let layout = inner.layout().clone();
        let data_bytes = inner.data_bytes();
        let refs: Vec<MemRef> = inner.by_ref().collect();
        Repeat {
            layout,
            data_bytes,
            refs,
            passes,
            pass: 0,
            index: 0,
        }
    }
}

impl Iterator for Repeat {
    type Item = MemRef;
    fn next(&mut self) -> Option<MemRef> {
        if self.pass >= self.passes {
            return None;
        }
        let r = self.refs.get(self.index).copied();
        match r {
            Some(r) => {
                self.index += 1;
                if self.index == self.refs.len() {
                    self.index = 0;
                    self.pass += 1;
                }
                Some(r)
            }
            None => None, // inner stream was empty
        }
    }
}

impl Workload for Repeat {
    fn name(&self) -> &'static str {
        "Repeat"
    }
    fn layout(&self) -> &MemoryLayout {
        &self.layout
    }
    fn data_bytes(&self) -> u64 {
        self.data_bytes
    }
    fn total_refs_hint(&self) -> u64 {
        self.refs.len() as u64 * self.passes as u64
    }
}

/// The tail of a workload: the first `skip` references are consumed at
/// construction (their total CPU is reported via [`Skip::skipped_cpu`]),
/// and the stream resumes from reference `skip`. Used to model a process
/// migrated *mid-execution* rather than right after allocation.
pub struct Skip {
    inner: Box<dyn Workload>,
    skipped: u64,
    skipped_cpu: SimDuration,
    last_skipped: Option<PageId>,
}

impl Skip {
    /// Consumes the first `skip` references of `inner`.
    pub fn new(mut inner: Box<dyn Workload>, skip: u64) -> Self {
        let mut skipped_cpu = SimDuration::ZERO;
        let mut last = None;
        let mut n = 0;
        for _ in 0..skip {
            match inner.next() {
                Some(r) => {
                    skipped_cpu += r.cpu;
                    last = Some(r.page);
                    n += 1;
                }
                None => break,
            }
        }
        Skip {
            inner,
            skipped: n,
            skipped_cpu,
            last_skipped: last,
        }
    }

    /// CPU the skipped prefix would have consumed (the pre-migration
    /// execution time at the home node).
    pub fn skipped_cpu(&self) -> SimDuration {
        self.skipped_cpu
    }

    /// How many references were actually skipped.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The last page the skipped prefix touched (the "currently accessed"
    /// data page at migration time).
    pub fn last_skipped_page(&self) -> Option<PageId> {
        self.last_skipped
    }
}

impl Iterator for Skip {
    type Item = MemRef;
    fn next(&mut self) -> Option<MemRef> {
        self.inner.next()
    }
}

impl Workload for Skip {
    fn name(&self) -> &'static str {
        "Skip"
    }
    fn layout(&self) -> &MemoryLayout {
        self.inner.layout()
    }
    fn data_bytes(&self) -> u64 {
        self.inner.data_bytes()
    }
    fn allocation_pages(&self) -> Vec<PageId> {
        self.inner.allocation_pages()
    }
    fn total_refs_hint(&self) -> u64 {
        self.inner.total_refs_hint().saturating_sub(self.skipped)
    }
}

/// The head of a workload: at most its first `n` references, pulled from
/// a workload the caller keeps, which then resumes at reference `n`.
/// Used to run a process for part of its stream before it is called
/// home. It reports the inner workload's name, layout and allocation.
pub struct Prefix<'a, W: ?Sized> {
    inner: &'a mut W,
    remaining: u64,
}

impl<'a, W: Workload + ?Sized> Prefix<'a, W> {
    /// The first `n` references of `inner`.
    pub fn new(inner: &'a mut W, n: u64) -> Self {
        Prefix {
            inner,
            remaining: n,
        }
    }
}

impl<W: Workload + ?Sized> Iterator for Prefix<'_, W> {
    type Item = MemRef;
    fn next(&mut self) -> Option<MemRef> {
        if self.remaining == 0 {
            return None;
        }
        let r = self.inner.next()?;
        self.remaining -= 1;
        Some(r)
    }
}

impl<W: Workload + ?Sized> Workload for Prefix<'_, W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn layout(&self) -> &MemoryLayout {
        self.inner.layout()
    }
    fn data_bytes(&self) -> u64 {
        self.inner.data_bytes()
    }
    fn allocation_pages(&self) -> Vec<PageId> {
        self.inner.allocation_pages()
    }
    fn total_refs_hint(&self) -> u64 {
        self.inner.total_refs_hint().min(self.remaining)
    }
    fn next_block(&mut self, out: &mut Vec<MemRef>, max: usize) {
        let before = out.len();
        let max = usize::try_from(self.remaining).map_or(max, |left| max.min(left));
        self.inner.next_block(out, max);
        self.remaining -= (out.len() - before) as u64;
    }
}

/// A workload with every touch's CPU cost multiplied by a fixed factor.
pub struct Scaled {
    inner: Box<dyn Workload>,
    factor: f64,
}

impl Scaled {
    /// Scales `inner`'s per-touch CPU by `factor` (> 0).
    pub fn new(inner: Box<dyn Workload>, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite());
        Scaled { inner, factor }
    }
}

impl Iterator for Scaled {
    type Item = MemRef;
    fn next(&mut self) -> Option<MemRef> {
        self.inner.next().map(|r| MemRef {
            cpu: SimDuration::from_secs_f64(r.cpu.as_secs_f64() * self.factor),
            ..r
        })
    }
}

impl Workload for Scaled {
    fn name(&self) -> &'static str {
        "Scaled"
    }
    fn layout(&self) -> &MemoryLayout {
        self.inner.layout()
    }
    fn data_bytes(&self) -> u64 {
        self.inner.data_bytes()
    }
    fn allocation_pages(&self) -> Vec<PageId> {
        self.inner.allocation_pages()
    }
    fn total_refs_hint(&self) -> u64 {
        self.inner.total_refs_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memref::testutil::check_stream_invariants;
    use crate::synthetic::{Sequential, UniformRandom};
    use ampom_sim::rng::SimRng;

    const CPU: SimDuration = SimDuration::from_micros(10);

    #[test]
    fn concat_runs_parts_in_order_in_disjoint_slices() {
        let c = Concat::new(vec![
            Box::new(Sequential::new(16, CPU)),
            Box::new(Sequential::new(8, CPU)),
        ]);
        let refs = check_stream_invariants(c);
        assert_eq!(refs.len(), 24);
        // The second part's pages come after the first's.
        let first_max = refs[..16].iter().map(|r| r.page).max().unwrap();
        let second_min = refs[16..].iter().map(|r| r.page).min().unwrap();
        assert!(second_min > first_max);
    }

    #[test]
    fn concat_allocation_covers_all_parts() {
        let c = Concat::new(vec![
            Box::new(Sequential::new(10, CPU)),
            Box::new(UniformRandom::new(10, 5, CPU, SimRng::seed_from_u64(1))),
        ]);
        assert_eq!(c.allocation_pages().len(), 20);
    }

    #[test]
    fn repeat_replays_exactly() {
        let r = Repeat::new(Box::new(Sequential::new(8, CPU)), 3);
        let refs = check_stream_invariants(r);
        assert_eq!(refs.len(), 24);
        assert_eq!(refs[..8], refs[8..16]);
        assert_eq!(refs[..8], refs[16..24]);
    }

    #[test]
    fn scaled_multiplies_cpu_only() {
        let plain: Vec<_> = Sequential::new(8, CPU).collect();
        let scaled: Vec<_> = Scaled::new(Box::new(Sequential::new(8, CPU)), 2.0).collect();
        for (a, b) in plain.iter().zip(&scaled) {
            assert_eq!(a.page, b.page);
            assert_eq!(b.cpu, a.cpu * 2);
        }
    }

    #[test]
    fn combinators_nest() {
        // (sequential ×2 passes) followed by a scaled random phase.
        let w = Concat::new(vec![
            Box::new(Repeat::new(Box::new(Sequential::new(8, CPU)), 2)),
            Box::new(Scaled::new(
                Box::new(UniformRandom::new(8, 20, CPU, SimRng::seed_from_u64(2))),
                0.5,
            )),
        ]);
        let refs = check_stream_invariants(w);
        assert_eq!(refs.len(), 16 + 20);
    }

    #[test]
    fn skip_consumes_a_prefix_and_reports_it() {
        let s = Skip::new(Box::new(Sequential::new(16, CPU)), 5);
        assert_eq!(s.skipped(), 5);
        assert_eq!(s.skipped_cpu(), CPU * 5);
        assert_eq!(s.total_refs_hint(), 11);
        let last = s.last_skipped_page().unwrap();
        let refs: Vec<_> = s.collect();
        assert_eq!(refs.len(), 11);
        assert!(refs[0].page.is_succ_of(last));
    }

    #[test]
    fn skip_past_the_end_is_safe() {
        let s = Skip::new(Box::new(Sequential::new(4, CPU)), 100);
        assert_eq!(s.skipped(), 4);
        assert_eq!(s.total_refs_hint(), 0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn prefix_stops_at_n_and_leaves_the_rest() {
        let mut w = Sequential::new(20, CPU);
        let whole: Vec<_> = Sequential::new(20, CPU).collect();
        let mut head = Prefix::new(&mut w, 7);
        assert_eq!(head.total_refs_hint(), 7);
        let mut block = Vec::new();
        head.next_block(&mut block, 5);
        head.next_block(&mut block, 5);
        assert_eq!(block.len(), 7, "blocks stop at the prefix");
        head.next_block(&mut block, 5);
        assert_eq!(block.len(), 7, "and stay done");
        assert!(head.next().is_none());
        assert_eq!(block, whole[..7]);
        let tail: Vec<_> = w.collect();
        assert_eq!(tail, whole[7..], "the owner resumes at reference 7");
        // A prefix past the end is the whole stream.
        let mut short = Sequential::new(4, CPU);
        assert_eq!(Prefix::new(&mut short, 100).count(), 4);
    }

    #[test]
    #[should_panic(expected = "Concat of nothing")]
    fn empty_concat_rejected() {
        let _ = Concat::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "Repeat zero times")]
    fn zero_repeat_rejected() {
        let _ = Repeat::new(Box::new(Sequential::new(4, CPU)), 0);
    }
}
