//! `Workload::next_block` against `Iterator::next`, for every workload in
//! the crate: draining by blocks of any size yields exactly the stream
//! draining one reference at a time does, a call appends at most its
//! `max`, and a call appends nothing only once the stream is done, as
//! does every later call.

use ampom_mem::PAGE_SIZE;
use ampom_sim::rng::SimRng;
use ampom_sim::time::SimDuration;
use ampom_workloads::churn::BurstyChurn;
use ampom_workloads::compose::{Concat, Repeat, Scaled, Skip};
use ampom_workloads::dgemm::{Dgemm, DgemmSmallWs};
use ampom_workloads::fft::Fft;
use ampom_workloads::hpl::Hpl;
use ampom_workloads::interactive::Interactive;
use ampom_workloads::pointer_chase::PointerChase;
use ampom_workloads::ptrans::Ptrans;
use ampom_workloads::random_access::RandomAccess;
use ampom_workloads::stream_kernel::StreamKernel;
use ampom_workloads::synthetic::{
    Interleaved, Scripted, Sequential, SequentialWrite, Strided, UniformRandom,
};
use ampom_workloads::trace_io::Replay;
use ampom_workloads::zipf::ZipfianKv;
use ampom_workloads::{MemRef, Workload};

const MB: u64 = 1 << 20;
const CPU: SimDuration = SimDuration::from_micros(10);

/// Builds a fresh instance; two calls yield identical streams.
type Build = Box<dyn Fn() -> Box<dyn Workload>>;

fn rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// Every `Workload` implementation in the crate, each small enough to
/// drain many times but longer than the largest fixed block size.
fn every_workload() -> Vec<(&'static str, Build)> {
    let sequential = || Box::new(Sequential::new(300, CPU)) as Box<dyn Workload>;
    let random = || Box::new(RandomAccess::new(MB, rng(3))) as Box<dyn Workload>;
    let scripted: Vec<u64> = (0..600).map(|i| (i * 37) % 97).collect();
    let traced: Vec<MemRef> = Sequential::new(400, CPU)
        .chain(Strided::new(400, 3, CPU))
        .collect();
    vec![
        ("Dgemm", Box::new(|| Box::new(Dgemm::new(MB)))),
        ("StreamKernel", Box::new(|| Box::new(StreamKernel::new(MB)))),
        ("RandomAccess", Box::new(random)),
        ("Fft", Box::new(|| Box::new(Fft::new(MB, rng(5))))),
        (
            "DgemmSmallWs",
            Box::new(|| Box::new(DgemmSmallWs::new(2 * MB, MB))),
        ),
        ("Ptrans", Box::new(|| Box::new(Ptrans::new(2 * MB)))),
        ("Hpl", Box::new(|| Box::new(Hpl::new(MB)))),
        (
            "Interactive",
            Box::new(|| {
                Box::new(Interactive::new(
                    MB,
                    10,
                    40,
                    SimDuration::from_millis(100),
                    rng(7),
                ))
            }),
        ),
        (
            "Replay",
            Box::new(move || Box::new(Replay::new(400 * PAGE_SIZE, traced.clone()))),
        ),
        ("Sequential", Box::new(sequential)),
        (
            "SequentialWrite",
            Box::new(|| Box::new(SequentialWrite::new(300, CPU))),
        ),
        (
            "Interleaved",
            Box::new(|| Box::new(Interleaved::new(3, 150, CPU))),
        ),
        ("Strided", Box::new(|| Box::new(Strided::new(900, 4, CPU)))),
        (
            "UniformRandom",
            Box::new(|| Box::new(UniformRandom::new(200, 700, CPU, rng(11)))),
        ),
        (
            "Scripted",
            Box::new(move || Box::new(Scripted::new(97, &scripted, CPU))),
        ),
        (
            "PointerChase",
            Box::new(|| Box::new(PointerChase::new(MB, 900, rng(13)))),
        ),
        (
            "ZipfianKv",
            Box::new(|| Box::new(ZipfianKv::new(MB, 64, 0.9, 800, rng(17)))),
        ),
        (
            "BurstyChurn",
            Box::new(|| {
                Box::new(BurstyChurn::new(
                    MB,
                    4,
                    24,
                    150,
                    40,
                    SimDuration::from_millis(50),
                    rng(19),
                ))
            }),
        ),
        (
            "Concat",
            Box::new(move || Box::new(Concat::new(vec![sequential(), random(), sequential()]))),
        ),
        (
            "Repeat",
            Box::new(move || Box::new(Repeat::new(sequential(), 3))),
        ),
        ("Skip", Box::new(move || Box::new(Skip::new(random(), 123)))),
        (
            "Scaled",
            Box::new(move || Box::new(Scaled::new(sequential(), 2.5))),
        ),
    ]
}

/// Drains `w` by `next_block` calls of the sizes `size` returns (each at
/// least 1) into a buffer that already holds a sentinel, checks every
/// call against the contract, and returns what the calls appended.
fn drain_by_blocks(
    name: &str,
    w: &mut dyn Workload,
    expected: usize,
    mut size: impl FnMut() -> usize,
) -> Vec<MemRef> {
    let sentinel = MemRef::read(ampom_mem::page::PageId(u64::MAX), CPU);
    let mut out = vec![sentinel];
    loop {
        let max = size();
        let before = out.len();
        w.next_block(&mut out, max);
        let added = out.len() - before;
        assert!(added <= max, "{name}: appended {added} with max {max}");
        if added == 0 {
            let got = out.len() - 1;
            assert_eq!(
                got, expected,
                "{name}: a call with max {max} appended nothing after {got} of {expected} refs"
            );
            for max in [1, 2, 256, 1000] {
                w.next_block(&mut out, max);
                assert_eq!(out.len() - 1, expected, "{name}: appended after the end");
            }
            break;
        }
    }
    assert_eq!(out[0], sentinel, "{name}: next_block overwrote the buffer");
    out.split_off(1)
}

#[test]
fn block_pull_equals_the_iterator_for_every_workload() {
    let mut sizes = rng(2024);
    for (name, build) in every_workload() {
        let by_next: Vec<MemRef> = build().collect();
        assert!(
            by_next.len() > 257,
            "{name}: {} refs is too short to span blocks",
            by_next.len()
        );
        for fixed in [1, 2, 7, 255, 256, 257] {
            let got = drain_by_blocks(name, build().as_mut(), by_next.len(), || fixed);
            assert!(got == by_next, "{name}: blocks of {fixed} differ");
        }
        for round in 0..4 {
            // Sizes around the loop's block, and small odd ones.
            let hi = if round % 2 == 0 { 600 } else { 9 };
            let got = drain_by_blocks(name, build().as_mut(), by_next.len(), || {
                1 + sizes.below(hi) as usize
            });
            assert!(
                got == by_next,
                "{name}: random blocks (round {round}) differ"
            );
        }
    }
}

#[test]
fn a_block_pull_after_single_steps_continues_the_stream() {
    for (name, build) in every_workload() {
        let by_next: Vec<MemRef> = build().collect();
        let mut w = build();
        let mut got: Vec<MemRef> = w.by_ref().take(5).collect();
        let rest = drain_by_blocks(name, w.as_mut(), by_next.len() - got.len(), || 256);
        got.extend(rest);
        assert!(got == by_next, "{name}: mixed next/next_block differs");
    }
}
