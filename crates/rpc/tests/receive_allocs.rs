//! An allocation budget for the live receive path.
//!
//! Both ends read the socket straight into a `FrameBuffer`, and the pages
//! of a decoded `PageBatchReply` or `WritebackBatch` are views into that
//! buffer, so decoding a frame allocates its page list and nothing per
//! page. This binary counts every heap allocation (and reallocation)
//! with its own global allocator and holds a full reply batch (64 pages)
//! and `sim-paper`'s mean writeback batch (26 pages) to what a one-page
//! batch of the same type costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ampom_mem::page::PageId;
use ampom_rpc::frame::{
    encode_page_batch_reply_into, encode_writeback_batch_into, Frame, FrameBuffer, MAX_BATCH_PAGES,
};

/// Counts the calling thread's allocations, so tests running in parallel
/// do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; nothing to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: each method forwards its caller's arguments unchanged to
// `System`, which meets `GlobalAlloc`'s contract, so the caller's
// guarantees (a non-zero size, the layout a block was allocated with)
// hold for `System` too. Counting touches only a thread-local `Cell`
// with a const initialiser, which never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Frames received per measurement.
const FRAMES: u64 = 50;

/// Allocations per frame when `wire` (one encoded frame) arrives
/// `FRAMES` times over a socket-like reader and is decoded, each frame
/// dropped before the next read as both ends of the live path do. The
/// buffer's first frame (its storage growing to fit) is not counted.
fn allocations_per_frame(wire: &[u8]) -> f64 {
    let stream = wire.repeat(FRAMES as usize + 1);
    let mut sock: &[u8] = &stream;
    let mut fb = FrameBuffer::new();
    let mut receive = || loop {
        if let Some(frame) = fb.pop().expect("a valid frame") {
            return frame;
        }
        assert!(fb.fill_from(&mut sock).expect("a slice reads") > 0);
    };
    drop(receive());
    let before = allocations();
    for _ in 0..FRAMES {
        drop(receive());
    }
    (allocations() - before) as f64 / FRAMES as f64
}

fn reply_batch(pages: u64) -> Vec<u8> {
    let batch: Vec<(u64, PageId)> = (0..pages).map(|p| (1, PageId(p * 7 + 3))).collect();
    let mut wire = Vec::new();
    encode_page_batch_reply_into(&batch, &mut wire);
    wire
}

fn writeback_batch(pages: u64) -> Vec<u8> {
    let entries: Vec<(PageId, u64)> = (0..pages).map(|p| (PageId(p * 7 + 3), 2)).collect();
    let mut wire = Vec::new();
    encode_writeback_batch_into(5, &entries, &mut wire);
    wire
}

#[test]
fn decoding_a_batch_allocates_nothing_per_page() {
    let full = MAX_BATCH_PAGES as u64;
    let cases = [
        ("reply batch", reply_batch(1), reply_batch(full), full),
        (
            "writeback batch",
            writeback_batch(1),
            writeback_batch(26),
            26,
        ),
    ];
    for (what, one, many, pages) in cases {
        let (a1, an) = (allocations_per_frame(&one), allocations_per_frame(&many));
        println!("{what}: {a1} allocations a frame at 1 page, {an} at {pages} pages");
        assert!(
            an <= a1,
            "a {pages}-page {what} costs {an} allocations, a 1-page one {a1}"
        );
        assert!(an <= 1.0, "{what}: more than the page list allocated");
    }
    // A lone page reply has no list to allocate.
    let mut single = Vec::new();
    Frame::PageReply {
        req_id: 1,
        page: PageId(3),
        data: ampom_rpc::frame::page_payload(PageId(3)).into(),
    }
    .encode_into(&mut single);
    assert_eq!(allocations_per_frame(&single), 0.0);
}
