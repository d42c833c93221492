//! Property tests of the frame codec (satellite of the live-transport
//! work): every frame type round-trips bit-exactly through the wire
//! encoding, and the decoder never panics — truncated, corrupted,
//! oversized or random bytes always land on a typed [`CodecError`].
//! The multi-migrant work extends the suite to batched replies and the
//! deputy-side coalescing queue: coalescing may merge requests for the
//! same page, but never drops a requested page and never serves an
//! unrequested duplicate.

use std::collections::HashSet;
use std::io::Read;

use ampom_mem::page::{PageId, PAGE_SIZE};
use ampom_rpc::frame::{
    page_payload, CodecError, Frame, FrameBuffer, PageView, WireStats, LENGTH_PREFIX_BYTES,
    MAX_BATCH_PAGES, MAX_FRAME_BYTES, WIRE_VERSION,
};
use ampom_rpc::PendingQueue;
use ampom_sim::propcheck::{forall, Gen};

/// One arbitrary frame of any type.
fn arbitrary_frame(g: &mut Gen) -> Frame {
    match g.u64(0..18) {
        0 => Frame::Hello {
            version: g.u64(0..u64::from(u16::MAX) + 1) as u16,
            total_pages: g.u64(0..u64::MAX),
            scheme: g.u64(0..256) as u8,
        },
        1 => Frame::HelloAck {
            version: g.u64(0..u64::from(u16::MAX) + 1) as u16,
            page_size: g.u64(0..u64::from(u32::MAX) + 1) as u32,
        },
        2 => Frame::PageRequest {
            req_id: g.u64(0..u64::MAX),
            pages: g
                .vec_u64(0..65, 0..u64::MAX)
                .into_iter()
                .map(PageId)
                .collect(),
        },
        3 => Frame::PrefetchBatch {
            req_id: g.u64(0..u64::MAX),
            pages: g
                .vec_u64(0..65, 0..u64::MAX)
                .into_iter()
                .map(PageId)
                .collect(),
        },
        4 => Frame::PageReply {
            req_id: g.u64(0..u64::MAX),
            page: PageId(g.u64(0..u64::MAX)),
            data: page_payload(PageId(g.u64(0..1 << 32))).into(),
        },
        5 => Frame::SyscallForward {
            call_id: g.u64(0..u64::MAX),
            work_ns: g.u64(0..u64::MAX),
        },
        6 => Frame::SyscallReply {
            call_id: g.u64(0..u64::MAX),
        },
        7 => Frame::Ping {
            token: g.u64(0..u64::MAX),
        },
        8 => Frame::Pong {
            token: g.u64(0..u64::MAX),
        },
        9 => Frame::StatsFetch,
        10 => Frame::StatsReply(WireStats {
            queued_requests: g.u64(0..u64::MAX),
            max_backlog_ns: g.u64(0..u64::MAX),
            busy_time_ns: g.u64(0..u64::MAX),
            pages_served: g.u64(0..u64::MAX),
            requests_served: g.u64(0..u64::MAX),
            pages_coalesced: g.u64(0..u64::MAX),
            batch_replies: g.u64(0..u64::MAX),
            max_pending_pages: g.u64(0..u64::MAX),
            prefetch_pages_shed: g.u64(0..u64::MAX),
            demand_pages_shed: g.u64(0..u64::MAX),
            shed_events: g.u64(0..u64::MAX),
            hellos_deferred: g.u64(0..u64::MAX),
        }),
        11 => Frame::Error {
            code: g.u64(0..u64::from(u16::MAX) + 1) as u16,
            detail: String::from_utf8_lossy(
                &g.vec_u64(0..40, 32..127)
                    .iter()
                    .map(|&b| b as u8)
                    .collect::<Vec<_>>(),
            )
            .into_owned(),
        },
        12 => Frame::PageBatchReply {
            req_id: g.u64(0..u64::MAX),
            pages: {
                let n = g.usize(0..MAX_BATCH_PAGES + 1);
                (0..n)
                    .map(|_| {
                        let page = PageId(g.u64(0..1 << 32));
                        (page, page_payload(page).into())
                    })
                    .collect()
            },
        },
        13 => Frame::WritebackBatch {
            seq: g.u64(0..u64::MAX),
            pages: {
                let n = g.usize(0..MAX_BATCH_PAGES + 1);
                (0..n)
                    .map(|_| {
                        let page = PageId(g.u64(0..1 << 32));
                        (page, g.u64(1..1 << 20), page_payload(page).into())
                    })
                    .collect()
            },
        },
        14 => Frame::WritebackAck {
            seq: g.u64(0..u64::MAX),
            applied: g.u64(0..u64::from(u32::MAX) + 1) as u32,
            duplicates: g.u64(0..u64::from(u32::MAX) + 1) as u32,
        },
        15 => Frame::ReturnRequest,
        16 => Frame::ReturnAck {
            stub_pages: g.u64(0..u64::MAX),
            freed_pages: g.u64(0..u64::MAX),
        },
        _ => Frame::Bye,
    }
}

#[test]
fn every_frame_type_round_trips() {
    forall("frame round-trip", 500, |g| {
        let frame = arbitrary_frame(g);
        let wire = frame.encode();
        // Length prefix accounts for exactly the body.
        let len = u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) as usize;
        assert_eq!(len + LENGTH_PREFIX_BYTES, wire.len());
        let decoded = Frame::decode(&wire[LENGTH_PREFIX_BYTES..]).expect("round trip");
        assert_eq!(decoded, frame);
    });
}

/// A socket that hands `bytes` out in short reads: each read returns at
/// most the next of `steps` (cycled), and never more than was asked for.
struct ShortReads<'a> {
    bytes: &'a [u8],
    steps: Vec<usize>,
    next: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.steps[self.next % self.steps.len()];
        self.next += 1;
        let n = step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn frame_stream_survives_arbitrary_chunking() {
    forall("chunked stream", 200, |g| {
        let frames: Vec<Frame> = (0..g.usize(1..6)).map(|_| arbitrary_frame(g)).collect();
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut at = 0;
        while at < wire.len() {
            let step = g.usize(1..64.min(wire.len() - at) + 1);
            fb.extend(&wire[at..at + step]);
            at += step;
            while let Some(f) = fb.pop().expect("valid stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(fb.pending(), 0);

        // The same stream read from a socket in random short reads. Every
        // decoded frame stays alive in `got`, so the pages already
        // decoded must survive the buffer compacting and regrowing under
        // them.
        let mut sock = ShortReads {
            bytes: &wire,
            steps: (0..g.usize(1..8)).map(|_| g.usize(1..10_000)).collect(),
            next: 0,
        };
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        while fb.fill_from(&mut sock).expect("a slice reads") > 0 {
            while let Some(f) = fb.pop().expect("valid stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(fb.pending(), 0);
    });
}

#[test]
fn truncated_frames_error_without_panicking() {
    forall("truncation", 300, |g| {
        let frame = arbitrary_frame(g);
        let wire = frame.encode();
        let body = &wire[LENGTH_PREFIX_BYTES..];
        // Every strict prefix of the body must decode without panicking.
        // For all fixed-layout frames the decode must be an error; an
        // `Error` frame's detail is the variable-length tail, so its
        // prefixes legitimately decode to a shorter detail string.
        let cut = g.usize(0..body.len());
        match Frame::decode(&body[..cut]) {
            Err(_) => {}
            Ok(decoded) => {
                assert!(
                    matches!(frame, Frame::Error { .. }),
                    "truncated body decoded as {decoded:?}"
                );
            }
        }
    });
}

#[test]
fn corrupted_bytes_never_panic_the_decoder() {
    forall("corruption", 500, |g| {
        let frame = arbitrary_frame(g);
        let mut wire = frame.encode();
        // Flip a handful of random bytes anywhere in the frame.
        for _ in 0..g.usize(1..5) {
            let at = g.usize(0..wire.len());
            wire[at] ^= g.u64(1..256) as u8;
        }
        // Feeding through the stream buffer must yield frames or typed
        // errors — decode and framing must not panic either way.
        let mut fb = FrameBuffer::new();
        fb.extend(&wire);
        while let Ok(Some(_)) = fb.pop() {}
    });
}

#[test]
fn random_garbage_never_panics() {
    forall("garbage stream", 500, |g| {
        let bytes: Vec<u8> = g
            .vec_u64(0..600, 0..256)
            .into_iter()
            .map(|b| b as u8)
            .collect();
        let mut fb = FrameBuffer::new();
        fb.extend(&bytes);
        while let Ok(Some(_)) = fb.pop() {}
    });
}

#[test]
fn oversized_and_empty_lengths_are_typed_errors() {
    let mut fb = FrameBuffer::new();
    fb.extend(&(MAX_FRAME_BYTES + 1).to_be_bytes());
    assert_eq!(fb.pop(), Err(CodecError::Oversized(MAX_FRAME_BYTES + 1)));

    let mut fb = FrameBuffer::new();
    fb.extend(&0u32.to_be_bytes());
    assert_eq!(fb.pop(), Err(CodecError::Empty));
}

#[test]
fn count_and_page_size_mismatches_are_typed() {
    // PageRequest whose count field promises more ids than the payload.
    let mut wire = Frame::PageRequest {
        req_id: 1,
        pages: vec![PageId(1), PageId(2)],
    }
    .encode();
    // count lives right after [len:4][type:1][req_id:8]
    wire[13..17].copy_from_slice(&3u32.to_be_bytes());
    assert_eq!(
        Frame::decode(&wire[LENGTH_PREFIX_BYTES..]),
        Err(CodecError::BadCount(3))
    );

    // PageReply with a short data block.
    let mut short = Frame::PageReply {
        req_id: 1,
        page: PageId(7),
        data: page_payload(PageId(7)).into(),
    }
    .encode();
    short.truncate(short.len() - 1);
    let body_len = (short.len() - LENGTH_PREFIX_BYTES) as u32;
    short[..4].copy_from_slice(&body_len.to_be_bytes());
    assert_eq!(
        Frame::decode(&short[LENGTH_PREFIX_BYTES..]),
        Err(CodecError::BadPageSize(PAGE_SIZE as usize - 1))
    );
}

#[test]
fn batch_count_cap_is_a_typed_error() {
    // A batch promising more pages than MAX_BATCH_PAGES must be refused
    // before any allocation sized by the count.
    let page = PageId(9);
    let mut wire = Frame::PageBatchReply {
        req_id: 3,
        pages: vec![(page, page_payload(page).into())],
    }
    .encode();
    // count lives right after [len:4][type:1][req_id:8]
    let bogus = (MAX_BATCH_PAGES + 1) as u32;
    wire[13..17].copy_from_slice(&bogus.to_be_bytes());
    assert_eq!(
        Frame::decode(&wire[LENGTH_PREFIX_BYTES..]),
        Err(CodecError::BadCount(bogus))
    );

    // A count that disagrees with the payload length is equally typed.
    let mut wire = Frame::PageBatchReply {
        req_id: 3,
        pages: vec![(page, page_payload(page).into())],
    }
    .encode();
    wire[13..17].copy_from_slice(&2u32.to_be_bytes());
    assert_eq!(
        Frame::decode(&wire[LENGTH_PREFIX_BYTES..]),
        Err(CodecError::BadCount(2))
    );
}

#[test]
fn truncated_batches_error_without_panicking() {
    forall("batch truncation", 200, |g| {
        let n = g.usize(1..9);
        let pages: Vec<(PageId, PageView)> = (0..n)
            .map(|_| {
                let page = PageId(g.u64(0..1 << 20));
                (page, page_payload(page).into())
            })
            .collect();
        let wire = Frame::PageBatchReply { req_id: 1, pages }.encode();
        let body = &wire[LENGTH_PREFIX_BYTES..];
        let cut = g.usize(0..body.len());
        assert!(
            Frame::decode(&body[..cut]).is_err(),
            "truncated batch decoded"
        );
    });
}

/// The deputy-side coalescing queue: random interleavings of requests
/// and service drains never lose a requested page and never serve a
/// page nobody asked for. Re-requests after service (a retry for a lost
/// reply) legitimately serve again, so the ledger tracks *requested
/// since last served* rather than raw counts.
#[test]
fn coalescing_never_drops_or_duplicates_pages() {
    forall("coalescing queue", 300, |g| {
        let mut q = PendingQueue::new();
        let mut outstanding: HashSet<PageId> = HashSet::new();
        let mut requested = 0u64;
        let mut served: Vec<PageId> = Vec::new();
        for step in 0..g.usize(1..120) {
            if g.bool(0.6) {
                let page = PageId(g.u64(0..24));
                requested += 1;
                let enqueued = q.push(step as u64, page);
                // Coalesced exactly when an unserved request existed.
                assert_eq!(enqueued, outstanding.insert(page));
            } else {
                for (_, page) in q.take(g.usize(0..8)) {
                    assert!(
                        outstanding.remove(&page),
                        "served page {page} nobody was waiting for"
                    );
                    served.push(page);
                }
            }
        }
        // Drain: everything still outstanding must come out exactly once.
        for (_, page) in q.take(usize::MAX) {
            assert!(outstanding.remove(&page), "drained unrequested {page}");
            served.push(page);
        }
        assert!(outstanding.is_empty(), "pages dropped: {outstanding:?}");
        assert!(q.is_empty());
        // Conservation: every request was either served or coalesced.
        assert_eq!(requested, served.len() as u64 + q.coalesced());
        // No duplicates among concurrently-pending serves: a page may
        // appear twice in `served` only via a re-request, which the
        // outstanding ledger already enforced above.
    });
}

#[test]
fn writeback_batch_count_cap_is_a_typed_error() {
    // The lifecycle batch has the same count-cap discipline as the page
    // batch: a bogus count is refused before any allocation it sizes.
    let page = PageId(4);
    let mut wire = Frame::WritebackBatch {
        seq: 6,
        pages: vec![(page, 1, page_payload(page).into())],
    }
    .encode();
    // count lives right after [len:4][type:1][seq:8]
    let bogus = (MAX_BATCH_PAGES + 1) as u32;
    wire[13..17].copy_from_slice(&bogus.to_be_bytes());
    assert_eq!(
        Frame::decode(&wire[LENGTH_PREFIX_BYTES..]),
        Err(CodecError::BadCount(bogus))
    );

    let mut wire = Frame::WritebackBatch {
        seq: 6,
        pages: vec![(page, 1, page_payload(page).into())],
    }
    .encode();
    wire[13..17].copy_from_slice(&2u32.to_be_bytes());
    assert_eq!(
        Frame::decode(&wire[LENGTH_PREFIX_BYTES..]),
        Err(CodecError::BadCount(2))
    );
}

#[test]
fn truncated_writeback_batches_error_without_panicking() {
    forall("writeback truncation", 200, |g| {
        let n = g.usize(1..9);
        let pages: Vec<(PageId, u64, PageView)> = (0..n)
            .map(|_| {
                let page = PageId(g.u64(0..1 << 20));
                (page, g.u64(1..100), page_payload(page).into())
            })
            .collect();
        let wire = Frame::WritebackBatch { seq: 1, pages }.encode();
        let body = &wire[LENGTH_PREFIX_BYTES..];
        let cut = g.usize(0..body.len());
        assert!(
            Frame::decode(&body[..cut]).is_err(),
            "truncated writeback batch decoded"
        );
    });
}

#[test]
fn version_constant_is_stable() {
    // Bumping WIRE_VERSION is a protocol break; this test makes the bump
    // a conscious edit. Version 2 added PageBatchReply and widened
    // StatsReply with the coalescing counters; version 3 widened
    // StatsReply with the shed/admission counters and made 503 the one
    // non-fatal error code; version 4 added the page-lifecycle frames
    // (WritebackBatch/WritebackAck, ReturnRequest/ReturnAck).
    assert_eq!(WIRE_VERSION, 4);
}
