//! The wire frame codec.
//!
//! Every message on the deputy↔migrant socket is one frame:
//!
//! ```text
//! [ u32 length (big-endian) ][ u8 type ][ payload ... ]
//! ```
//!
//! `length` counts the type byte plus the payload. All multi-byte
//! integers are big-endian. The frame set mirrors the simulated
//! protocol's message types one-to-one (request/reply sizes in
//! `ampom-net::calibration` were chosen to match this layout):
//!
//! | type | frame            | payload                                        |
//! |------|------------------|------------------------------------------------|
//! | 0x01 | `Hello`          | version u16, total_pages u64, scheme u8        |
//! | 0x02 | `HelloAck`       | version u16, page_size u32                     |
//! | 0x03 | `PageRequest`    | req_id u64, count u32, page ids u64 × count    |
//! | 0x04 | `PrefetchBatch`  | req_id u64, count u32, page ids u64 × count    |
//! | 0x05 | `PageReply`      | req_id u64, page u64, 4096 data bytes          |
//! | 0x06 | `SyscallForward` | call_id u64, work_ns u64                       |
//! | 0x07 | `SyscallReply`   | call_id u64                                    |
//! | 0x08 | `Ping`           | token u64                                      |
//! | 0x09 | `Pong`           | token u64                                      |
//! | 0x0a | `StatsFetch`     | —                                              |
//! | 0x0b | `StatsReply`     | 12 × u64 counters                              |
//! | 0x0c | `Error`          | code u16, detail utf-8                         |
//! | 0x0d | `Bye`            | —                                              |
//! | 0x0e | `PageBatchReply` | req_id u64, count u32, (page u64, 4096 B) × count |
//! | 0x0f | `WritebackBatch` | seq u64, count u32, (page u64, version u64, 4096 B) × count |
//! | 0x10 | `WritebackAck`   | seq u64, applied u32, duplicates u32           |
//! | 0x11 | `ReturnRequest`  | —                                              |
//! | 0x12 | `ReturnAck`      | stub_pages u64, freed_pages u64                |
//!
//! `PageBatchReply` is the multiplexing deputy's reply batching: pages a
//! migrant's DRR visit serves together leave as one frame instead of a
//! run of `PageReply`s. [`MAX_BATCH_PAGES`] bounds the batch so the
//! frame stays under [`MAX_FRAME_BYTES`].
//!
//! The version-4 lifecycle frames travel the other way: `WritebackBatch`
//! carries dirty-page deltas home (each page tagged with a monotone
//! version so the deputy's sink applies duplicates idempotently),
//! `WritebackAck` settles a batch, and `ReturnRequest`/`ReturnAck`
//! negotiate home-return migration — the ack reports how many pages stay
//! behind as the remote deputy stub versus free at home immediately.
//!
//! Decoding never panics: every malformed input maps onto a typed
//! [`CodecError`] (the property tests in `tests/prop.rs` fuzz this).
//!
//! Decoding copies no page: the pages of `PageReply`, `PageBatchReply`
//! and `WritebackBatch` decode as [`PageView`]s, reference-counted views
//! into the storage the frame was received into
//! ([`FrameBuffer::fill_from`] reads the socket straight into it).

use std::fmt;
use std::io::{self, Read};
use std::ops::Deref;
use std::sync::Arc;

use ampom_mem::page::{PageId, PAGE_SIZE};

/// Protocol version spoken by this build; bumped on any frame change.
/// Version 2 added `PageBatchReply` and the wider `StatsReply`; version
/// 3 widened `StatsReply` again with the load-shedding counters and
/// introduced the non-fatal `503 Overloaded` error code; version 4 added
/// the page-lifecycle frames (`WritebackBatch`/`WritebackAck` and
/// `ReturnRequest`/`ReturnAck`).
pub const WIRE_VERSION: u16 = 4;

/// `Error` code: the deputy refused the work because it is saturated.
/// Unlike every other error code this one is **non-fatal** — the
/// connection stays open, the client reverts the refused prefetch pages
/// and retries or degrades to demand fetches.
pub const CODE_OVERLOADED: u16 = 503;

/// Upper bound on pages in one [`Frame::PageBatchReply`]: 64 batched
/// pages is ~257 KiB on the wire, comfortably under [`MAX_FRAME_BYTES`].
pub const MAX_BATCH_PAGES: usize = 64;

/// Hard cap on one frame's length field. The largest legitimate frame is
/// a maximal [`Frame::WritebackBatch`] ([`MAX_BATCH_PAGES`] pages,
/// ~257 KiB); 1 MiB leaves head-room while bounding what a corrupted
/// length prefix can make the reader allocate.
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// Bytes of the length prefix.
pub const LENGTH_PREFIX_BYTES: usize = 4;

/// Smallest read [`FrameBuffer::fill_from`] asks for: a run of small
/// frames (requests, acks) arrives in one read, and a session's buffer
/// never holds less room than this. Reads for a large frame ask for
/// what it still lacks instead.
const MIN_READ_BYTES: usize = 4096;

/// A malformed frame. Every variant names what the decoder saw so wire
/// corruption diagnoses itself in logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the fields it promised.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes it had.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized(u32),
    /// The type byte is not a known frame type.
    UnknownType(u8),
    /// The payload is longer than its fields account for.
    TrailingBytes(usize),
    /// A page-request count disagrees with the payload size.
    BadCount(u32),
    /// A `PageReply` carried a data block that is not one page.
    BadPageSize(usize),
    /// An `Error` frame's detail is not UTF-8.
    BadUtf8,
    /// A zero-length frame (no type byte).
    Empty,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, got } => {
                write!(f, "frame truncated: need {need} bytes, got {got}")
            }
            CodecError::Oversized(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_BYTES}")
            }
            CodecError::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            CodecError::BadCount(n) => write!(f, "page count {n} disagrees with payload"),
            CodecError::BadPageSize(n) => {
                write!(f, "page reply carries {n} bytes, expected {PAGE_SIZE}")
            }
            CodecError::BadUtf8 => write!(f, "error detail is not utf-8"),
            CodecError::Empty => write!(f, "empty frame (no type byte)"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Deputy-side service statistics carried by [`Frame::StatsReply`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Requests that arrived while the deputy was busy.
    pub queued_requests: u64,
    /// Worst backlog observed, nanoseconds.
    pub max_backlog_ns: u64,
    /// Cumulative service time, nanoseconds.
    pub busy_time_ns: u64,
    /// Pages served.
    pub pages_served: u64,
    /// Requests answered.
    pub requests_served: u64,
    /// Page requests absorbed by coalescing (the page was already
    /// pending; one service event answers both requests).
    pub pages_coalesced: u64,
    /// Batched reply frames written ([`Frame::PageBatchReply`]).
    pub batch_replies: u64,
    /// Worst pending-page queue depth this session reached.
    pub max_pending_pages: u64,
    /// Prefetch pages refused by admission control (recoverable: the
    /// client reverts them and they degrade to demand fetches).
    pub prefetch_pages_shed: u64,
    /// Demand pages refused outright (hard 503s; zero unless the server
    /// is past even its demand reserve).
    pub demand_pages_shed: u64,
    /// Requests that had at least one page shed.
    pub shed_events: u64,
    /// `Hello`s deferred by the admission gate.
    pub hellos_deferred: u64,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Migrant → deputy: opens a session.
    Hello {
        /// Protocol version ([`WIRE_VERSION`]).
        version: u16,
        /// Pages in the migrant's address space; the deputy serves ids
        /// below this bound.
        total_pages: u64,
        /// Migration scheme (informational; `Scheme` as a raw byte).
        scheme: u8,
    },
    /// Deputy → migrant: session accepted.
    HelloAck {
        /// Version the deputy speaks.
        version: u16,
        /// Page size the deputy serves.
        page_size: u32,
    },
    /// Migrant → deputy: demand page (first id) plus piggy-backed zone.
    PageRequest {
        /// Request id (echoed in replies).
        req_id: u64,
        /// Requested page ids, demand first.
        pages: Vec<PageId>,
    },
    /// Migrant → deputy: prefetch-only batch (no demand page; the deputy
    /// may serve it at lower priority).
    PrefetchBatch {
        /// Request id (echoed in replies).
        req_id: u64,
        /// Requested page ids.
        pages: Vec<PageId>,
    },
    /// Deputy → migrant: one page of data.
    PageReply {
        /// The request this page answers.
        req_id: u64,
        /// The page id.
        page: PageId,
        /// Page contents ([`PAGE_SIZE`] bytes).
        data: PageView,
    },
    /// Migrant → deputy: execute a system call at the home node.
    SyscallForward {
        /// Call id (echoed in the reply).
        call_id: u64,
        /// Work the call performs at the home node, nanoseconds.
        work_ns: u64,
    },
    /// Deputy → migrant: the forwarded call completed.
    SyscallReply {
        /// The call this answers.
        call_id: u64,
    },
    /// RTT probe.
    Ping {
        /// Correlation token.
        token: u64,
    },
    /// RTT probe answer.
    Pong {
        /// Token echoed from the ping.
        token: u64,
    },
    /// Migrant → deputy: fetch service statistics.
    StatsFetch,
    /// Deputy → migrant: service statistics.
    StatsReply(WireStats),
    /// Either side: a protocol error (the connection closes after).
    Error {
        /// Machine-readable code.
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
    /// Either side: orderly shutdown of the session.
    Bye,
    /// Deputy → migrant: several pages served by one scheduling visit,
    /// batched into one frame (at most [`MAX_BATCH_PAGES`] pages).
    PageBatchReply {
        /// The request the *first* page answers; coalesced pages from
        /// other requests ride along under the same id.
        req_id: u64,
        /// `(page id, PAGE_SIZE contents)` pairs.
        pages: Vec<(PageId, PageView)>,
    },
    /// Migrant → deputy: one writeback delta batch of dirty pages headed
    /// home (at most [`MAX_BATCH_PAGES`] pages). Versions are per-page
    /// monotone counters: the sink applies a page only when its version
    /// exceeds the last applied one, so retransmitted batches are
    /// idempotent (exactly-once accounting over at-least-once delivery).
    WritebackBatch {
        /// Batch sequence number (echoed by the ack).
        seq: u64,
        /// `(page id, version, PAGE_SIZE contents)` triples.
        pages: Vec<(PageId, u64, PageView)>,
    },
    /// Deputy → migrant: a writeback batch settled.
    WritebackAck {
        /// The batch this answers.
        seq: u64,
        /// Pages newly applied by this batch.
        applied: u32,
        /// Pages skipped as duplicates (version already applied).
        duplicates: u32,
    },
    /// Migrant → deputy: begin home-return migration. The deputy answers
    /// with [`Frame::ReturnAck`] and keeps serving as the *remote* stub
    /// for pages the migrant fetched and dirtied but never wrote back.
    ReturnRequest,
    /// Deputy → migrant: home-return accounting.
    ReturnAck {
        /// Pages that stay behind on the remote node's deputy stub
        /// (fetched, not written back).
        stub_pages: u64,
        /// Pages free at home immediately (never fetched, or fetched and
        /// then written back).
        freed_pages: u64,
    },
}

impl Frame {
    /// The frame's type byte.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::HelloAck { .. } => 0x02,
            Frame::PageRequest { .. } => 0x03,
            Frame::PrefetchBatch { .. } => 0x04,
            Frame::PageReply { .. } => 0x05,
            Frame::SyscallForward { .. } => 0x06,
            Frame::SyscallReply { .. } => 0x07,
            Frame::Ping { .. } => 0x08,
            Frame::Pong { .. } => 0x09,
            Frame::StatsFetch => 0x0a,
            Frame::StatsReply(_) => 0x0b,
            Frame::Error { .. } => 0x0c,
            Frame::Bye => 0x0d,
            Frame::PageBatchReply { .. } => 0x0e,
            Frame::WritebackBatch { .. } => 0x0f,
            Frame::WritebackAck { .. } => 0x10,
            Frame::ReturnRequest => 0x11,
            Frame::ReturnAck { .. } => 0x12,
        }
    }

    /// Encodes the frame — length prefix included — appending to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_framed(self.type_byte(), out, |out| match self {
            Frame::Hello {
                version,
                total_pages,
                scheme,
            } => {
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&total_pages.to_be_bytes());
                out.push(*scheme);
            }
            Frame::HelloAck { version, page_size } => {
                out.extend_from_slice(&version.to_be_bytes());
                out.extend_from_slice(&page_size.to_be_bytes());
            }
            Frame::PageRequest { req_id, pages } | Frame::PrefetchBatch { req_id, pages } => {
                out.extend_from_slice(&req_id.to_be_bytes());
                out.extend_from_slice(&(pages.len() as u32).to_be_bytes());
                for p in pages {
                    out.extend_from_slice(&p.0.to_be_bytes());
                }
            }
            Frame::PageReply { req_id, page, data } => {
                out.extend_from_slice(&req_id.to_be_bytes());
                out.extend_from_slice(&page.0.to_be_bytes());
                out.extend_from_slice(data);
            }
            Frame::SyscallForward { call_id, work_ns } => {
                out.extend_from_slice(&call_id.to_be_bytes());
                out.extend_from_slice(&work_ns.to_be_bytes());
            }
            Frame::SyscallReply { call_id } => {
                out.extend_from_slice(&call_id.to_be_bytes());
            }
            Frame::Ping { token } | Frame::Pong { token } => {
                out.extend_from_slice(&token.to_be_bytes());
            }
            Frame::StatsFetch | Frame::Bye => {}
            Frame::StatsReply(s) => {
                out.extend_from_slice(&s.queued_requests.to_be_bytes());
                out.extend_from_slice(&s.max_backlog_ns.to_be_bytes());
                out.extend_from_slice(&s.busy_time_ns.to_be_bytes());
                out.extend_from_slice(&s.pages_served.to_be_bytes());
                out.extend_from_slice(&s.requests_served.to_be_bytes());
                out.extend_from_slice(&s.pages_coalesced.to_be_bytes());
                out.extend_from_slice(&s.batch_replies.to_be_bytes());
                out.extend_from_slice(&s.max_pending_pages.to_be_bytes());
                out.extend_from_slice(&s.prefetch_pages_shed.to_be_bytes());
                out.extend_from_slice(&s.demand_pages_shed.to_be_bytes());
                out.extend_from_slice(&s.shed_events.to_be_bytes());
                out.extend_from_slice(&s.hellos_deferred.to_be_bytes());
            }
            Frame::PageBatchReply { req_id, pages } => {
                out.extend_from_slice(&req_id.to_be_bytes());
                out.extend_from_slice(&(pages.len() as u32).to_be_bytes());
                for (page, data) in pages {
                    out.extend_from_slice(&page.0.to_be_bytes());
                    out.extend_from_slice(data);
                }
            }
            Frame::WritebackBatch { seq, pages } => {
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&(pages.len() as u32).to_be_bytes());
                for (page, version, data) in pages {
                    out.extend_from_slice(&page.0.to_be_bytes());
                    out.extend_from_slice(&version.to_be_bytes());
                    out.extend_from_slice(data);
                }
            }
            Frame::WritebackAck {
                seq,
                applied,
                duplicates,
            } => {
                out.extend_from_slice(&seq.to_be_bytes());
                out.extend_from_slice(&applied.to_be_bytes());
                out.extend_from_slice(&duplicates.to_be_bytes());
            }
            Frame::ReturnRequest => {}
            Frame::ReturnAck {
                stub_pages,
                freed_pages,
            } => {
                out.extend_from_slice(&stub_pages.to_be_bytes());
                out.extend_from_slice(&freed_pages.to_be_bytes());
            }
            Frame::Error { code, detail } => {
                out.extend_from_slice(&code.to_be_bytes());
                out.extend_from_slice(detail.as_bytes());
            }
        });
    }

    /// Encodes into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Decodes one frame *body* (everything after the length prefix).
    /// Its pages view one shared copy of `body`; [`FrameBuffer::pop`]
    /// decodes in place, without the copy.
    pub fn decode(body: &[u8]) -> Result<Frame, CodecError> {
        Frame::decode_in(&Arc::new(body.to_vec()), 0, body.len())
    }

    /// Decodes the frame body `store[start..end]`; its pages become
    /// views into `store`.
    fn decode_in(store: &Arc<Vec<u8>>, start: usize, end: usize) -> Result<Frame, CodecError> {
        let mut r = Reader::new(&store[start..end]);
        let view = |at: usize| PageView {
            buf: Arc::clone(store),
            at: start + at,
            len: PAGE_SIZE as usize,
        };
        let ty = r.u8().map_err(|_| CodecError::Empty)?;
        let frame = match ty {
            0x01 => Frame::Hello {
                version: r.u16()?,
                total_pages: r.u64()?,
                scheme: r.u8()?,
            },
            0x02 => Frame::HelloAck {
                version: r.u16()?,
                page_size: r.u32()?,
            },
            0x03 | 0x04 => {
                let req_id = r.u64()?;
                let count = r.u32()?;
                let need = (count as usize)
                    .checked_mul(8)
                    .ok_or(CodecError::BadCount(count))?;
                if r.remaining() != need {
                    return Err(CodecError::BadCount(count));
                }
                let mut pages = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    pages.push(PageId(r.u64()?));
                }
                if ty == 0x03 {
                    Frame::PageRequest { req_id, pages }
                } else {
                    Frame::PrefetchBatch { req_id, pages }
                }
            }
            0x05 => {
                let req_id = r.u64()?;
                let page = PageId(r.u64()?);
                if r.remaining() as u64 != PAGE_SIZE {
                    return Err(CodecError::BadPageSize(r.remaining()));
                }
                Frame::PageReply {
                    req_id,
                    page,
                    data: view(r.page()?),
                }
            }
            0x06 => Frame::SyscallForward {
                call_id: r.u64()?,
                work_ns: r.u64()?,
            },
            0x07 => Frame::SyscallReply { call_id: r.u64()? },
            0x08 => Frame::Ping { token: r.u64()? },
            0x09 => Frame::Pong { token: r.u64()? },
            0x0a => Frame::StatsFetch,
            0x0b => Frame::StatsReply(WireStats {
                queued_requests: r.u64()?,
                max_backlog_ns: r.u64()?,
                busy_time_ns: r.u64()?,
                pages_served: r.u64()?,
                requests_served: r.u64()?,
                pages_coalesced: r.u64()?,
                batch_replies: r.u64()?,
                max_pending_pages: r.u64()?,
                prefetch_pages_shed: r.u64()?,
                demand_pages_shed: r.u64()?,
                shed_events: r.u64()?,
                hellos_deferred: r.u64()?,
            }),
            0x0c => {
                let code = r.u16()?;
                let detail = std::str::from_utf8(r.rest())
                    .map_err(|_| CodecError::BadUtf8)?
                    .to_string();
                Frame::Error { code, detail }
            }
            0x0d => Frame::Bye,
            0x0e => {
                let req_id = r.u64()?;
                let count = r.u32()?;
                if count as usize > MAX_BATCH_PAGES {
                    return Err(CodecError::BadCount(count));
                }
                let per_page = 8 + PAGE_SIZE as usize;
                let need = (count as usize)
                    .checked_mul(per_page)
                    .ok_or(CodecError::BadCount(count))?;
                if r.remaining() != need {
                    return Err(CodecError::BadCount(count));
                }
                let mut pages = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let page = PageId(r.u64()?);
                    pages.push((page, view(r.page()?)));
                }
                Frame::PageBatchReply { req_id, pages }
            }
            0x0f => {
                let seq = r.u64()?;
                let count = r.u32()?;
                if count as usize > MAX_BATCH_PAGES {
                    return Err(CodecError::BadCount(count));
                }
                let per_page = 8 + 8 + PAGE_SIZE as usize;
                let need = (count as usize)
                    .checked_mul(per_page)
                    .ok_or(CodecError::BadCount(count))?;
                if r.remaining() != need {
                    return Err(CodecError::BadCount(count));
                }
                let mut pages = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let page = PageId(r.u64()?);
                    let version = r.u64()?;
                    pages.push((page, version, view(r.page()?)));
                }
                Frame::WritebackBatch { seq, pages }
            }
            0x10 => Frame::WritebackAck {
                seq: r.u64()?,
                applied: r.u32()?,
                duplicates: r.u32()?,
            },
            0x11 => Frame::ReturnRequest,
            0x12 => Frame::ReturnAck {
                stub_pages: r.u64()?,
                freed_pages: r.u64()?,
            },
            other => return Err(CodecError::UnknownType(other)),
        };
        // PageReply/Error consume the rest by construction; everything
        // else must account for every byte.
        let left = r.remaining();
        if left > 0 {
            return Err(CodecError::TrailingBytes(left));
        }
        Ok(frame)
    }
}

/// One page's contents in a decoded frame: a reference-counted view into
/// the storage the frame was received into, so decoding copies no page.
/// It reads as the page's bytes (`Deref<Target = [u8]>`), is `Send`, and
/// keeps that storage alive while it lives. Code that builds a
/// page-carrying frame converts a `Vec<u8>` with `.into()`.
#[derive(Clone)]
pub struct PageView {
    buf: Arc<Vec<u8>>,
    at: usize,
    len: usize,
}

impl Deref for PageView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.at..self.at + self.len]
    }
}

impl From<Vec<u8>> for PageView {
    fn from(bytes: Vec<u8>) -> Self {
        PageView {
            len: bytes.len(),
            buf: Arc::new(bytes),
            at: 0,
        }
    }
}

impl PartialEq for PageView {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PageView {}

impl fmt::Debug for PageView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Incremental frame extraction from a byte stream.
///
/// [`FrameBuffer::fill_from`] reads the socket straight into the
/// buffer's storage (or [`FrameBuffer::extend`] copies bytes in), and
/// [`FrameBuffer::pop`] yields complete frames as they become available,
/// leaving partial frames buffered. Used by both ends of the connection.
///
/// Popped frames' pages are [`PageView`]s into the storage, so the
/// buffer writes to it only while no view is alive: it then reuses it in
/// place, and otherwise moves its unread bytes to new storage first.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// Received bytes. Its length is how much of it has been
    /// initialised, not how much has been received.
    buf: Arc<Vec<u8>>,
    /// Consumed prefix.
    start: usize,
    /// End of the received bytes.
    end: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw socket bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.room(bytes.len()).copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One read from `reader` straight into the buffer; returns what
    /// `read` returned (0 at the end of the stream). The read asks for
    /// what the front frame still lacks, and never for less than a small
    /// floor. A length prefix above [`MAX_FRAME_BYTES`] sizes nothing:
    /// the read asks for the floor and the next [`FrameBuffer::pop`]
    /// refuses the frame.
    pub fn fill_from(&mut self, reader: &mut impl Read) -> io::Result<usize> {
        let want = self.front_lacks().max(MIN_READ_BYTES);
        let n = reader.read(self.room(want))?;
        self.end += n;
        Ok(n)
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Extracts the next complete frame, `Ok(None)` if more bytes are
    /// needed. A codec error is fatal for the stream (framing is lost).
    pub fn pop(&mut self) -> Result<Option<Frame>, CodecError> {
        let Some(len) = self.front_len()? else {
            return Ok(None);
        };
        let total = LENGTH_PREFIX_BYTES + len;
        if self.pending() < total {
            return Ok(None);
        }
        let body = self.start + LENGTH_PREFIX_BYTES;
        let frame = Frame::decode_in(&self.buf, body, self.start + total)?;
        self.start += total;
        Ok(Some(frame))
    }

    /// The front frame's body length, once its prefix has arrived.
    fn front_len(&self) -> Result<Option<usize>, CodecError> {
        let Some(prefix) = self.buf[self.start..self.end].first_chunk::<LENGTH_PREFIX_BYTES>()
        else {
            return Ok(None);
        };
        match u32::from_be_bytes(*prefix) {
            0 => Err(CodecError::Empty),
            len if len > MAX_FRAME_BYTES => Err(CodecError::Oversized(len)),
            len => Ok(Some(len as usize)),
        }
    }

    /// Bytes the front frame still lacks: 0 while its prefix is
    /// incomplete or invalid, or once the frame is whole.
    fn front_lacks(&self) -> usize {
        match self.front_len() {
            Ok(Some(len)) => (LENGTH_PREFIX_BYTES + len).saturating_sub(self.pending()),
            _ => 0,
        }
    }

    /// `want` writable bytes after the received ones. Unshared storage
    /// is reused: rewound when everything has been consumed, or its
    /// unread bytes moved to the front when the tail is short, then
    /// grown if still short (zero-filling only what it has never held).
    /// Storage a [`PageView`] still shares is left to the view: the
    /// unread bytes move to new storage.
    fn room(&mut self, want: usize) -> &mut [u8] {
        let unread = self.pending();
        match Arc::get_mut(&mut self.buf) {
            Some(buf) => {
                if self.start == self.end {
                    self.start = 0;
                    self.end = 0;
                } else if buf.len() - self.end < want && self.start > 0 {
                    buf.copy_within(self.start..self.end, 0);
                    self.start = 0;
                    self.end = unread;
                }
                if buf.len() < self.end + want {
                    buf.resize(self.end + want, 0);
                }
            }
            None => {
                let mut fresh = vec![0; unread + want];
                fresh[..unread].copy_from_slice(&self.buf[self.start..self.end]);
                self.buf = Arc::new(fresh);
                self.start = 0;
                self.end = unread;
            }
        }
        let buf = Arc::get_mut(&mut self.buf).expect("the storage is unshared");
        &mut buf[self.end..self.end + want]
    }
}

/// Bounds-checked big-endian field reader.
struct Reader<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(body: &'a [u8]) -> Self {
        Reader { body, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.body.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                need: n,
                got: self.remaining(),
            });
        }
        let s = &self.body[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Steps over one page of contents and returns its offset in the
    /// body.
    fn page(&mut self) -> Result<usize, CodecError> {
        let at = self.at;
        self.take(PAGE_SIZE as usize)?;
        Ok(at)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.body[self.at..];
        self.at = self.body.len();
        s
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// splitmix64's increment, the golden ratio scaled to 64 bits.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64's output mix of one counter value.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Synthesizes the deterministic contents of `page` served by the test
/// deputy: the page id in the first 8 bytes, then a splitmix64 keystream.
/// Lets the client spot payload corruption without a real memory image.
pub fn page_payload(page: PageId) -> Vec<u8> {
    let mut data = vec![0u8; PAGE_SIZE as usize];
    page_payload_into(page, &mut data);
    data
}

/// [`page_payload`] without the allocation: fills `data` (exactly one
/// page) in place. The serving path synthesizes payloads directly into
/// pooled outbound segments through this, so a busy deputy allocates
/// nothing per page after warm-up.
///
/// These bytes are the deputy's page contents on the wire, pinned by a
/// golden hash in the tests. splitmix64 is a counter-mode generator:
/// its state after `k` steps is `x0 + k·γ`, so big-endian word `k` of
/// the keystream (k = 1..=511) is `mix(x0 + k·γ)` with `x0 = page ^ γ`.
/// Each word is computed from its index alone, so the loop has no
/// carried state and vectorizes: on an x86-64 CPU with AVX-512 (F, DQ,
/// BW, VL) the same loop runs compiled for those features, eight words
/// a vector, chosen at run time; elsewhere the portable build runs.
pub fn page_payload_into(page: PageId, data: &mut [u8]) {
    assert_eq!(
        data.len() as u64,
        PAGE_SIZE,
        "payload buffer is not one page"
    );
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // SAFETY: the CPU has every feature `payload_avx512` enables.
        unsafe { payload_avx512(page, data) };
        return;
    }
    payload_portable(page, data);
}

/// Whether this CPU runs the AVX-512 build of the synthesizer.
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
}

/// Which build of the synthesizer [`page_payload_into`] runs here.
#[cfg(test)]
fn payload_build() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        return "avx512";
    }
    "portable"
}

/// [`payload_portable`] compiled with AVX-512, where LLVM vectorizes
/// the 64-bit multiplies (`vpmullq`) and the byte swaps.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
fn payload_avx512(page: PageId, data: &mut [u8]) {
    payload_portable(page, data);
}

/// The counter-mode loop of [`page_payload_into`]. Always inlined, so
/// each caller compiles it for its own target features: the baseline
/// ones in ordinary code, AVX-512 in [`payload_avx512`].
#[inline(always)]
fn payload_portable(page: PageId, data: &mut [u8]) {
    let (tag, words) = data.split_at_mut(8);
    tag.copy_from_slice(&page.0.to_be_bytes());
    let x0 = page.0 ^ GOLDEN_GAMMA;
    for (k, word) in (1u64..).zip(words.chunks_exact_mut(8)) {
        let x = x0.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA));
        word.copy_from_slice(&mix64(x).to_be_bytes());
    }
}

/// Whether `data` is a well-formed serve of `page`: exactly one page
/// long and tagged with the page id in its first 8 bytes. Both client
/// validation paths share this so they cannot drift.
pub fn payload_matches(page: PageId, data: &[u8]) -> bool {
    data.len() as u64 == PAGE_SIZE && data[..8] == page.0.to_be_bytes()
}

/// Appends one frame of type `ty` to `out`: a length prefix, the type
/// byte, then whatever `body` appends, with the prefix patched to the
/// body's length once it is known.
fn encode_framed(ty: u8, out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; LENGTH_PREFIX_BYTES]);
    out.push(ty);
    body(out);
    let len = (out.len() - len_at - LENGTH_PREFIX_BYTES) as u32;
    out[len_at..len_at + LENGTH_PREFIX_BYTES].copy_from_slice(&len.to_be_bytes());
}

/// Appends one page entry of a page-carrying frame to `out`: the page
/// id, the page's version when the frame carries one, then the page's
/// synthesized contents, written once, in place.
fn push_page(page: PageId, version: Option<u64>, out: &mut Vec<u8>) {
    out.extend_from_slice(&page.0.to_be_bytes());
    if let Some(v) = version {
        out.extend_from_slice(&v.to_be_bytes());
    }
    let data_at = out.len();
    out.resize(data_at + PAGE_SIZE as usize, 0);
    page_payload_into(page, &mut out[data_at..]);
}

/// Appends an encoded [`Frame::PageReply`] for `page` to `out`, with the
/// payload synthesized in place — byte-identical to
/// `Frame::PageReply { req_id, page, data: page_payload(page) }.encode_into(out)`
/// but with no intermediate per-page allocation.
pub fn encode_page_reply_into(req_id: u64, page: PageId, out: &mut Vec<u8>) {
    encode_framed(0x05, out, |out| {
        out.extend_from_slice(&req_id.to_be_bytes());
        push_page(page, None, out);
    });
}

/// Appends an encoded [`Frame::PageBatchReply`] to `out`, payloads
/// synthesized in place. `batch` entries are the pending queue's
/// `(req_id, page)` pairs; the frame's request id is the first entry's,
/// exactly as the DRR serving path batches. At most [`MAX_BATCH_PAGES`]
/// entries, at least one.
pub fn encode_page_batch_reply_into(batch: &[(u64, PageId)], out: &mut Vec<u8>) {
    assert!(
        !batch.is_empty() && batch.len() <= MAX_BATCH_PAGES,
        "batch of {} pages (bounds: 1..={MAX_BATCH_PAGES})",
        batch.len()
    );
    encode_framed(0x0e, out, |out| {
        out.extend_from_slice(&batch[0].0.to_be_bytes());
        out.extend_from_slice(&(batch.len() as u32).to_be_bytes());
        for &(_, page) in batch {
            push_page(page, None, out);
        }
    });
}

/// Appends an encoded [`Frame::WritebackBatch`] of `entries` — `(page,
/// version)` pairs — to `out`, each page's payload synthesized in place:
/// byte-identical to the frame built with [`page_payload`] for every
/// page, with no per-page allocation. The deputy refuses a batch of more
/// than [`MAX_BATCH_PAGES`] pages.
pub fn encode_writeback_batch_into(seq: u64, entries: &[(PageId, u64)], out: &mut Vec<u8>) {
    encode_framed(0x0f, out, |out| {
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
        for &(page, version) in entries {
            push_page(page, Some(version), out);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_via_frame_buffer() {
        let frames = vec![
            Frame::Hello {
                version: WIRE_VERSION,
                total_pages: 4096,
                scheme: 2,
            },
            Frame::PageRequest {
                req_id: 7,
                pages: vec![PageId(1), PageId(9)],
            },
            Frame::PageReply {
                req_id: 7,
                page: PageId(1),
                data: page_payload(PageId(1)).into(),
            },
            Frame::Bye,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        let mut fb = FrameBuffer::new();
        // Feed one byte at a time: framing must survive arbitrary splits.
        let mut got = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            while let Some(f) = fb.pop().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(fb.pending(), 0);
    }

    /// A reader that serves `bytes` and records the largest read it was
    /// asked for.
    struct Recording<'a> {
        bytes: &'a [u8],
        largest_ask: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_ask = self.largest_ask.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        assert_eq!(fb.pop(), Err(CodecError::Oversized(MAX_FRAME_BYTES + 1)));

        // Through `fill_from`: the bad prefix sizes neither the next read
        // nor the buffer's storage, however much the peer has queued.
        for len in [MAX_FRAME_BYTES + 1, u32::MAX] {
            let mut stream = len.to_be_bytes().to_vec();
            stream.resize(4 * MAX_FRAME_BYTES as usize, 0xAB);
            let mut sock = Recording {
                bytes: &stream,
                largest_ask: 0,
            };
            let mut fb = FrameBuffer::new();
            for _ in 0..2 {
                assert!(fb.fill_from(&mut sock).unwrap() > 0);
                assert_eq!(fb.pop(), Err(CodecError::Oversized(len)));
            }
            assert_eq!(sock.largest_ask, MIN_READ_BYTES, "prefix {len:#x}");
            assert!(fb.buf.len() <= 2 * MIN_READ_BYTES, "prefix {len:#x}");
        }
    }

    #[test]
    fn frames_holding_views_stay_send() {
        fn send_and_sync<T: Send + Sync>() {}
        send_and_sync::<Frame>();
        send_and_sync::<PageView>();
    }

    #[test]
    fn reads_are_sized_by_the_front_frame() {
        let batch: Vec<(u64, PageId)> = (0..MAX_BATCH_PAGES as u64)
            .map(|p| (1, PageId(p)))
            .collect();
        let mut wire = Vec::new();
        encode_page_batch_reply_into(&batch, &mut wire);
        Frame::Bye.encode_into(&mut wire);
        let mut sock = Recording {
            bytes: &wire,
            largest_ask: 0,
        };
        let mut fb = FrameBuffer::new();
        // The floor first: the prefix is not there yet.
        assert_eq!(fb.fill_from(&mut sock).unwrap(), MIN_READ_BYTES);
        // Then exactly the rest of the batch, in one read.
        let batch_len = wire.len() - Frame::Bye.encode().len();
        assert_eq!(fb.fill_from(&mut sock).unwrap(), batch_len - MIN_READ_BYTES);
        assert_eq!(sock.largest_ask, batch_len - MIN_READ_BYTES);
        let Ok(Some(Frame::PageBatchReply { pages, .. })) = fb.pop() else {
            panic!("the batch decodes");
        };
        assert_eq!(fb.pop(), Ok(None));
        // A view keeps the storage: the next read moves the unread bytes
        // (none) to new storage and the view still reads its page.
        let storage = Arc::as_ptr(&fb.buf);
        fb.fill_from(&mut sock).unwrap();
        assert_ne!(Arc::as_ptr(&fb.buf), storage, "wrote under a live view");
        assert_eq!(fb.pop(), Ok(Some(Frame::Bye)));
        assert!(pages.iter().all(|(p, d)| payload_matches(*p, d)));
        assert_eq!(*pages[5].1, page_payload(PageId(5))[..]);
        // With every view gone the storage is reused in place.
        drop(pages);
        let storage = Arc::as_ptr(&fb.buf);
        fb.extend(&Frame::Ping { token: 3 }.encode());
        assert_eq!(
            Arc::as_ptr(&fb.buf),
            storage,
            "unshared storage reallocated"
        );
        assert_eq!(fb.pop(), Ok(Some(Frame::Ping { token: 3 })));
    }

    #[test]
    fn payload_is_deterministic_and_tagged() {
        let a = page_payload(PageId(42));
        let b = page_payload(PageId(42));
        assert_eq!(a, b);
        assert_eq!(&a[..8], &42u64.to_be_bytes());
        assert_ne!(a, page_payload(PageId(43)));
        assert!(payload_matches(PageId(42), &a));
        assert!(!payload_matches(PageId(43), &a), "wrong tag");
        assert!(!payload_matches(PageId(42), &a[..100]), "wrong size");
    }

    #[test]
    fn allocation_free_reply_encoders_match_frame_encode() {
        let page = PageId(97);
        let mut direct = Vec::new();
        encode_page_reply_into(11, page, &mut direct);
        let via_frame = Frame::PageReply {
            req_id: 11,
            page,
            data: page_payload(page).into(),
        }
        .encode();
        assert_eq!(direct, via_frame);

        let batch: Vec<(u64, PageId)> = vec![(5, PageId(0)), (6, PageId(3)), (5, PageId(900))];
        let mut direct = Vec::new();
        encode_page_batch_reply_into(&batch, &mut direct);
        let via_frame = Frame::PageBatchReply {
            req_id: 5,
            pages: batch
                .iter()
                .map(|&(_, p)| (p, page_payload(p).into()))
                .collect(),
        }
        .encode();
        assert_eq!(direct, via_frame, "batch encoder drifted from the codec");

        let entries: Vec<(PageId, u64)> =
            vec![(PageId(4), 1), (PageId(2), 9), (PageId(u64::MAX), 3)];
        let via_frame = Frame::WritebackBatch {
            seq: 17,
            pages: entries
                .iter()
                .map(|&(p, v)| (p, v, page_payload(p).into()))
                .collect(),
        }
        .encode();
        let mut direct = Vec::new();
        encode_writeback_batch_into(17, &entries, &mut direct);
        assert_eq!(
            direct, via_frame,
            "writeback encoder drifted from the codec"
        );
        let mut direct = Vec::new();
        encode_writeback_batch_into(3, &[], &mut direct);
        assert_eq!(
            direct,
            Frame::WritebackBatch {
                seq: 3,
                pages: vec![]
            }
            .encode()
        );

        // Appending after existing bytes leaves them untouched.
        let mut tail = vec![0xAAu8; 7];
        encode_page_reply_into(1, PageId(1), &mut tail);
        assert_eq!(&tail[..7], &[0xAA; 7]);
        let mut tail = vec![0xBBu8; 5];
        encode_writeback_batch_into(17, &entries, &mut tail);
        assert_eq!(&tail[..5], &[0xBB; 5]);
        assert_eq!(&tail[5..], &via_frame[..], "appended writeback frame");
    }

    /// FNV-1a, 64-bit: the payload golden's digest.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn payload_bytes_match_the_golden() {
        // Captured from the running-state synthesizer before the
        // counter-mode one replaced it: the page contents must not move.
        const GOLDEN: [(u64, u64); 7] = [
            (0, 0x016d_867c_d723_a4d4),
            (1, 0xa466_24c1_4590_d59a),
            (42, 0xc622_cb82_29cb_b226),
            (4095, 0x4cc5_2839_d8a9_2e6d),
            ((1 << 32) - 1, 0x4ba9_dfe6_d38e_40c4),
            (1 << 63, 0x10da_98c0_5c9c_29bf),
            (u64::MAX, 0x4249_4a72_490e_b361),
        ];
        for (page, hash) in GOLDEN {
            let got = fnv1a64(&page_payload(PageId(page)));
            assert_eq!(got, hash, "page {page:#x}: payload hash {got:#018x}");
        }
    }

    /// The running-state splitmix64 loop the counter-mode synthesizer
    /// replaced: one state advance and one slice copy per word.
    fn running_state_payload(page: PageId) -> Vec<u8> {
        let mut data = vec![0u8; PAGE_SIZE as usize];
        data[..8].copy_from_slice(&page.0.to_be_bytes());
        let mut x = page.0 ^ 0x9e37_79b9_7f4a_7c15;
        for chunk in data[8..].chunks_mut(8) {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let bytes = z.to_be_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        data
    }

    #[test]
    fn every_synthesizer_build_writes_the_same_page() {
        // `page_payload_into` runs the AVX-512 build where the CPU has
        // it; the portable loop, called directly, is the reference.
        println!("page_payload_into runs the {} build", payload_build());
        let check = |page: PageId| {
            let mut portable = vec![0u8; PAGE_SIZE as usize];
            payload_portable(page, &mut portable);
            let mut chosen = vec![0u8; PAGE_SIZE as usize];
            page_payload_into(page, &mut chosen);
            assert_eq!(portable, chosen, "{page:?}");
        };
        for page in [0, 1, 42, 4095, (1 << 32) - 1, 1 << 63, u64::MAX] {
            check(PageId(page));
        }
        ampom_sim::propcheck::forall("payload-builds", 2_000, |g| {
            check(PageId(g.rng().next_u64()));
        });
    }

    #[test]
    fn counter_mode_payload_equals_the_running_state_loop() {
        for page in [0, 1, 7, 12345, u64::MAX] {
            assert_eq!(
                page_payload(PageId(page)),
                running_state_payload(PageId(page)),
                "page {page}"
            );
        }
        ampom_sim::propcheck::forall("payload-counter-mode", 2_000, |g| {
            let page = PageId(g.rng().next_u64());
            assert_eq!(page_payload(page), running_state_payload(page), "{page:?}");
        });
    }
}
