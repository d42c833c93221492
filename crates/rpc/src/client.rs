//! The migrant-side connection: dial, handshake, frame I/O, reconnect.
//!
//! [`MigrantClient`] owns one socket to the deputy and the framing state
//! on it. It is deliberately mechanical — *when* to retry, degrade or
//! reconnect is decided by the shared
//! [`RetrySchedule`](ampom_core::RetrySchedule) driven from
//! [`LiveTransport`](crate::live::LiveTransport); the client only
//! provides the verbs (send a frame, receive with a deadline, redial).
//!
//! Client→deputy frames are small (a maximal 64-page request is under
//! 600 bytes), so sends never block on a full socket buffer while the
//! deputy is itself blocked writing replies — the client can always
//! finish a send and return to draining the reply stream, which is what
//! makes a single-threaded migrant deadlock-free.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ampom_mem::page::{PageId, PAGE_SIZE};

use crate::frame::{encode_writeback_batch_into, Frame, FrameBuffer, WIRE_VERSION};
use crate::RpcError;

/// Where the deputy listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, `host:port`.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// A TCP endpoint.
    pub fn tcp(addr: impl Into<String>) -> Self {
        Endpoint::Tcp(addr.into())
    }

    /// A Unix-domain endpoint.
    #[cfg(unix)]
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        Endpoint::Unix(path.into())
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// What the receive loops need of a socket beyond [`Read`]; the tests
/// script it to inject the errors a real socket returns.
trait Socket: Read {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()>;
    fn set_nonblocking(&self, on: bool) -> io::Result<()>;
}

impl Socket for Stream {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(on),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// How long the version handshake may take before the connection is
/// declared dead. Generous: this also covers TCP connection setup.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// The receive side of a session: socket bytes, framed.
struct Inbox {
    fb: FrameBuffer,
    bytes_received: u64,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            fb: FrameBuffer::new(),
            bytes_received: 0,
        }
    }

    /// One read from `sock` straight into the frame buffer. `Ok(true)`
    /// means bytes arrived or a signal interrupted the read, and the
    /// caller reads again; `Ok(false)` means the socket has nothing for
    /// now (it would block, or its read timeout passed). A signal can
    /// interrupt even under `SA_RESTART`: a receive with a timeout set is
    /// never restarted (signal(7)).
    fn fill(&mut self, sock: &mut impl Socket) -> Result<bool, RpcError> {
        match self.fb.fill_from(sock) {
            Ok(0) => Err(RpcError::Disconnected),
            Ok(n) => {
                self.bytes_received += n as u64;
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(true),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(RpcError::Io(e)),
        }
    }

    /// [`MigrantClient::recv`] over `sock`.
    fn recv(
        &mut self,
        sock: &mut impl Socket,
        timeout: Duration,
    ) -> Result<Option<Frame>, RpcError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.fb.pop()? {
                return Ok(Some(frame));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            // set_read_timeout(0) would mean "block forever"; the
            // deadline check above guarantees remaining > 0 here.
            sock.set_read_timeout(Some(remaining))?;
            if !self.fill(sock)? {
                return Ok(None);
            }
        }
    }

    /// [`MigrantClient::try_recv`] over `sock`.
    fn try_recv(&mut self, sock: &mut impl Socket) -> Result<Option<Frame>, RpcError> {
        loop {
            if let Some(frame) = self.fb.pop()? {
                return Ok(Some(frame));
            }
            if !self.fill(sock)? {
                return Ok(None);
            }
        }
    }

    /// [`MigrantClient::drain`] over `sock`. Complete frames are taken
    /// out before each read, so every read is sized by the frame still
    /// arriving.
    fn drain(&mut self, sock: &mut impl Socket) -> Result<Vec<Frame>, RpcError> {
        let mut frames = Vec::new();
        sock.set_nonblocking(true)?;
        let outcome = loop {
            if let Err(e) = self.pop_all(&mut frames) {
                break Err(e);
            }
            match self.fill(sock) {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        // Restore blocking mode before surfacing any error.
        sock.set_nonblocking(false)?;
        outcome?;
        Ok(frames)
    }

    /// Moves every complete buffered frame to `frames`.
    fn pop_all(&mut self, frames: &mut Vec<Frame>) -> Result<(), RpcError> {
        while let Some(frame) = self.fb.pop()? {
            frames.push(frame);
        }
        Ok(())
    }
}

/// One migrant session with the deputy.
pub struct MigrantClient {
    endpoint: Endpoint,
    stream: Stream,
    inbox: Inbox,
    /// Outbound frame bytes, reused by every send.
    wire: Vec<u8>,
    total_pages: u64,
    scheme_byte: u8,
    next_req_id: u64,
    next_call_id: u64,
    next_token: u64,
    bytes_sent: u64,
}

impl std::fmt::Debug for MigrantClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigrantClient")
            .field("endpoint", &self.endpoint)
            .field("total_pages", &self.total_pages)
            .field("bytes_sent", &self.bytes_sent)
            .field("bytes_received", &self.inbox.bytes_received)
            .finish()
    }
}

impl MigrantClient {
    /// Dials the deputy and completes the version handshake for a
    /// migrant whose address space spans `total_pages` pages.
    pub fn connect(
        endpoint: Endpoint,
        total_pages: u64,
        scheme_byte: u8,
    ) -> Result<MigrantClient, RpcError> {
        let stream = dial(&endpoint)?;
        let mut client = MigrantClient {
            endpoint,
            stream,
            inbox: Inbox::new(),
            wire: Vec::new(),
            total_pages,
            scheme_byte,
            next_req_id: 1,
            next_call_id: 1,
            next_token: 1,
            bytes_sent: 0,
        };
        client.handshake()?;
        Ok(client)
    }

    /// Drops the current socket, redials and re-handshakes. Buffered
    /// partial frames from the dead connection are discarded (framing
    /// restarts clean on the new byte stream).
    pub fn reconnect(&mut self) -> Result<(), RpcError> {
        self.stream = dial(&self.endpoint)?;
        self.inbox.fb = FrameBuffer::new();
        self.handshake()
    }

    fn handshake(&mut self) -> Result<(), RpcError> {
        self.send(&Frame::Hello {
            version: WIRE_VERSION,
            total_pages: self.total_pages,
            scheme: self.scheme_byte,
        })?;
        match self.recv(HANDSHAKE_TIMEOUT)? {
            Some(Frame::HelloAck { version, page_size }) => {
                if version != WIRE_VERSION {
                    return Err(RpcError::Handshake(format!(
                        "deputy speaks version {version}, we speak {WIRE_VERSION}"
                    )));
                }
                if u64::from(page_size) != PAGE_SIZE {
                    return Err(RpcError::Handshake(format!(
                        "deputy serves {page_size}-byte pages, we use {PAGE_SIZE}"
                    )));
                }
                Ok(())
            }
            Some(Frame::Error { code, detail }) => Err(RpcError::Handshake(format!(
                "deputy error {code}: {detail}"
            ))),
            Some(other) => Err(RpcError::Handshake(format!(
                "expected hello-ack, got frame type {:#04x}",
                other.type_byte()
            ))),
            None => Err(RpcError::Handshake("hello-ack timed out".into())),
        }
    }

    /// Encodes and writes one frame (flushed — requests must not sit in
    /// a userspace buffer while we wait for their replies).
    pub fn send(&mut self, frame: &Frame) -> Result<(), RpcError> {
        self.wire.clear();
        frame.encode_into(&mut self.wire);
        self.write_wire()
    }

    /// Writes and flushes the encoded bytes in `self.wire`.
    fn write_wire(&mut self) -> Result<(), RpcError> {
        self.stream.write_all(&self.wire)?;
        self.stream.flush()?;
        self.bytes_sent += self.wire.len() as u64;
        Ok(())
    }

    /// Receives the next frame, waiting at most `timeout`. `Ok(None)`
    /// means the deadline passed with no complete frame;
    /// [`RpcError::Disconnected`] means the deputy closed the stream. A
    /// read a signal interrupts is retried within the same deadline.
    pub fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, RpcError> {
        self.inbox.recv(&mut self.stream, timeout)
    }

    /// Switches the socket's blocking mode. The `deputybench` driver
    /// multiplexes thousands of clients through one poll loop, so it
    /// flips them all non-blocking and consumes replies via
    /// [`MigrantClient::try_recv`]; the blocking verbs above assume the
    /// default blocking mode.
    pub fn set_nonblocking(&mut self, on: bool) -> Result<(), RpcError> {
        self.stream.set_nonblocking(on)?;
        Ok(())
    }

    /// The raw socket descriptor, for registering with a
    /// [`Poller`](crate::poll::Poller).
    #[cfg(unix)]
    pub fn as_raw_fd(&self) -> std::os::unix::io::RawFd {
        match &self.stream {
            Stream::Tcp(s) => {
                use std::os::unix::io::AsRawFd;
                s.as_raw_fd()
            }
            Stream::Unix(s) => {
                use std::os::unix::io::AsRawFd;
                s.as_raw_fd()
            }
        }
    }

    /// Non-blocking receive: returns an already-buffered frame or reads
    /// whatever the socket has. `Ok(None)` means no complete frame is
    /// available yet. The socket must be in non-blocking mode
    /// ([`MigrantClient::set_nonblocking`]) — on a blocking socket this
    /// degenerates to a blocking read.
    pub fn try_recv(&mut self) -> Result<Option<Frame>, RpcError> {
        self.inbox.try_recv(&mut self.stream)
    }

    /// Drains every frame already available without blocking.
    pub fn drain(&mut self) -> Result<Vec<Frame>, RpcError> {
        self.inbox.drain(&mut self.stream)
    }

    /// Sends a paging request — demand page first, prefetch zone after —
    /// and returns the request id its replies will echo. An empty
    /// `demand` makes it a [`Frame::PrefetchBatch`].
    pub fn send_request(
        &mut self,
        demand: Option<PageId>,
        prefetch: &[PageId],
    ) -> Result<u64, RpcError> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let frame = match demand {
            Some(d) => {
                let mut pages = Vec::with_capacity(prefetch.len() + 1);
                pages.push(d);
                pages.extend_from_slice(prefetch);
                Frame::PageRequest { req_id, pages }
            }
            None => Frame::PrefetchBatch {
                req_id,
                pages: prefetch.to_vec(),
            },
        };
        self.send(&frame)?;
        Ok(req_id)
    }

    /// Sends one writeback delta batch — `(page, version)` pairs with
    /// deterministic page payloads — and returns the batch sequence
    /// number its [`Frame::WritebackAck`] will echo. Each page's payload
    /// is synthesized once, straight into the outbound buffer.
    pub fn send_writeback(&mut self, seq: u64, entries: &[(PageId, u64)]) -> Result<u64, RpcError> {
        self.wire.clear();
        encode_writeback_batch_into(seq, entries, &mut self.wire);
        self.write_wire()?;
        Ok(seq)
    }

    /// Begins home-return migration: sends a [`Frame::ReturnRequest`]
    /// and waits for the deputy's accounting. Frames that arrive in
    /// between (stale page replies, writeback acks) are returned
    /// alongside so the caller can process them.
    pub fn send_return(&mut self, timeout: Duration) -> Result<((u64, u64), Vec<Frame>), RpcError> {
        self.send(&Frame::ReturnRequest)?;
        let mut stray = Vec::new();
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.recv(remaining)? {
                Some(Frame::ReturnAck {
                    stub_pages,
                    freed_pages,
                }) => return Ok(((stub_pages, freed_pages), stray)),
                Some(other) => stray.push(other),
                None => {
                    return Err(RpcError::Protocol(format!(
                        "return-ack unanswered after {timeout:?}"
                    )))
                }
            }
        }
    }

    /// Forwards a system call and returns its call id.
    pub fn send_syscall(&mut self, work_ns: u64) -> Result<u64, RpcError> {
        let call_id = self.next_call_id;
        self.next_call_id += 1;
        self.send(&Frame::SyscallForward { call_id, work_ns })?;
        Ok(call_id)
    }

    /// One RTT probe: sends a ping and measures the wall time to its
    /// pong. Frames that arrive in between (stale page replies) are
    /// returned so the caller can process them instead of losing them.
    pub fn ping(&mut self, timeout: Duration) -> Result<(Duration, Vec<Frame>), RpcError> {
        let token = self.next_token;
        self.next_token += 1;
        let sent = Instant::now();
        self.send(&Frame::Ping { token })?;
        let mut stray = Vec::new();
        let deadline = sent + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.recv(remaining)? {
                Some(Frame::Pong { token: t }) if t == token => {
                    return Ok((sent.elapsed(), stray));
                }
                Some(other) => stray.push(other),
                None => {
                    return Err(RpcError::Protocol(format!(
                        "ping {token} unanswered after {timeout:?}"
                    )))
                }
            }
        }
    }

    /// Total wire bytes written to the deputy.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total wire bytes read from the deputy.
    pub fn bytes_received(&self) -> u64 {
        self.inbox.bytes_received
    }

    /// The endpoint this client dials.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }
}

impl ampom_obs::MetricSource for MigrantClient {
    fn export_metrics(&self, reg: &mut ampom_obs::MetricsRegistry) {
        reg.export_counter(
            "ampom_migrant_bytes_sent_total",
            "Wire bytes written to the deputy",
            self.bytes_sent,
        );
        reg.export_counter(
            "ampom_migrant_bytes_received_total",
            "Wire bytes read from the deputy",
            self.inbox.bytes_received,
        );
    }
}

fn dial(endpoint: &Endpoint) -> Result<Stream, RpcError> {
    match endpoint {
        Endpoint::Tcp(addr) => {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A socket that replays a script of read results, then reports
    /// `WouldBlock`.
    struct Script(VecDeque<io::Result<Vec<u8>>>);

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => Err(ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Socket for Script {
        fn set_read_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn set_nonblocking(&self, _: bool) -> io::Result<()> {
            Ok(())
        }
    }

    fn interrupted() -> io::Result<Vec<u8>> {
        Err(ErrorKind::Interrupted.into())
    }

    #[test]
    fn an_interrupted_read_still_delivers_the_frame() {
        let wire = Frame::Pong { token: 9 }.encode();
        let mut sock = Script(VecDeque::from([interrupted(), Ok(wire.clone())]));
        let got = Inbox::new().recv(&mut sock, Duration::from_secs(5));
        assert_eq!(
            got.expect("a signal is not an error"),
            Some(Frame::Pong { token: 9 })
        );

        let mut sock = Script(VecDeque::from([interrupted(), Ok(wire.clone())]));
        let got = Inbox::new().try_recv(&mut sock).expect("try_recv retries");
        assert_eq!(got, Some(Frame::Pong { token: 9 }));

        // drain: a signal between the two halves of a frame.
        let (head, rest) = wire.split_at(3);
        let mut sock = Script(VecDeque::from([
            Ok(head.to_vec()),
            interrupted(),
            Ok(rest.to_vec()),
        ]));
        let mut inbox = Inbox::new();
        let got = inbox.drain(&mut sock).expect("drain retries");
        assert_eq!(got, vec![Frame::Pong { token: 9 }]);
        assert_eq!(inbox.bytes_received, wire.len() as u64);
    }

    #[test]
    fn recv_surfaces_real_errors_and_timeouts() {
        let mut sock = Script(VecDeque::from([Err(ErrorKind::ConnectionReset.into())]));
        let got = Inbox::new().recv(&mut sock, Duration::from_secs(5));
        assert!(matches!(got, Err(RpcError::Io(e)) if e.kind() == ErrorKind::ConnectionReset));
        let mut sock = Script(VecDeque::from([Ok(Vec::new())]));
        let got = Inbox::new().recv(&mut sock, Duration::from_secs(5));
        assert!(matches!(got, Err(RpcError::Disconnected)));
        // An exhausted script reads as an expired read timeout.
        let mut sock = Script(VecDeque::new());
        let got = Inbox::new().recv(&mut sock, Duration::from_secs(5));
        assert!(matches!(got, Ok(None)));
    }
}
