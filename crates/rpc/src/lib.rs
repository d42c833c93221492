//! # ampom-rpc — the live deputy↔migrant transport
//!
//! Everything else in this workspace simulates the AMPoM protocol; this
//! crate runs it over real sockets. The protocol surface is the
//! [`Transport`](ampom_core::Transport) trait extracted from the runner:
//!
//! * [`frame`] — the length-prefixed binary frame codec (one frame type
//!   per simulated message type, big-endian, typed decode errors),
//! * [`server`] — [`DeputyServer`]: the home-node deputy as a bounded
//!   pool of readiness-driven reactor shards over TCP or Unix-domain
//!   sockets,
//! * [`poll`] — the std-only `poll(2)` readiness wait the reactor (and
//!   the `deputybench` load driver) park in,
//! * [`client`] — [`MigrantClient`]: connection, handshake, frame I/O
//!   and reconnection for the migrant side,
//! * [`live`] — [`LiveTransport`]: plugs the client into
//!   [`run_with_transport`](ampom_core::run_with_transport), reusing the
//!   [`RetrySchedule`](ampom_core::RetrySchedule) recovery protocol
//!   unchanged on measured wall-clock timeouts,
//! * [`calibrate`] — the live oM_infoD handshake: RTT probes and a timed
//!   bulk fetch produce a
//!   [`MeasuredLink`](ampom_net::calibration::MeasuredLink) whose
//!   `LinkConfig` makes the simulator reproduce the measured wire.
//!
//! The crate is std-only: blocking sockets, a small worker pool, no
//! external dependencies — the same footprint as the openMosix kernel
//! code it stands in for.

pub mod calibrate;
pub mod client;
pub mod frame;
pub mod live;
pub mod poll;
pub mod server;

use std::fmt;

use ampom_core::AmpomError;

pub use calibrate::{calibrate_endpoint, CalibrateOptions};
pub use client::{Endpoint, MigrantClient};
pub use frame::{
    CodecError, Frame, FrameBuffer, PageView, WireStats, MAX_FRAME_BYTES, WIRE_VERSION,
};
pub use live::{run_live, LiveOptions, LiveReport, LiveTransport};
pub use server::{DeputyServer, PendingQueue, ServerConfig, ServerStats};

#[cfg(unix)]
pub use poll::Poller;

/// A failure of the live transport machinery.
///
/// Socket-level trouble (timeouts, resets, EOF) is normally absorbed by
/// the recovery protocol; an `RpcError` surfaces only when the protocol
/// itself cannot continue — handshake rejection, unrecoverable codec
/// state, or I/O failure past the retry budget.
#[derive(Debug)]
pub enum RpcError {
    /// An operating-system socket error.
    Io(std::io::Error),
    /// The byte stream no longer parses as frames (framing is lost, the
    /// connection must be abandoned).
    Codec(CodecError),
    /// The peer rejected or garbled the version handshake.
    Handshake(String),
    /// A frame violated the protocol state machine.
    Protocol(String),
    /// The peer closed the connection.
    Disconnected,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "socket error: {e}"),
            RpcError::Codec(e) => write!(f, "codec error: {e}"),
            RpcError::Handshake(why) => write!(f, "handshake failed: {why}"),
            RpcError::Protocol(why) => write!(f, "protocol violation: {why}"),
            RpcError::Disconnected => write!(f, "peer closed the connection"),
        }
    }
}

impl std::error::Error for RpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpcError::Io(e) => Some(e),
            RpcError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e)
    }
}

impl From<CodecError> for RpcError {
    fn from(e: CodecError) -> Self {
        RpcError::Codec(e)
    }
}

impl From<RpcError> for AmpomError {
    fn from(e: RpcError) -> Self {
        AmpomError::Transport(e.to_string())
    }
}
