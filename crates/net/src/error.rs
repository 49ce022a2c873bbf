//! Errors of the networked runtime.

use std::fmt;
use std::io;

use rhychee_core::FlError;
use rhychee_fhe::FheError;

/// Errors raised by the wire protocol and the TCP endpoints.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// An underlying socket operation failed (includes read/write
    /// timeouts, surfaced as `TimedOut`/`WouldBlock`).
    Io(io::Error),
    /// The peer violated the wire protocol (bad magic, unknown version
    /// or message type, malformed body, unexpected message).
    Protocol(String),
    /// A frame arrived with a CRC that does not match its contents.
    Crc {
        /// CRC-32 declared in the frame trailer.
        expected: u32,
        /// CRC-32 computed over the received bytes.
        actual: u32,
    },
    /// A frame declared a payload longer than the negotiated cap —
    /// rejected before allocating.
    PayloadTooLarge {
        /// Declared payload length.
        len: u32,
        /// Maximum the endpoint accepts.
        cap: u32,
    },
    /// The round deadline passed with fewer updates than the quorum.
    QuorumNotReached {
        /// The round that failed to close.
        round: usize,
        /// Updates accepted before the deadline.
        received: usize,
        /// Minimum updates required.
        quorum: usize,
    },
    /// The server's streaming aggregation broke an invariant mid-round
    /// and abandoned the fold — distinct from a per-upload NACK, which
    /// rejects one upload and leaves the round running.
    StreamingAbort {
        /// The round whose streamed sum can no longer be trusted.
        round: usize,
        /// What went wrong.
        reason: String,
    },
    /// An FHE operation (ciphertext codec, aggregation) failed.
    Fhe(FheError),
    /// A framework-level operation (training setup, aggregation) failed.
    Fl(FlError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Crc { expected, actual } => {
                write!(f, "frame CRC mismatch: declared {expected:#010x}, computed {actual:#010x}")
            }
            NetError::PayloadTooLarge { len, cap } => {
                write!(f, "declared payload of {len} bytes exceeds the {cap}-byte cap")
            }
            NetError::QuorumNotReached { round, received, quorum } => write!(
                f,
                "round {round}: only {received} update(s) before the deadline (quorum {quorum})"
            ),
            NetError::StreamingAbort { round, reason } => {
                write!(f, "round {round}: streaming aggregation aborted: {reason}")
            }
            NetError::Fhe(e) => write!(f, "FHE failure: {e}"),
            NetError::Fl(e) => write!(f, "framework failure: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Fhe(e) => Some(e),
            NetError::Fl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FheError> for NetError {
    fn from(e: FheError) -> Self {
        NetError::Fhe(e)
    }
}

/// A malformed payload is a protocol violation, whichever layer found it.
impl From<FlError> for NetError {
    fn from(e: FlError) -> Self {
        match e {
            FlError::Payload(msg) => NetError::Protocol(msg),
            FlError::Fhe(e) => NetError::Fhe(e),
            other => NetError::Fl(other),
        }
    }
}
