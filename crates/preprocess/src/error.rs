//! Typed errors for the preprocessing data plane, mirroring the planner's
//! `PlanError` and the daemon's `ServeError`: every failure mode the
//! service or a consumer can hit is a distinct variant carrying the datum
//! a caller needs to react (the queue depth behind a backpressure signal,
//! the peer behind a disconnect), instead of a stringly `io::Error`.

use std::fmt;
use std::net::SocketAddr;

/// Everything that can go wrong in the §6 preprocessing data plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PreprocessError {
    /// A producer endpoint could not bind its listening socket.
    Bind {
        /// The address that failed to bind.
        addr: String,
        /// Rendering of the underlying OS error.
        reason: String,
    },
    /// A peer (producer, from the consumer's side; consumer, from the
    /// producer's side) is gone and the reconnect budget is spent.
    PeerDisconnected {
        /// The peer that went away.
        addr: SocketAddr,
    },
    /// A bounded queue is full: the typed backpressure signal producers
    /// receive instead of buffering without bound. Retryable by
    /// construction — wait for the consumer to drain and push again.
    Backpressured {
        /// Depth of the full queue at rejection time (its capacity).
        queue_depth: usize,
    },
    /// A peer violated the wire protocol (corrupt length header, garbage
    /// JSON, oversized request frame). The session is closed; the plane
    /// survives.
    Malformed {
        /// What the protocol violation was.
        reason: String,
    },
    /// The builder rejected an invalid topology before any socket was
    /// touched (zero workers, zero queue capacity, duplicate addresses).
    InvalidSpec {
        /// Which validation failed.
        reason: String,
    },
}

/// Stable labels and the retry class of each variant, for the tests'
/// typed-error checks.
#[cfg(test)]
impl PreprocessError {
    /// Stable machine-readable label.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            PreprocessError::Bind { .. } => "bind",
            PreprocessError::PeerDisconnected { .. } => "peer_disconnected",
            PreprocessError::Backpressured { .. } => "backpressured",
            PreprocessError::Malformed { .. } => "malformed",
            PreprocessError::InvalidSpec { .. } => "invalid_spec",
        }
    }

    /// Whether retrying (after a pause) can succeed: backpressure always
    /// drains eventually, and a disconnected peer may come back.
    /// `Bind`/`Malformed`/`InvalidSpec` are terminal.
    pub(crate) fn retryable(&self) -> bool {
        matches!(
            self,
            PreprocessError::Backpressured { .. } | PreprocessError::PeerDisconnected { .. }
        )
    }
}

impl fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreprocessError::Bind { addr, reason } => {
                write!(f, "cannot bind producer endpoint {addr}: {reason}")
            }
            PreprocessError::PeerDisconnected { addr } => {
                write!(f, "peer {addr} disconnected and reconnect budget is spent")
            }
            PreprocessError::Backpressured { queue_depth } => {
                write!(
                    f,
                    "bounded queue full at depth {queue_depth} (consumer backpressure)"
                )
            }
            PreprocessError::Malformed { reason } => write!(f, "malformed wire input: {reason}"),
            PreprocessError::InvalidSpec { reason } => {
                write!(f, "invalid preprocess spec: {reason}")
            }
        }
    }
}

impl std::error::Error for PreprocessError {}

impl From<PreprocessError> for std::io::Error {
    /// Interop with `io::Result` call sites: the typed error travels as
    /// the source of an `io::Error` with a faithful `ErrorKind`.
    fn from(e: PreprocessError) -> Self {
        let kind = match &e {
            PreprocessError::Bind { .. } => std::io::ErrorKind::AddrInUse,
            PreprocessError::PeerDisconnected { .. } => std::io::ErrorKind::BrokenPipe,
            PreprocessError::Backpressured { .. } => std::io::ErrorKind::WouldBlock,
            PreprocessError::Malformed { .. } => std::io::ErrorKind::InvalidData,
            PreprocessError::InvalidSpec { .. } => std::io::ErrorKind::InvalidInput,
        };
        std::io::Error::new(kind, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_retryability_are_stable() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let cases: Vec<(PreprocessError, &str, bool)> = vec![
            (
                PreprocessError::Bind {
                    addr: "x".into(),
                    reason: "denied".into(),
                },
                "bind",
                false,
            ),
            (
                PreprocessError::PeerDisconnected { addr },
                "peer_disconnected",
                true,
            ),
            (
                PreprocessError::Backpressured { queue_depth: 4 },
                "backpressured",
                true,
            ),
            (
                PreprocessError::Malformed {
                    reason: "oversized".into(),
                },
                "malformed",
                false,
            ),
            (
                PreprocessError::InvalidSpec {
                    reason: "0 workers".into(),
                },
                "invalid_spec",
                false,
            ),
        ];
        for (e, kind, retryable) in cases {
            assert_eq!(e.kind(), kind);
            assert_eq!(e.retryable(), retryable, "{e}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn io_interop_preserves_the_typed_error_as_source() {
        let e = PreprocessError::Backpressured { queue_depth: 2 };
        let io: std::io::Error = e.clone().into();
        assert_eq!(io.kind(), std::io::ErrorKind::WouldBlock);
        let inner = io
            .get_ref()
            .and_then(|s| s.downcast_ref::<PreprocessError>());
        assert_eq!(inner, Some(&e));
    }
}
