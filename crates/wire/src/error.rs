//! Wire-layer error types: decode failures, transport failures, and the
//! compact fault vocabulary that carries store-side errors across the wire.

use std::fmt;

use apcache_runtime::RuntimeError;
use apcache_store::codec::DecodeError;
use apcache_store::StoreError;

/// Errors raised while encoding, decoding, or transporting frames.
///
/// Decoding is *defensive*: arbitrary byte inputs must map onto one of
/// these variants — never a panic, never an unbounded allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced content did (truncated length
    /// prefix, truncated body, or a string/sequence longer than the bytes
    /// that follow it).
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The length prefix announces a frame larger than the configured cap
    /// ([`MAX_FRAME_LEN`](crate::transport::MAX_FRAME_LEN)) — rejected before
    /// any allocation, so a hostile prefix cannot balloon memory.
    FrameTooLarge {
        /// Announced payload length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The frame does not start with the protocol magic byte.
    BadMagic(u8),
    /// The frame speaks a protocol version this decoder does not.
    BadVersion(u8),
    /// A tag byte named no known variant.
    UnknownTag {
        /// What the decoder was reading (message, verb, constraint, …).
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The frame decoded fully but bytes were left over inside the
    /// announced frame length.
    TrailingBytes {
        /// Number of unconsumed bytes.
        count: usize,
    },
    /// A decoded field violated its invariant (NaN interval bound,
    /// inverted interval, a bool byte that is neither 0 nor 1, …).
    InvalidPayload(&'static str),
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// The peer answered a request with the wrong response kind — the
    /// stream is desynchronized.
    UnexpectedResponse(&'static str),
    /// A response carried a request id that is not in flight on this
    /// connection (never issued, or already answered) — the pipelining
    /// correlation is broken.
    UnknownRequestId {
        /// The offending id.
        id: u64,
    },
    /// The connection closed cleanly at a frame boundary.
    Closed,
    /// An I/O failure underneath the transport (stringified: `io::Error`
    /// is neither `Clone` nor `PartialEq`, and tests compare errors).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} more byte(s), had {available}")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            WireError::BadMagic(b) => write!(f, "bad magic byte 0x{b:02x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownTag { context, tag } => {
                write!(f, "unknown {context} tag 0x{tag:02x}")
            }
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after the frame body")
            }
            WireError::InvalidPayload(what) => write!(f, "invalid payload: {what}"),
            WireError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::UnexpectedResponse(expected) => {
                write!(f, "peer sent the wrong response kind (expected {expected})")
            }
            WireError::UnknownRequestId { id } => {
                write!(f, "response for request id {id} which is not in flight")
            }
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(m) => write!(f, "transport I/O error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The shared codec's decode failures surface as the same-named
/// variants, so callers match on [`WireError`] alone.
impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { needed, available } => {
                WireError::Truncated { needed, available }
            }
            DecodeError::TrailingBytes { count } => WireError::TrailingBytes { count },
            DecodeError::UnknownTag { context, tag } => WireError::UnknownTag { context, tag },
            DecodeError::InvalidPayload(what) => WireError::InvalidPayload(what),
            DecodeError::InvalidUtf8 => WireError::InvalidUtf8,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Category of a remote fault — the wire projection of the server-side
/// error enums ([`StoreError`], [`RuntimeError`]), stable across versions
/// so clients can dispatch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No source is registered for the requested key.
    UnknownKey,
    /// The key is already registered.
    DuplicateKey,
    /// A precision constraint parameter was negative or NaN.
    InvalidConstraint,
    /// Invalid store configuration.
    Config,
    /// Parameter validation failure in the core crate.
    Param,
    /// Refresh protocol misuse.
    Protocol,
    /// Aggregate query engine failure.
    Query,
    /// The serving runtime behind the server has shut down.
    Closed,
    /// A shard actor died without answering.
    ActorGone,
    /// The server does not implement the requested operation.
    Unsupported,
}

impl FaultKind {
    /// Stable wire tag.
    pub(crate) fn tag(self) -> u8 {
        match self {
            FaultKind::UnknownKey => 0,
            FaultKind::DuplicateKey => 1,
            FaultKind::InvalidConstraint => 2,
            FaultKind::Config => 3,
            FaultKind::Param => 4,
            FaultKind::Protocol => 5,
            FaultKind::Query => 6,
            FaultKind::Closed => 7,
            FaultKind::ActorGone => 8,
            FaultKind::Unsupported => 9,
        }
    }

    /// Inverse of [`FaultKind::tag`].
    pub(crate) fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => FaultKind::UnknownKey,
            1 => FaultKind::DuplicateKey,
            2 => FaultKind::InvalidConstraint,
            3 => FaultKind::Config,
            4 => FaultKind::Param,
            5 => FaultKind::Protocol,
            6 => FaultKind::Query,
            7 => FaultKind::Closed,
            8 => FaultKind::ActorGone,
            9 => FaultKind::Unsupported,
            tag => return Err(WireError::UnknownTag { context: "fault kind", tag }),
        })
    }
}

/// A server-side failure, shipped back to the client inside an error
/// frame: a stable [`FaultKind`] for dispatch plus the server's rendered
/// detail message for humans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// Stable error category.
    pub kind: FaultKind,
    /// Human-readable detail (the server-side error's `Display` output).
    pub detail: String,
}

impl WireFault {
    /// A fault with a fresh detail message.
    pub fn new(kind: FaultKind, detail: impl Into<String>) -> Self {
        WireFault { kind, detail: detail.into() }
    }

    /// Project the fault back onto the store-error surface — the inverse
    /// of the `From<StoreError>` conversion, used where a remote shard
    /// stands in for a local one (the wire `ShardBackend`). Structured
    /// variants that lost their payload crossing the wire
    /// (`InvalidConstraint`'s offending value, `Param`'s source) come
    /// back as [`StoreError::Config`] carrying the rendered detail.
    pub fn to_store_error(&self) -> StoreError {
        match self.kind {
            FaultKind::UnknownKey => StoreError::UnknownKey,
            FaultKind::DuplicateKey => StoreError::DuplicateKey,
            _ => StoreError::Config(format!("remote fault ({:?}): {}", self.kind, self.detail)),
        }
    }
}

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "remote fault ({:?}): {}", self.kind, self.detail)
    }
}

impl std::error::Error for WireFault {}

impl From<&StoreError> for WireFault {
    fn from(e: &StoreError) -> Self {
        let kind = match e {
            StoreError::UnknownKey => FaultKind::UnknownKey,
            StoreError::DuplicateKey => FaultKind::DuplicateKey,
            StoreError::InvalidConstraint(_) => FaultKind::InvalidConstraint,
            StoreError::Config(_) => FaultKind::Config,
            StoreError::Param(_) => FaultKind::Param,
            StoreError::Protocol(_) => FaultKind::Protocol,
            StoreError::Query(_) => FaultKind::Query,
            // Durability-layer failures are server-side environment
            // problems; clients see them as a config-class fault.
            StoreError::Spool(_) => FaultKind::Config,
        };
        WireFault::new(kind, e.to_string())
    }
}

impl From<StoreError> for WireFault {
    fn from(e: StoreError) -> Self {
        WireFault::from(&e)
    }
}

impl From<RuntimeError> for WireFault {
    fn from(e: RuntimeError) -> Self {
        match e {
            RuntimeError::Store(e) => WireFault::from(&e),
            RuntimeError::Closed => WireFault::new(FaultKind::Closed, e.to_string()),
            RuntimeError::ActorGone => WireFault::new(FaultKind::ActorGone, e.to_string()),
            RuntimeError::Spawn(_) => WireFault::new(FaultKind::Config, e.to_string()),
            // A lost ticket is a serving-side bookkeeping failure; the
            // client sees the runtime as unable to answer.
            RuntimeError::UnknownTicket(_) => WireFault::new(FaultKind::ActorGone, e.to_string()),
        }
    }
}

/// What a [`RemoteStoreClient`](crate::RemoteStoreClient) call can fail
/// with: either the wire itself broke, or the wire worked and the server
/// reported a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum RemoteError {
    /// Encode/decode/transport failure — the connection is suspect.
    Wire(WireError),
    /// The server processed the request and rejected it; the connection
    /// remains usable.
    Remote(WireFault),
}

impl RemoteError {
    /// The remote fault's kind, if this is a remote rejection.
    pub fn fault_kind(&self) -> Option<FaultKind> {
        match self {
            RemoteError::Remote(f) => Some(f.kind),
            RemoteError::Wire(_) => None,
        }
    }
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Wire(e) => write!(f, "wire error: {e}"),
            RemoteError::Remote(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RemoteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RemoteError::Wire(e) => Some(e),
            RemoteError::Remote(e) => Some(e),
        }
    }
}

impl From<WireError> for RemoteError {
    fn from(e: WireError) -> Self {
        RemoteError::Wire(e)
    }
}

impl From<WireFault> for RemoteError {
    fn from(e: WireFault) -> Self {
        RemoteError::Remote(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kind_tags_round_trip() {
        for kind in [
            FaultKind::UnknownKey,
            FaultKind::DuplicateKey,
            FaultKind::InvalidConstraint,
            FaultKind::Config,
            FaultKind::Param,
            FaultKind::Protocol,
            FaultKind::Query,
            FaultKind::Closed,
            FaultKind::ActorGone,
            FaultKind::Unsupported,
        ] {
            assert_eq!(FaultKind::from_tag(kind.tag()).unwrap(), kind);
        }
        assert!(matches!(FaultKind::from_tag(200), Err(WireError::UnknownTag { .. })));
    }

    #[test]
    fn store_errors_map_onto_stable_kinds() {
        assert_eq!(WireFault::from(StoreError::UnknownKey).kind, FaultKind::UnknownKey);
        assert_eq!(
            WireFault::from(StoreError::InvalidConstraint(-1.0)).kind,
            FaultKind::InvalidConstraint
        );
        let f = WireFault::from(RuntimeError::Closed);
        assert_eq!(f.kind, FaultKind::Closed);
        assert!(f.detail.contains("shut down"));
    }

    #[test]
    fn display_and_sources() {
        let e = RemoteError::from(WireError::BadMagic(0x99));
        assert!(e.to_string().contains("0x99"));
        assert!(std::error::Error::source(&e).is_some());
        assert_eq!(e.fault_kind(), None);
        let e = RemoteError::from(WireFault::new(FaultKind::UnknownKey, "no such key"));
        assert_eq!(e.fault_kind(), Some(FaultKind::UnknownKey));
        assert!(e.to_string().contains("no such key"));
    }
}
