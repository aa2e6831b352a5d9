//! # mkse-protocol — the three-party protocol with cost accounting
//!
//! The paper's system model (§3, Figure 1) has three roles:
//!
//! * the **data owner**, who holds the secret keys, builds the searchable indices, encrypts
//!   the documents, and stays online only to answer trapdoor requests and blind-decryption
//!   requests;
//! * **users**, who obtain trapdoors, build query indices, search, and retrieve documents;
//! * the **cloud server**, which stores encrypted documents plus their searchable indices and
//!   answers queries with pure bit-comparisons, learning nothing about keywords or contents.
//!
//! This crate implements all three as in-process actors ([`DataOwner`], [`User`],
//! [`CloudServer`]) connected by an explicit message layer ([`messages`]) whose sizes are
//! tracked in a [`CostLedger`]. Running a full round through [`session::SearchSession`]
//! therefore reproduces both Table 1 (communication bits per party and phase) and Table 2
//! (operation counts per party), and the end-to-end examples of this repository are built on
//! the same actors.
//!
//! ## The envelope API
//!
//! Every operation a party serves is expressible as one [`envelope::Request`] and
//! answered as one [`envelope::Response`]; [`CloudServer`] and [`DataOwner`] both
//! implement [`envelope::Service`] (`fn call(&mut self, Request) -> Response`) as
//! their single entry point. The [`wire`] module frames envelopes as
//! length-prefixed bytes (version byte + request id), and [`Client`] is the
//! one pipelined client every session, example and socket caller speaks
//! through: submit many requests, flush once, correlate replies by id out of
//! order — in process over a [`Service`], or over a [`link`] (TCP or an
//! in-process memory pipe). Its typed calls are written once, in
//! [`TypedCalls`]. A direct `Service::call` and the framed codec return
//! byte-identical replies (`tests/envelope_equivalence.rs` proves it).

#![forbid(unsafe_code)]

pub mod channel;
pub mod client;
pub mod counters;
pub mod data_owner;
pub mod envelope;
pub mod frame;
pub mod link;
pub mod messages;
pub mod metrics;
pub mod server;
pub mod session;
pub mod user;
pub mod wire;

pub use channel::{CostLedger, Party, Phase};
pub use client::{serve, Client, ClientError, Link, TypedCalls, WireStats};
pub use counters::OperationCounters;
pub use data_owner::{DataOwner, OwnerConfig};
pub use envelope::{
    answer_query_group, NodeCapabilities, NodeHeartbeat, NodeRegistration, Request, Response,
    ServerInfo, Service, ShardAssignment, PROTOCOL_VERSION,
};
pub use frame::FrameBuffer;
pub use messages::*;
pub use metrics::{render_json, render_prometheus, render_text};
pub use server::CloudServer;
pub use session::{SearchSession, SessionReport, WireReport};
pub use user::User;
pub use wire::CodecError;

/// Transport-layer faults a server enforces on a connection (surfaced as
/// [`ProtocolError::Transport`]). These are connection-hygiene rejections,
/// not codec failures: the frame stream itself may be well-formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// A frame's length prefix declared more bytes than the server accepts;
    /// the frame is refused before any payload is buffered and the
    /// connection is closed.
    FrameTooLarge {
        /// Bytes the length prefix declared.
        declared: u64,
        /// The server's configured maximum frame size.
        max: u64,
    },
    /// The connection sat idle (no bytes received) longer than the server's
    /// configured idle timeout and was closed instead of pinning a reader
    /// thread forever.
    IdleTimeout {
        /// The configured idle limit, in milliseconds.
        idle_ms: u64,
    },
    /// The server's hub-wide in-flight budget was exhausted and this request
    /// was shed *before execution*: the server did no work for it, wrote this
    /// typed reply instead of stalling the reader, and kept the connection
    /// open. Because a shed request was never executed, it is safe to retry
    /// even non-idempotent operations after the advisory backoff.
    Overloaded {
        /// Advisory backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::FrameTooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte limit")
            }
            TransportError::IdleTimeout { idle_ms } => {
                write!(f, "connection idle for more than {idle_ms} ms")
            }
            TransportError::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "server overloaded, request shed before execution; retry after {retry_after_ms} ms"
                )
            }
        }
    }
}

/// Errors surfaced by the protocol actors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A signature did not verify; the request is rejected (non-impersonation, Theorem 4).
    BadSignature,
    /// The requested document does not exist on the server.
    UnknownDocument(u64),
    /// A cryptographic operation failed (wraps the crypto layer's error).
    Crypto(String),
    /// The user asked for more documents than matched.
    NotEnoughMatches { requested: usize, available: usize },
    /// An uploaded index was rejected by the server's store (wraps the storage
    /// layer's error: geometry mismatch or duplicate document id).
    Store(mkse_core::storage::StoreError),
    /// An index snapshot could not be decoded or restored (wraps the persistence
    /// layer's error).
    Persistence(mkse_core::persistence::PersistenceError),
    /// A wire frame could not be encoded/decoded, or a reply did not match its
    /// request (wraps the framed codec's error).
    Codec(wire::CodecError),
    /// The request reached a party that does not serve this operation (e.g. a
    /// trapdoor request sent to the cloud server).
    Unsupported(String),
    /// A transport enforced connection hygiene (frame-size limit, idle
    /// timeout) and rejected the connection.
    Transport(TransportError),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::BadSignature => write!(f, "signature verification failed"),
            ProtocolError::UnknownDocument(id) => write!(f, "unknown document {id}"),
            ProtocolError::Crypto(e) => write!(f, "cryptographic failure: {e}"),
            ProtocolError::NotEnoughMatches {
                requested,
                available,
            } => {
                write!(
                    f,
                    "requested {requested} documents but only {available} matched"
                )
            }
            ProtocolError::Store(e) => write!(f, "upload rejected: {e}"),
            ProtocolError::Persistence(e) => write!(f, "snapshot restore failed: {e}"),
            ProtocolError::Codec(e) => write!(f, "wire codec failure: {e}"),
            ProtocolError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            ProtocolError::Transport(e) => write!(f, "transport rejected the connection: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<TransportError> for ProtocolError {
    fn from(e: TransportError) -> Self {
        ProtocolError::Transport(e)
    }
}

impl From<mkse_crypto::CryptoError> for ProtocolError {
    fn from(e: mkse_crypto::CryptoError) -> Self {
        ProtocolError::Crypto(e.to_string())
    }
}

impl From<mkse_core::storage::StoreError> for ProtocolError {
    fn from(e: mkse_core::storage::StoreError) -> Self {
        ProtocolError::Store(e)
    }
}

impl From<mkse_core::persistence::PersistenceError> for ProtocolError {
    fn from(e: mkse_core::persistence::PersistenceError) -> Self {
        ProtocolError::Persistence(e)
    }
}

impl From<wire::CodecError> for ProtocolError {
    fn from(e: wire::CodecError) -> Self {
        ProtocolError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!format!("{}", ProtocolError::BadSignature).is_empty());
        assert!(format!("{}", ProtocolError::UnknownDocument(9)).contains('9'));
        assert!(format!("{}", ProtocolError::Crypto("x".into())).contains('x'));
        assert!(format!(
            "{}",
            ProtocolError::NotEnoughMatches {
                requested: 5,
                available: 2
            }
        )
        .contains('5'));
    }

    #[test]
    fn crypto_error_converts() {
        let e: ProtocolError = mkse_crypto::CryptoError::MessageTooLarge.into();
        assert!(matches!(e, ProtocolError::Crypto(_)));
    }

    #[test]
    fn transport_error_converts_and_displays() {
        let e: ProtocolError = TransportError::FrameTooLarge {
            declared: 1 << 30,
            max: 1 << 20,
        }
        .into();
        assert!(matches!(e, ProtocolError::Transport(_)));
        assert!(format!("{e}").contains("limit"));
        let idle = ProtocolError::Transport(TransportError::IdleTimeout { idle_ms: 250 });
        assert!(format!("{idle}").contains("250"));
        let shed = ProtocolError::Transport(TransportError::Overloaded { retry_after_ms: 7 });
        assert!(format!("{shed}").contains("overloaded"));
        assert!(format!("{shed}").contains('7'));
    }

    #[test]
    fn codec_error_converts_and_displays() {
        let e: ProtocolError = wire::CodecError::UnknownVersion(3).into();
        assert!(matches!(e, ProtocolError::Codec(_)));
        assert!(format!("{e}").contains("codec"));
        let u = ProtocolError::Unsupported("Trapdoor at the server".into());
        assert!(format!("{u}").contains("unsupported"));
    }

    #[test]
    fn persistence_error_converts_and_displays() {
        let e: ProtocolError = mkse_core::persistence::PersistenceError::BadMagic.into();
        assert!(matches!(e, ProtocolError::Persistence(_)));
        assert!(format!("{e}").contains("restore"));
    }

    #[test]
    fn store_error_converts_and_displays() {
        let e: ProtocolError = mkse_core::storage::StoreError::DuplicateDocument(3).into();
        assert!(matches!(e, ProtocolError::Store(_)));
        assert!(format!("{e}").contains('3'));
    }
}
