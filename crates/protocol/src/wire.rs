//! The framed wire codec: every [`Request`] / [`Response`] envelope as
//! length-prefixed bytes, with a version byte and a request id for correlation.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! frame   := length u32 | payload              (length = |payload|)
//! payload := version u8 | request_id u64 | kind u8 | body
//! ```
//!
//! The `request_id` is chosen by the client and echoed verbatim in the matching
//! response frame, so a pipelined client can submit many requests and correlate
//! replies arriving in **any** order ([`crate::Client`] does exactly this). The
//! `kind` byte selects the envelope variant; request kinds live below `0x80`,
//! response kinds at or above it, so a frame can never be decoded as the wrong
//! direction.
//!
//! Decoding never panics: truncated buffers, unknown version bytes, unknown
//! kinds, malformed counts and trailing garbage all come back as a typed
//! [`CodecError`] (surfaced as [`crate::ProtocolError::Codec`]). The proptest
//! suite round-trips every envelope variant and fuzzes truncations/corruptions
//! against this guarantee. Frames are capped at `u32::MAX` payload bytes;
//! *encoding* a larger envelope (e.g. a single >4 GiB upload) panics with an
//! explicit message rather than wrapping the prefix into a corrupt stream.
//!
//! Because the codec is the *only* byte representation of the protocol, framed
//! sizes measured by [`crate::Client`] are the system's real communication cost —
//! the measured counterpart of the analytic Table 1 bit counts the
//! [`crate::CostLedger`] also tracks.

use crate::counters::OperationCounters;
use crate::envelope::{
    NodeCapabilities, NodeHeartbeat, NodeRegistration, Request, Response, ServerInfo,
    ShardAssignment, PROTOCOL_VERSION,
};
use crate::messages::{
    BatchQueryMessage, BatchSearchReply, BlindDecryptReply, BlindDecryptRequest, CacheReport,
    DocumentReply, DocumentRequest, EncryptedDocumentTransfer, QueryMessage, SearchReply,
    SearchResultEntry, TrapdoorReply, TrapdoorRequest, UploadMessage,
};
use crate::{ProtocolError, TransportError};
use mkse_core::bitindex::BitIndex;
use mkse_core::cache::CacheStats;
use mkse_core::document_index::RankedDocumentIndex;
use mkse_core::persistence::PersistenceError;
use mkse_core::storage::StoreError;
use mkse_core::telemetry::{
    ConnectionSnapshot, HistogramSnapshot, LaneSnapshot, MetricsSnapshot, ShardCacheSnapshot,
    TelemetryLevel, ValueHistogramSnapshot,
};
use mkse_crypto::bigint::BigUint;
use mkse_crypto::rsa::RsaSignature;

/// Errors produced while encoding-side framing or decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the declared content.
    Truncated,
    /// The frame carries a version this codec does not speak.
    UnknownVersion(u8),
    /// The frame carries an envelope kind this codec does not know.
    UnknownKind(u8),
    /// The frame decoded structurally but its content is invalid.
    Malformed(String),
    /// A reply carried a different envelope variant than the request implies.
    ResponseMismatch {
        /// The variant the caller expected.
        expected: String,
        /// The variant that actually arrived.
        found: String,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame is truncated"),
            CodecError::UnknownVersion(v) => write!(f, "unknown wire version {v}"),
            CodecError::UnknownKind(k) => write!(f, "unknown envelope kind 0x{k:02x}"),
            CodecError::Malformed(what) => write!(f, "malformed frame: {what}"),
            CodecError::ResponseMismatch { expected, found } => {
                write!(f, "expected a {expected} reply, got {found}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

// --- kind bytes --------------------------------------------------------------
// Requests stay below 0x80, responses at or above it.

const K_TRAPDOOR: u8 = 0x01;
const K_QUERY: u8 = 0x02;
const K_BATCH_QUERY: u8 = 0x03;
const K_DOCUMENTS: u8 = 0x04;
const K_BLIND_DECRYPT: u8 = 0x05;
const K_UPLOAD: u8 = 0x06;
const K_ENABLE_CACHE: u8 = 0x07;
const K_DISABLE_CACHE: u8 = 0x08;
const K_CACHE_STATS: u8 = 0x09;
const K_SNAPSHOT: u8 = 0x0a;
const K_RESTORE: u8 = 0x0b;
const K_COUNTERS: u8 = 0x0c;
const K_RESET_COUNTERS: u8 = 0x0d;
const K_SERVER_INFO: u8 = 0x0e;
const K_METRICS_SNAPSHOT: u8 = 0x0f;
const K_REGISTER_NODE: u8 = 0x10;
const K_NODE_HEARTBEAT: u8 = 0x11;

const K_R_SEARCH: u8 = 0x81;
const K_R_BATCH_SEARCH: u8 = 0x82;
const K_R_DOCUMENTS: u8 = 0x83;
const K_R_TRAPDOOR: u8 = 0x84;
const K_R_BLIND_DECRYPT: u8 = 0x85;
const K_R_UPLOADED: u8 = 0x86;
const K_R_ACK: u8 = 0x87;
const K_R_CACHE_STATS: u8 = 0x88;
const K_R_SNAPSHOT: u8 = 0x89;
const K_R_RESTORED: u8 = 0x8a;
const K_R_COUNTERS: u8 = 0x8b;
const K_R_INFO: u8 = 0x8c;
const K_R_ERROR: u8 = 0x8d;
const K_R_METRICS_REPORT: u8 = 0x8e;
const K_R_SHARD_ASSIGNMENT: u8 = 0x8f;

// --- public API --------------------------------------------------------------

/// Encode one request as a complete frame (length prefix included).
pub fn encode_request(request_id: u64, request: &Request) -> Vec<u8> {
    let mut w = Writer::new(request_id, request_kind(request));
    write_request_body(&mut w, request);
    w.finish()
}

/// Encode one response as a complete frame (length prefix included).
pub fn encode_response(request_id: u64, response: &Response) -> Vec<u8> {
    let mut w = Writer::new(request_id, response_kind(response));
    write_response_body(&mut w, response);
    w.finish()
}

/// One frame split off the front of a buffer: `None` when the buffer is empty,
/// otherwise `(frame payload, rest of the buffer)`.
pub type SplitFrame<'a> = Option<(&'a [u8], &'a [u8])>;

/// Split one length-prefixed frame off the front of `buf`.
///
/// Returns `Ok(None)` on an empty buffer, `Ok(Some((payload, rest)))` on a
/// complete frame, and [`CodecError::Truncated`] on a partial one.
pub fn split_frame(buf: &[u8]) -> Result<SplitFrame<'_>, CodecError> {
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.len() < 4 {
        return Err(CodecError::Truncated);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if buf.len() - 4 < len {
        return Err(CodecError::Truncated);
    }
    Ok(Some((&buf[4..4 + len], &buf[4 + len..])))
}

/// Decode one request from a frame payload (as produced by [`split_frame`]).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), CodecError> {
    let mut r = Reader::new(payload);
    let (request_id, kind) = read_header(&mut r)?;
    if kind >= 0x80 {
        return Err(CodecError::Malformed(format!(
            "response kind 0x{kind:02x} in a request frame"
        )));
    }
    let request = read_request_body(&mut r, kind)?;
    r.expect_end()?;
    Ok((request_id, request))
}

/// Decode one response from a frame payload (as produced by [`split_frame`]).
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), CodecError> {
    let mut r = Reader::new(payload);
    let (request_id, kind) = read_header(&mut r)?;
    if kind < 0x80 {
        return Err(CodecError::Malformed(format!(
            "request kind 0x{kind:02x} in a response frame"
        )));
    }
    let response = read_response_body(&mut r, kind)?;
    r.expect_end()?;
    Ok((request_id, response))
}

/// Decode every request frame in `wire`, in stream order.
pub fn decode_request_stream(mut wire: &[u8]) -> Result<Vec<(u64, Request)>, CodecError> {
    let mut out = Vec::new();
    while let Some((payload, rest)) = split_frame(wire)? {
        out.push(decode_request(payload)?);
        wire = rest;
    }
    Ok(out)
}

/// Decode every response frame in `wire`, in stream order.
pub fn decode_response_stream(mut wire: &[u8]) -> Result<Vec<(u64, Response)>, CodecError> {
    let mut out = Vec::new();
    while let Some((payload, rest)) = split_frame(wire)? {
        out.push(decode_response(payload)?);
        wire = rest;
    }
    Ok(out)
}

fn read_header(r: &mut Reader<'_>) -> Result<(u64, u8), CodecError> {
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(CodecError::UnknownVersion(version));
    }
    let request_id = r.u64()?;
    let kind = r.u8()?;
    Ok((request_id, kind))
}

// --- request bodies ----------------------------------------------------------

fn request_kind(request: &Request) -> u8 {
    match request {
        Request::Trapdoor(_) => K_TRAPDOOR,
        Request::Query(_) => K_QUERY,
        Request::BatchQuery(_) => K_BATCH_QUERY,
        Request::Documents(_) => K_DOCUMENTS,
        Request::BlindDecrypt(_) => K_BLIND_DECRYPT,
        Request::Upload(_) => K_UPLOAD,
        Request::EnableCache { .. } => K_ENABLE_CACHE,
        Request::DisableCache => K_DISABLE_CACHE,
        Request::CacheStats => K_CACHE_STATS,
        Request::SnapshotIndex => K_SNAPSHOT,
        Request::RestoreIndex(_) => K_RESTORE,
        Request::Counters => K_COUNTERS,
        Request::ResetCounters => K_RESET_COUNTERS,
        Request::ServerInfo => K_SERVER_INFO,
        Request::MetricsSnapshot => K_METRICS_SNAPSHOT,
        Request::RegisterNode(_) => K_REGISTER_NODE,
        Request::NodeHeartbeat(_) => K_NODE_HEARTBEAT,
    }
}

fn write_request_body(w: &mut Writer, request: &Request) {
    match request {
        Request::Trapdoor(t) => {
            w.u64(t.user_id);
            w.u32(t.bin_ids.len() as u32);
            for b in &t.bin_ids {
                w.u32(*b);
            }
            w.biguint(t.signature.value());
        }
        Request::Query(q) => {
            w.bitindex(&q.query);
            w.opt_u64(q.top.map(|t| t as u64));
        }
        Request::BatchQuery(b) => {
            w.u32(b.queries.len() as u32);
            for q in &b.queries {
                w.bitindex(q);
            }
            w.opt_u64(b.top.map(|t| t as u64));
        }
        Request::Documents(d) => {
            w.u32(d.document_ids.len() as u32);
            for id in &d.document_ids {
                w.u64(*id);
            }
        }
        Request::BlindDecrypt(b) => {
            w.u64(b.user_id);
            w.biguint(&b.blinded_ciphertext);
            w.biguint(b.signature.value());
        }
        Request::Upload(u) => {
            w.u32(u.indices.len() as u32);
            for idx in &u.indices {
                w.ranked_index(idx);
            }
            w.u32(u.documents.len() as u32);
            for doc in &u.documents {
                w.transfer(doc);
            }
        }
        Request::EnableCache { capacity_per_shard } => w.u64(*capacity_per_shard),
        Request::RestoreIndex(bytes) => w.bytes(bytes),
        Request::RegisterNode(reg) => {
            w.u64(reg.node_id);
            w.u32(reg.capabilities.shard_slots);
            w.u32(reg.capabilities.scan_lanes);
            w.u64(reg.capabilities.cache_capacity);
        }
        Request::NodeHeartbeat(beat) => {
            w.u64(beat.node_id);
            w.metrics_snapshot(&beat.metrics);
        }
        Request::DisableCache
        | Request::CacheStats
        | Request::SnapshotIndex
        | Request::Counters
        | Request::ResetCounters
        | Request::ServerInfo
        | Request::MetricsSnapshot => {}
    }
}

fn read_request_body(r: &mut Reader<'_>, kind: u8) -> Result<Request, CodecError> {
    Ok(match kind {
        K_TRAPDOOR => {
            let user_id = r.u64()?;
            let n = r.u32()? as usize;
            let mut bin_ids = Vec::new();
            for _ in 0..n {
                bin_ids.push(r.u32()?);
            }
            let signature = RsaSignature::from_value(r.biguint()?);
            Request::Trapdoor(TrapdoorRequest {
                user_id,
                bin_ids,
                signature,
            })
        }
        K_QUERY => Request::Query(QueryMessage {
            query: r.bitindex()?,
            top: r.opt_u64()?.map(|t| t as usize),
        }),
        K_BATCH_QUERY => {
            let n = r.u32()? as usize;
            let mut queries = Vec::new();
            for _ in 0..n {
                queries.push(r.bitindex()?);
            }
            let top = r.opt_u64()?.map(|t| t as usize);
            Request::BatchQuery(BatchQueryMessage { queries, top })
        }
        K_DOCUMENTS => {
            let n = r.u32()? as usize;
            let mut document_ids = Vec::new();
            for _ in 0..n {
                document_ids.push(r.u64()?);
            }
            Request::Documents(DocumentRequest { document_ids })
        }
        K_BLIND_DECRYPT => Request::BlindDecrypt(BlindDecryptRequest {
            user_id: r.u64()?,
            blinded_ciphertext: r.biguint()?,
            signature: RsaSignature::from_value(r.biguint()?),
        }),
        K_UPLOAD => {
            let n = r.u32()? as usize;
            let mut indices = Vec::new();
            for _ in 0..n {
                indices.push(r.ranked_index()?);
            }
            let m = r.u32()? as usize;
            let mut documents = Vec::new();
            for _ in 0..m {
                documents.push(r.transfer()?);
            }
            Request::Upload(UploadMessage { indices, documents })
        }
        K_ENABLE_CACHE => Request::EnableCache {
            capacity_per_shard: r.u64()?,
        },
        K_DISABLE_CACHE => Request::DisableCache,
        K_CACHE_STATS => Request::CacheStats,
        K_SNAPSHOT => Request::SnapshotIndex,
        K_RESTORE => Request::RestoreIndex(r.bytes()?),
        K_COUNTERS => Request::Counters,
        K_RESET_COUNTERS => Request::ResetCounters,
        K_SERVER_INFO => Request::ServerInfo,
        K_METRICS_SNAPSHOT => Request::MetricsSnapshot,
        K_REGISTER_NODE => Request::RegisterNode(NodeRegistration {
            node_id: r.u64()?,
            capabilities: NodeCapabilities {
                shard_slots: r.u32()?,
                scan_lanes: r.u32()?,
                cache_capacity: r.u64()?,
            },
        }),
        K_NODE_HEARTBEAT => Request::NodeHeartbeat(NodeHeartbeat {
            node_id: r.u64()?,
            metrics: r.metrics_snapshot()?,
        }),
        other => return Err(CodecError::UnknownKind(other)),
    })
}

// --- response bodies ---------------------------------------------------------

fn response_kind(response: &Response) -> u8 {
    match response {
        Response::Search(_) => K_R_SEARCH,
        Response::BatchSearch(_) => K_R_BATCH_SEARCH,
        Response::Documents(_) => K_R_DOCUMENTS,
        Response::Trapdoor(_) => K_R_TRAPDOOR,
        Response::BlindDecrypt(_) => K_R_BLIND_DECRYPT,
        Response::Uploaded { .. } => K_R_UPLOADED,
        Response::Ack => K_R_ACK,
        Response::CacheStats(_) => K_R_CACHE_STATS,
        Response::Snapshot(_) => K_R_SNAPSHOT,
        Response::Restored { .. } => K_R_RESTORED,
        Response::Counters(_) => K_R_COUNTERS,
        Response::Info(_) => K_R_INFO,
        Response::MetricsReport(_) => K_R_METRICS_REPORT,
        Response::ShardAssignment(_) => K_R_SHARD_ASSIGNMENT,
        Response::Error(_) => K_R_ERROR,
    }
}

fn write_response_body(w: &mut Writer, response: &Response) {
    match response {
        Response::Search(reply) => w.search_reply(reply),
        Response::BatchSearch(batch) => {
            w.u32(batch.replies.len() as u32);
            for reply in &batch.replies {
                w.search_reply(reply);
            }
        }
        Response::Documents(reply) => {
            w.u32(reply.documents.len() as u32);
            for doc in &reply.documents {
                w.transfer(doc);
            }
        }
        Response::Trapdoor(reply) => {
            w.u32(reply.encrypted_bin_keys.len() as u32);
            for (bin, key) in &reply.encrypted_bin_keys {
                w.u32(*bin);
                w.biguint(key);
            }
        }
        Response::BlindDecrypt(reply) => w.biguint(&reply.blinded_plaintext),
        Response::Uploaded { documents } | Response::Restored { documents } => w.u64(*documents),
        Response::Ack => {}
        Response::CacheStats(stats) => match stats {
            None => w.u8(0),
            Some(s) => {
                w.u8(1);
                w.u64(s.hits);
                w.u64(s.misses);
                w.u64(s.evictions);
                w.u64(s.invalidations);
                w.u64(s.saved_comparisons);
            }
        },
        Response::Snapshot(bytes) => w.bytes(bytes),
        Response::Counters(c) => w.counters(c),
        Response::Info(info) => {
            w.u64(info.shards);
            w.u64(info.documents);
            w.u64(info.index_bits);
            w.u64(info.rank_levels);
            w.u8(info.cache_enabled as u8);
        }
        Response::MetricsReport(snapshot) => w.metrics_snapshot(snapshot),
        Response::ShardAssignment(assignment) => {
            w.u64(assignment.node_id);
            w.u32(assignment.shards.len() as u32);
            for shard in &assignment.shards {
                w.u32(*shard);
            }
            w.u64(assignment.epoch);
            w.u64(assignment.heartbeat_interval_ms);
            w.u64(assignment.failure_deadline_ms);
        }
        Response::Error(e) => w.protocol_error(e),
    }
}

fn read_response_body(r: &mut Reader<'_>, kind: u8) -> Result<Response, CodecError> {
    Ok(match kind {
        K_R_SEARCH => Response::Search(r.search_reply()?),
        K_R_BATCH_SEARCH => {
            let n = r.u32()? as usize;
            let mut replies = Vec::new();
            for _ in 0..n {
                replies.push(r.search_reply()?);
            }
            Response::BatchSearch(BatchSearchReply { replies })
        }
        K_R_DOCUMENTS => {
            let n = r.u32()? as usize;
            let mut documents = Vec::new();
            for _ in 0..n {
                documents.push(r.transfer()?);
            }
            Response::Documents(DocumentReply { documents })
        }
        K_R_TRAPDOOR => {
            let n = r.u32()? as usize;
            let mut encrypted_bin_keys = Vec::new();
            for _ in 0..n {
                let bin = r.u32()?;
                let key = r.biguint()?;
                encrypted_bin_keys.push((bin, key));
            }
            Response::Trapdoor(TrapdoorReply { encrypted_bin_keys })
        }
        K_R_BLIND_DECRYPT => Response::BlindDecrypt(BlindDecryptReply {
            blinded_plaintext: r.biguint()?,
        }),
        K_R_UPLOADED => Response::Uploaded {
            documents: r.u64()?,
        },
        K_R_ACK => Response::Ack,
        K_R_CACHE_STATS => {
            let present = r.u8()?;
            match present {
                0 => Response::CacheStats(None),
                1 => Response::CacheStats(Some(CacheStats {
                    hits: r.u64()?,
                    misses: r.u64()?,
                    evictions: r.u64()?,
                    invalidations: r.u64()?,
                    saved_comparisons: r.u64()?,
                })),
                other => {
                    return Err(CodecError::Malformed(format!(
                        "cache-stats presence byte {other}"
                    )))
                }
            }
        }
        K_R_SNAPSHOT => Response::Snapshot(r.bytes()?),
        K_R_RESTORED => Response::Restored {
            documents: r.u64()?,
        },
        K_R_COUNTERS => Response::Counters(r.counters()?),
        K_R_INFO => Response::Info(ServerInfo {
            shards: r.u64()?,
            documents: r.u64()?,
            index_bits: r.u64()?,
            rank_levels: r.u64()?,
            cache_enabled: r.bool()?,
        }),
        K_R_METRICS_REPORT => Response::MetricsReport(r.metrics_snapshot()?),
        K_R_SHARD_ASSIGNMENT => {
            let node_id = r.u64()?;
            let n = r.u32()? as usize;
            let mut shards = Vec::new();
            for _ in 0..n {
                shards.push(r.u32()?);
            }
            Response::ShardAssignment(ShardAssignment {
                node_id,
                shards,
                epoch: r.u64()?,
                heartbeat_interval_ms: r.u64()?,
                failure_deadline_ms: r.u64()?,
            })
        }
        K_R_ERROR => Response::Error(r.protocol_error()?),
        other => return Err(CodecError::UnknownKind(other)),
    })
}

// --- error encodings ---------------------------------------------------------

impl Writer {
    fn protocol_error(&mut self, e: &ProtocolError) {
        match e {
            ProtocolError::BadSignature => self.u8(0),
            ProtocolError::UnknownDocument(id) => {
                self.u8(1);
                self.u64(*id);
            }
            ProtocolError::Crypto(msg) => {
                self.u8(2);
                self.string(msg);
            }
            ProtocolError::NotEnoughMatches {
                requested,
                available,
            } => {
                self.u8(3);
                self.u64(*requested as u64);
                self.u64(*available as u64);
            }
            ProtocolError::Store(e) => {
                self.u8(4);
                self.store_error(e);
            }
            ProtocolError::Persistence(e) => {
                self.u8(5);
                self.persistence_error(e);
            }
            ProtocolError::Codec(e) => {
                self.u8(6);
                self.codec_error(e);
            }
            ProtocolError::Unsupported(msg) => {
                self.u8(7);
                self.string(msg);
            }
            ProtocolError::Transport(e) => {
                self.u8(8);
                self.transport_error(e);
            }
        }
    }

    fn transport_error(&mut self, e: &TransportError) {
        match e {
            TransportError::FrameTooLarge { declared, max } => {
                self.u8(0);
                self.u64(*declared);
                self.u64(*max);
            }
            TransportError::IdleTimeout { idle_ms } => {
                self.u8(1);
                self.u64(*idle_ms);
            }
            TransportError::Overloaded { retry_after_ms } => {
                self.u8(2);
                self.u64(*retry_after_ms);
            }
        }
    }

    fn store_error(&mut self, e: &StoreError) {
        match e {
            StoreError::LevelCountMismatch { expected, found } => {
                self.u8(0);
                self.u64(*expected as u64);
                self.u64(*found as u64);
            }
            StoreError::IndexSizeMismatch { expected, found } => {
                self.u8(1);
                self.u64(*expected as u64);
                self.u64(*found as u64);
            }
            StoreError::DuplicateDocument(id) => {
                self.u8(2);
                self.u64(*id);
            }
        }
    }

    fn persistence_error(&mut self, e: &PersistenceError) {
        match e {
            PersistenceError::BadMagic => self.u8(0),
            PersistenceError::UnsupportedVersion(v) => {
                self.u8(1);
                self.u16(*v);
            }
            PersistenceError::Truncated => self.u8(2),
            PersistenceError::ParameterMismatch {
                expected_r,
                found_r,
                expected_eta,
                found_eta,
            } => {
                self.u8(3);
                self.u64(*expected_r as u64);
                self.u64(*found_r as u64);
                self.u64(*expected_eta as u64);
                self.u64(*found_eta as u64);
            }
            PersistenceError::Store(e) => {
                self.u8(4);
                self.store_error(e);
            }
        }
    }

    fn codec_error(&mut self, e: &CodecError) {
        match e {
            CodecError::Truncated => self.u8(0),
            CodecError::UnknownVersion(v) => {
                self.u8(1);
                self.u8(*v);
            }
            CodecError::UnknownKind(k) => {
                self.u8(2);
                self.u8(*k);
            }
            CodecError::Malformed(msg) => {
                self.u8(3);
                self.string(msg);
            }
            CodecError::ResponseMismatch { expected, found } => {
                self.u8(4);
                self.string(expected);
                self.string(found);
            }
        }
    }
}

impl Reader<'_> {
    fn protocol_error(&mut self) -> Result<ProtocolError, CodecError> {
        Ok(match self.u8()? {
            0 => ProtocolError::BadSignature,
            1 => ProtocolError::UnknownDocument(self.u64()?),
            2 => ProtocolError::Crypto(self.string()?),
            3 => ProtocolError::NotEnoughMatches {
                requested: self.u64()? as usize,
                available: self.u64()? as usize,
            },
            4 => ProtocolError::Store(self.store_error()?),
            5 => ProtocolError::Persistence(self.persistence_error()?),
            6 => ProtocolError::Codec(self.codec_error()?),
            7 => ProtocolError::Unsupported(self.string()?),
            8 => ProtocolError::Transport(self.transport_error()?),
            other => return Err(CodecError::Malformed(format!("protocol-error tag {other}"))),
        })
    }

    fn transport_error(&mut self) -> Result<TransportError, CodecError> {
        Ok(match self.u8()? {
            0 => TransportError::FrameTooLarge {
                declared: self.u64()?,
                max: self.u64()?,
            },
            1 => TransportError::IdleTimeout {
                idle_ms: self.u64()?,
            },
            2 => TransportError::Overloaded {
                retry_after_ms: self.u64()?,
            },
            other => {
                return Err(CodecError::Malformed(format!(
                    "transport-error tag {other}"
                )))
            }
        })
    }

    fn store_error(&mut self) -> Result<StoreError, CodecError> {
        Ok(match self.u8()? {
            0 => StoreError::LevelCountMismatch {
                expected: self.u64()? as usize,
                found: self.u64()? as usize,
            },
            1 => StoreError::IndexSizeMismatch {
                expected: self.u64()? as usize,
                found: self.u64()? as usize,
            },
            2 => StoreError::DuplicateDocument(self.u64()?),
            other => return Err(CodecError::Malformed(format!("store-error tag {other}"))),
        })
    }

    fn persistence_error(&mut self) -> Result<PersistenceError, CodecError> {
        Ok(match self.u8()? {
            0 => PersistenceError::BadMagic,
            1 => PersistenceError::UnsupportedVersion(self.u16()?),
            2 => PersistenceError::Truncated,
            3 => PersistenceError::ParameterMismatch {
                expected_r: self.u64()? as usize,
                found_r: self.u64()? as usize,
                expected_eta: self.u64()? as usize,
                found_eta: self.u64()? as usize,
            },
            4 => PersistenceError::Store(self.store_error()?),
            other => {
                return Err(CodecError::Malformed(format!(
                    "persistence-error tag {other}"
                )))
            }
        })
    }

    fn codec_error(&mut self) -> Result<CodecError, CodecError> {
        Ok(match self.u8()? {
            0 => CodecError::Truncated,
            1 => CodecError::UnknownVersion(self.u8()?),
            2 => CodecError::UnknownKind(self.u8()?),
            3 => CodecError::Malformed(self.string()?),
            4 => CodecError::ResponseMismatch {
                expected: self.string()?,
                found: self.string()?,
            },
            other => return Err(CodecError::Malformed(format!("codec-error tag {other}"))),
        })
    }
}

// --- primitive writer/reader -------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a frame: reserve the length prefix, write version, id, kind.
    fn new(request_id: u64, kind: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[0u8; 4]); // length prefix backpatched in finish()
        buf.push(PROTOCOL_VERSION);
        buf.extend_from_slice(&request_id.to_le_bytes());
        buf.push(kind);
        Writer { buf }
    }

    fn finish(mut self) -> Vec<u8> {
        // Frames are capped at u32::MAX payload bytes. Failing loudly here
        // beats silently wrapping the prefix into a corrupt stream — a >4 GiB
        // upload must be split by the caller, not mis-framed.
        let len = u32::try_from(self.buf.len() - 4)
            .expect("frame payload exceeds the u32 length prefix; split the request");
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }

    fn bytes(&mut self, v: &[u8]) {
        let len = u32::try_from(v.len())
            .expect("byte section exceeds the u32 length prefix; split the request");
        self.u32(len);
        self.buf.extend_from_slice(v);
    }

    fn string(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    fn bitindex(&mut self, v: &BitIndex) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(&v.to_bytes());
    }

    fn biguint(&mut self, v: &BigUint) {
        self.bytes(&v.to_bytes_be());
    }

    fn ranked_index(&mut self, idx: &RankedDocumentIndex) {
        self.u64(idx.document_id);
        self.u16(idx.levels.len() as u16);
        for level in &idx.levels {
            self.bitindex(level);
        }
    }

    fn transfer(&mut self, doc: &EncryptedDocumentTransfer) {
        self.u64(doc.document_id);
        self.bytes(&doc.ciphertext);
        self.biguint(&doc.encrypted_key);
    }

    fn cache_report(&mut self, report: &CacheReport) {
        self.u64(report.shard_hits);
        self.u64(report.shard_misses);
        self.u64(report.saved_comparisons);
        self.u8(report.served_from_cache as u8);
    }

    fn search_reply(&mut self, reply: &SearchReply) {
        self.u32(reply.matches.len() as u32);
        for m in &reply.matches {
            self.u64(m.document_id);
            self.u32(m.rank);
            self.u16(m.metadata.len() as u16);
            for level in &m.metadata {
                self.bitindex(level);
            }
        }
        self.cache_report(&reply.cache);
    }

    fn metrics_snapshot(&mut self, snapshot: &MetricsSnapshot) {
        self.u8(snapshot.level as u8);
        self.u32(snapshot.counters.len() as u32);
        for (name, value) in &snapshot.counters {
            self.string(name);
            self.u64(*value);
        }
        self.u32(snapshot.gauges.len() as u32);
        for (name, value) in &snapshot.gauges {
            self.string(name);
            self.u64(*value);
        }
        self.u32(snapshot.histograms.len() as u32);
        for h in &snapshot.histograms {
            self.string(&h.stage);
            self.u64(h.count);
            self.u64(h.sum_ns);
            self.u32(h.buckets.len() as u32);
            for b in &h.buckets {
                self.u64(*b);
            }
        }
        self.u32(snapshot.values.len() as u32);
        for v in &snapshot.values {
            self.string(&v.series);
            self.u64(v.count);
            self.u64(v.sum);
            self.u32(v.buckets.len() as u32);
            for b in &v.buckets {
                self.u64(*b);
            }
        }
        self.u32(snapshot.lanes.len() as u32);
        for lane in &snapshot.lanes {
            self.u32(lane.lane);
            self.u64(lane.executed);
            self.u64(lane.stolen);
            self.u64(lane.failed_steals);
            self.u64(lane.idle_polls);
        }
        self.u32(snapshot.shard_caches.len() as u32);
        for shard in &snapshot.shard_caches {
            self.u32(shard.shard);
            self.u64(shard.hits);
            self.u64(shard.misses);
            self.u64(shard.invalidations);
        }
        self.u32(snapshot.connections.len() as u32);
        for conn in &snapshot.connections {
            self.u32(conn.connection);
            self.u64(conn.frames_in);
            self.u64(conn.frames_out);
            self.u64(conn.bytes_in);
            self.u64(conn.bytes_out);
        }
    }

    fn counters(&mut self, c: &OperationCounters) {
        self.u64(c.hashes);
        self.u64(c.bitwise_products);
        self.u64(c.modular_exponentiations);
        self.u64(c.modular_multiplications);
        self.u64(c.symmetric_encryptions);
        self.u64(c.symmetric_decryptions);
        self.u64(c.binary_comparisons);
        self.u64(c.comparisons_saved_by_cache);
        self.u64(c.cache_served_replies);
        self.u64(c.requests_served);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < len {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    fn expect_end(&self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return Err(CodecError::Malformed(format!(
                "{} trailing bytes after the envelope body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed(format!("boolean byte {other}"))),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(CodecError::Malformed(format!("option tag {other}"))),
        }
    }

    fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes).map_err(|_| CodecError::Malformed("non-UTF-8 string".to_string()))
    }

    fn bitindex(&mut self) -> Result<BitIndex, CodecError> {
        let bits = self.u32()? as usize;
        if bits == 0 {
            return Err(CodecError::Malformed("zero-length bit index".to_string()));
        }
        let bytes = self.take(bits.div_ceil(8))?;
        Ok(BitIndex::from_bytes(bytes, bits))
    }

    fn biguint(&mut self) -> Result<BigUint, CodecError> {
        let bytes = self.bytes()?;
        Ok(BigUint::from_bytes_be(&bytes))
    }

    fn ranked_index(&mut self) -> Result<RankedDocumentIndex, CodecError> {
        let document_id = self.u64()?;
        let n = self.u16()? as usize;
        let mut levels = Vec::new();
        for _ in 0..n {
            levels.push(self.bitindex()?);
        }
        Ok(RankedDocumentIndex {
            document_id,
            levels,
        })
    }

    fn transfer(&mut self) -> Result<EncryptedDocumentTransfer, CodecError> {
        Ok(EncryptedDocumentTransfer {
            document_id: self.u64()?,
            ciphertext: self.bytes()?,
            encrypted_key: self.biguint()?,
        })
    }

    fn metrics_snapshot(&mut self) -> Result<MetricsSnapshot, CodecError> {
        let level_byte = self.u8()?;
        let level = TelemetryLevel::from_u8(level_byte)
            .ok_or_else(|| CodecError::Malformed(format!("telemetry level byte {level_byte}")))?;
        let n = self.u32()? as usize;
        let mut counters = Vec::new();
        for _ in 0..n {
            counters.push((self.string()?, self.u64()?));
        }
        let n = self.u32()? as usize;
        let mut gauges = Vec::new();
        for _ in 0..n {
            gauges.push((self.string()?, self.u64()?));
        }
        let n = self.u32()? as usize;
        let mut histograms = Vec::new();
        for _ in 0..n {
            let stage = self.string()?;
            let count = self.u64()?;
            let sum_ns = self.u64()?;
            let b = self.u32()? as usize;
            let mut buckets = Vec::new();
            for _ in 0..b {
                buckets.push(self.u64()?);
            }
            histograms.push(HistogramSnapshot {
                stage,
                count,
                sum_ns,
                buckets,
            });
        }
        let n = self.u32()? as usize;
        let mut values = Vec::new();
        for _ in 0..n {
            let series = self.string()?;
            let count = self.u64()?;
            let sum = self.u64()?;
            let b = self.u32()? as usize;
            let mut buckets = Vec::new();
            for _ in 0..b {
                buckets.push(self.u64()?);
            }
            values.push(ValueHistogramSnapshot {
                series,
                count,
                sum,
                buckets,
            });
        }
        let n = self.u32()? as usize;
        let mut lanes = Vec::new();
        for _ in 0..n {
            lanes.push(LaneSnapshot {
                lane: self.u32()?,
                executed: self.u64()?,
                stolen: self.u64()?,
                failed_steals: self.u64()?,
                idle_polls: self.u64()?,
            });
        }
        let n = self.u32()? as usize;
        let mut shard_caches = Vec::new();
        for _ in 0..n {
            shard_caches.push(ShardCacheSnapshot {
                shard: self.u32()?,
                hits: self.u64()?,
                misses: self.u64()?,
                invalidations: self.u64()?,
            });
        }
        let n = self.u32()? as usize;
        let mut connections = Vec::new();
        for _ in 0..n {
            connections.push(ConnectionSnapshot {
                connection: self.u32()?,
                frames_in: self.u64()?,
                frames_out: self.u64()?,
                bytes_in: self.u64()?,
                bytes_out: self.u64()?,
            });
        }
        Ok(MetricsSnapshot {
            level,
            counters,
            gauges,
            histograms,
            values,
            lanes,
            shard_caches,
            connections,
        })
    }

    fn cache_report(&mut self) -> Result<CacheReport, CodecError> {
        Ok(CacheReport {
            shard_hits: self.u64()?,
            shard_misses: self.u64()?,
            saved_comparisons: self.u64()?,
            served_from_cache: self.bool()?,
        })
    }

    fn search_reply(&mut self) -> Result<SearchReply, CodecError> {
        let n = self.u32()? as usize;
        let mut matches = Vec::new();
        for _ in 0..n {
            let document_id = self.u64()?;
            let rank = self.u32()?;
            let levels = self.u16()? as usize;
            let mut metadata = Vec::new();
            for _ in 0..levels {
                metadata.push(self.bitindex()?);
            }
            matches.push(SearchResultEntry {
                document_id,
                rank,
                metadata,
            });
        }
        let cache = self.cache_report()?;
        Ok(SearchReply { matches, cache })
    }

    fn counters(&mut self) -> Result<OperationCounters, CodecError> {
        Ok(OperationCounters {
            hashes: self.u64()?,
            bitwise_products: self.u64()?,
            modular_exponentiations: self.u64()?,
            modular_multiplications: self.u64()?,
            symmetric_encryptions: self.u64()?,
            symmetric_decryptions: self.u64()?,
            binary_comparisons: self.u64()?,
            comparisons_saved_by_cache: self.u64()?,
            cache_served_replies: self.u64()?,
            requests_served: self.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn arb_bitindex(rng: &mut StdRng) -> BitIndex {
        let len = rng.gen_range(1usize..512);
        let bits: Vec<bool> = (0..len).map(|_| rng.gen_range(0u8..2) == 1).collect();
        BitIndex::from_bits(&bits)
    }

    fn arb_biguint(rng: &mut StdRng) -> BigUint {
        BigUint::from_u64(rng.gen_range(0u64..u64::MAX))
    }

    fn arb_string(rng: &mut StdRng) -> String {
        let len = rng.gen_range(0usize..24);
        (0..len)
            .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
            .collect()
    }

    fn arb_signature(rng: &mut StdRng) -> RsaSignature {
        RsaSignature::from_value(arb_biguint(rng))
    }

    fn arb_transfer(rng: &mut StdRng) -> EncryptedDocumentTransfer {
        let len = rng.gen_range(0usize..64);
        EncryptedDocumentTransfer {
            document_id: rng.gen_range(0u64..1 << 32),
            ciphertext: (0..len).map(|_| rng.gen_range(0u8..=255)).collect(),
            encrypted_key: arb_biguint(rng),
        }
    }

    fn arb_ranked_index(rng: &mut StdRng) -> RankedDocumentIndex {
        // A shared bit length per index mirrors real stores; the codec itself
        // does not require it.
        let levels = rng.gen_range(1usize..4);
        RankedDocumentIndex {
            document_id: rng.gen_range(0u64..1 << 32),
            levels: (0..levels).map(|_| arb_bitindex(rng)).collect(),
        }
    }

    fn arb_search_reply(rng: &mut StdRng) -> SearchReply {
        let matches = rng.gen_range(0usize..4);
        SearchReply {
            matches: (0..matches)
                .map(|_| SearchResultEntry {
                    document_id: rng.gen_range(0u64..1 << 32),
                    rank: rng.gen_range(0u32..6),
                    metadata: (0..rng.gen_range(0usize..3))
                        .map(|_| arb_bitindex(rng))
                        .collect(),
                })
                .collect(),
            cache: CacheReport {
                shard_hits: rng.gen_range(0u64..100),
                shard_misses: rng.gen_range(0u64..100),
                saved_comparisons: rng.gen_range(0u64..100_000),
                served_from_cache: rng.gen_range(0u8..2) == 1,
            },
        }
    }

    fn arb_counters(rng: &mut StdRng) -> OperationCounters {
        OperationCounters {
            hashes: rng.gen_range(0u64..1000),
            bitwise_products: rng.gen_range(0u64..1000),
            modular_exponentiations: rng.gen_range(0u64..1000),
            modular_multiplications: rng.gen_range(0u64..1000),
            symmetric_encryptions: rng.gen_range(0u64..1000),
            symmetric_decryptions: rng.gen_range(0u64..1000),
            binary_comparisons: rng.gen_range(0u64..1000),
            comparisons_saved_by_cache: rng.gen_range(0u64..1000),
            cache_served_replies: rng.gen_range(0u64..1000),
            requests_served: rng.gen_range(0u64..1000),
        }
    }

    fn arb_store_error(rng: &mut StdRng) -> StoreError {
        match rng.gen_range(0u8..3) {
            0 => StoreError::LevelCountMismatch {
                expected: rng.gen_range(0usize..10),
                found: rng.gen_range(0usize..10),
            },
            1 => StoreError::IndexSizeMismatch {
                expected: rng.gen_range(0usize..1000),
                found: rng.gen_range(0usize..1000),
            },
            _ => StoreError::DuplicateDocument(rng.gen_range(0u64..1 << 32)),
        }
    }

    fn arb_protocol_error(rng: &mut StdRng) -> ProtocolError {
        match rng.gen_range(0u8..9) {
            0 => ProtocolError::BadSignature,
            1 => ProtocolError::UnknownDocument(rng.gen_range(0u64..1 << 32)),
            2 => ProtocolError::Crypto(arb_string(rng)),
            3 => ProtocolError::NotEnoughMatches {
                requested: rng.gen_range(0usize..100),
                available: rng.gen_range(0usize..100),
            },
            4 => ProtocolError::Store(arb_store_error(rng)),
            5 => ProtocolError::Persistence(match rng.gen_range(0u8..5) {
                0 => PersistenceError::BadMagic,
                1 => PersistenceError::UnsupportedVersion(rng.gen_range(0u16..u16::MAX)),
                2 => PersistenceError::Truncated,
                3 => PersistenceError::ParameterMismatch {
                    expected_r: rng.gen_range(0usize..1000),
                    found_r: rng.gen_range(0usize..1000),
                    expected_eta: rng.gen_range(0usize..10),
                    found_eta: rng.gen_range(0usize..10),
                },
                _ => PersistenceError::Store(arb_store_error(rng)),
            }),
            6 => ProtocolError::Codec(match rng.gen_range(0u8..5) {
                0 => CodecError::Truncated,
                1 => CodecError::UnknownVersion(rng.gen_range(0u8..=255)),
                2 => CodecError::UnknownKind(rng.gen_range(0u8..=255)),
                3 => CodecError::Malformed(arb_string(rng)),
                _ => CodecError::ResponseMismatch {
                    expected: arb_string(rng),
                    found: arb_string(rng),
                },
            }),
            7 => ProtocolError::Transport(match rng.gen_range(0u8..3) {
                0 => TransportError::FrameTooLarge {
                    declared: rng.gen_range(0u64..u64::MAX),
                    max: rng.gen_range(0u64..1 << 40),
                },
                1 => TransportError::IdleTimeout {
                    idle_ms: rng.gen_range(0u64..1 << 32),
                },
                _ => TransportError::Overloaded {
                    retry_after_ms: rng.gen_range(0u64..1 << 32),
                },
            }),
            _ => ProtocolError::Unsupported(arb_string(rng)),
        }
    }

    /// One instance of EVERY request variant, randomized content.
    fn all_requests(rng: &mut StdRng) -> Vec<Request> {
        vec![
            Request::Trapdoor(TrapdoorRequest {
                user_id: rng.gen_range(0u64..1 << 32),
                bin_ids: (0..rng.gen_range(0usize..6))
                    .map(|_| rng.gen_range(0u32..1 << 16))
                    .collect(),
                signature: arb_signature(rng),
            }),
            Request::Query(QueryMessage {
                query: arb_bitindex(rng),
                top: if rng.gen_range(0u8..2) == 1 {
                    Some(rng.gen_range(0usize..100))
                } else {
                    None
                },
            }),
            Request::BatchQuery(BatchQueryMessage {
                queries: (0..rng.gen_range(0usize..5))
                    .map(|_| arb_bitindex(rng))
                    .collect(),
                top: Some(rng.gen_range(0usize..10)),
            }),
            Request::Documents(DocumentRequest {
                document_ids: (0..rng.gen_range(0usize..6))
                    .map(|_| rng.gen_range(0u64..1 << 32))
                    .collect(),
            }),
            Request::BlindDecrypt(BlindDecryptRequest {
                user_id: rng.gen_range(0u64..1 << 32),
                blinded_ciphertext: arb_biguint(rng),
                signature: arb_signature(rng),
            }),
            Request::Upload(UploadMessage {
                indices: (0..rng.gen_range(0usize..3))
                    .map(|_| arb_ranked_index(rng))
                    .collect(),
                documents: (0..rng.gen_range(0usize..3))
                    .map(|_| arb_transfer(rng))
                    .collect(),
            }),
            Request::EnableCache {
                capacity_per_shard: rng.gen_range(0u64..1 << 20),
            },
            Request::DisableCache,
            Request::CacheStats,
            Request::SnapshotIndex,
            Request::RestoreIndex(
                (0..rng.gen_range(0usize..64))
                    .map(|_| rng.gen_range(0u8..=255))
                    .collect(),
            ),
            Request::Counters,
            Request::ResetCounters,
            Request::ServerInfo,
            Request::MetricsSnapshot,
            Request::RegisterNode(arb_node_registration(rng)),
            Request::NodeHeartbeat(NodeHeartbeat {
                node_id: rng.gen_range(0u64..1 << 32),
                metrics: arb_metrics_snapshot(rng),
            }),
        ]
    }

    fn arb_node_registration(rng: &mut StdRng) -> NodeRegistration {
        NodeRegistration {
            node_id: rng.gen_range(0u64..1 << 32),
            capabilities: NodeCapabilities {
                shard_slots: rng.gen_range(0u32..64),
                scan_lanes: rng.gen_range(0u32..32),
                cache_capacity: rng.gen_range(0u64..1 << 20),
            },
        }
    }

    fn arb_shard_assignment(rng: &mut StdRng) -> ShardAssignment {
        ShardAssignment {
            node_id: rng.gen_range(0u64..1 << 32),
            shards: (0..rng.gen_range(0usize..8))
                .map(|_| rng.gen_range(0u32..64))
                .collect(),
            epoch: rng.gen_range(0u64..1 << 40),
            heartbeat_interval_ms: rng.gen_range(0u64..1 << 20),
            failure_deadline_ms: rng.gen_range(0u64..1 << 20),
        }
    }

    fn arb_metrics_snapshot(rng: &mut StdRng) -> MetricsSnapshot {
        let level = match rng.gen_range(0u8..3) {
            0 => TelemetryLevel::Off,
            1 => TelemetryLevel::Counters,
            _ => TelemetryLevel::Spans,
        };
        MetricsSnapshot {
            level,
            counters: (0..rng.gen_range(0usize..5))
                .map(|_| (arb_string(rng), rng.gen_range(0u64..1 << 40)))
                .collect(),
            gauges: (0..rng.gen_range(0usize..4))
                .map(|_| (arb_string(rng), rng.gen_range(0u64..1 << 40)))
                .collect(),
            histograms: (0..rng.gen_range(0usize..3))
                .map(|_| HistogramSnapshot {
                    stage: arb_string(rng),
                    count: rng.gen_range(0u64..1 << 30),
                    sum_ns: rng.gen_range(0u64..1 << 50),
                    buckets: (0..rng.gen_range(0usize..64))
                        .map(|_| rng.gen_range(0u64..1 << 30))
                        .collect(),
                })
                .collect(),
            values: (0..rng.gen_range(0usize..3))
                .map(|_| ValueHistogramSnapshot {
                    series: arb_string(rng),
                    count: rng.gen_range(0u64..1 << 30),
                    sum: rng.gen_range(0u64..1 << 50),
                    buckets: (0..rng.gen_range(0usize..64))
                        .map(|_| rng.gen_range(0u64..1 << 30))
                        .collect(),
                })
                .collect(),
            lanes: (0..rng.gen_range(0usize..4))
                .map(|_| LaneSnapshot {
                    lane: rng.gen_range(0u32..32),
                    executed: rng.gen_range(0u64..1 << 30),
                    stolen: rng.gen_range(0u64..1 << 30),
                    failed_steals: rng.gen_range(0u64..1 << 30),
                    idle_polls: rng.gen_range(0u64..1 << 30),
                })
                .collect(),
            shard_caches: (0..rng.gen_range(0usize..4))
                .map(|_| ShardCacheSnapshot {
                    shard: rng.gen_range(0u32..64),
                    hits: rng.gen_range(0u64..1 << 30),
                    misses: rng.gen_range(0u64..1 << 30),
                    invalidations: rng.gen_range(0u64..1 << 30),
                })
                .collect(),
            connections: (0..rng.gen_range(0usize..4))
                .map(|_| ConnectionSnapshot {
                    connection: rng.gen_range(0u32..64),
                    frames_in: rng.gen_range(0u64..1 << 30),
                    frames_out: rng.gen_range(0u64..1 << 30),
                    bytes_in: rng.gen_range(0u64..1 << 40),
                    bytes_out: rng.gen_range(0u64..1 << 40),
                })
                .collect(),
        }
    }

    /// One instance of EVERY response variant, randomized content.
    fn all_responses(rng: &mut StdRng) -> Vec<Response> {
        vec![
            Response::Search(arb_search_reply(rng)),
            Response::BatchSearch(BatchSearchReply {
                replies: (0..rng.gen_range(0usize..3))
                    .map(|_| arb_search_reply(rng))
                    .collect(),
            }),
            Response::Documents(DocumentReply {
                documents: (0..rng.gen_range(0usize..3))
                    .map(|_| arb_transfer(rng))
                    .collect(),
            }),
            Response::Trapdoor(TrapdoorReply {
                encrypted_bin_keys: (0..rng.gen_range(0usize..4))
                    .map(|_| (rng.gen_range(0u32..1 << 16), arb_biguint(rng)))
                    .collect(),
            }),
            Response::BlindDecrypt(BlindDecryptReply {
                blinded_plaintext: arb_biguint(rng),
            }),
            Response::Uploaded {
                documents: rng.gen_range(0u64..1 << 40),
            },
            Response::Ack,
            Response::CacheStats(if rng.gen_range(0u8..2) == 1 {
                Some(CacheStats {
                    hits: rng.gen_range(0u64..1000),
                    misses: rng.gen_range(0u64..1000),
                    evictions: rng.gen_range(0u64..1000),
                    invalidations: rng.gen_range(0u64..1000),
                    saved_comparisons: rng.gen_range(0u64..100_000),
                })
            } else {
                None
            }),
            Response::Snapshot(
                (0..rng.gen_range(0usize..64))
                    .map(|_| rng.gen_range(0u8..=255))
                    .collect(),
            ),
            Response::Restored {
                documents: rng.gen_range(0u64..1 << 40),
            },
            Response::Counters(arb_counters(rng)),
            Response::Info(ServerInfo {
                shards: rng.gen_range(1u64..64),
                documents: rng.gen_range(0u64..1 << 40),
                index_bits: rng.gen_range(1u64..1024),
                rank_levels: rng.gen_range(1u64..8),
                cache_enabled: rng.gen_range(0u8..2) == 1,
            }),
            Response::MetricsReport(arb_metrics_snapshot(rng)),
            Response::ShardAssignment(arb_shard_assignment(rng)),
            Response::Error(arb_protocol_error(rng)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_every_request_variant_round_trips(seed in 0u64..1 << 48) {
            let mut rng = StdRng::seed_from_u64(seed);
            for request in all_requests(&mut rng) {
                let id = rng.gen_range(0u64..u64::MAX);
                let frame = encode_request(id, &request);
                let (payload, rest) = split_frame(&frame).unwrap().unwrap();
                prop_assert!(rest.is_empty());
                let (decoded_id, decoded) = decode_request(payload).unwrap();
                prop_assert_eq!(decoded_id, id);
                prop_assert_eq!(decoded, request);
            }
        }

        #[test]
        fn prop_every_response_variant_round_trips(seed in 0u64..1 << 48) {
            let mut rng = StdRng::seed_from_u64(seed);
            for response in all_responses(&mut rng) {
                let id = rng.gen_range(0u64..u64::MAX);
                let frame = encode_response(id, &response);
                let (payload, rest) = split_frame(&frame).unwrap().unwrap();
                prop_assert!(rest.is_empty());
                let (decoded_id, decoded) = decode_response(payload).unwrap();
                prop_assert_eq!(decoded_id, id);
                prop_assert_eq!(decoded, response);
            }
        }

        #[test]
        fn prop_truncated_frames_decode_to_typed_errors(seed in 0u64..1 << 48) {
            let mut rng = StdRng::seed_from_u64(seed);
            let requests = all_requests(&mut rng);
            let request = &requests[rng.gen_range(0usize..requests.len())];
            let frame = encode_request(9, request);
            for cut in 0..frame.len() {
                match split_frame(&frame[..cut]) {
                    Ok(None) => prop_assert_eq!(cut, 0),
                    Ok(Some(_)) => prop_assert!(false, "truncation at {} yielded a frame", cut),
                    Err(e) => prop_assert_eq!(e, CodecError::Truncated),
                }
            }
            // Truncating the payload itself (bypassing the length prefix) must
            // also fail typed, never panic.
            let (payload, _) = split_frame(&frame).unwrap().unwrap();
            for cut in 0..payload.len() {
                let result = decode_request(&payload[..cut]);
                prop_assert!(result.is_err(), "payload cut at {} decoded", cut);
            }
        }

        #[test]
        fn prop_corrupted_frames_never_panic(seed in 0u64..1 << 48) {
            let mut rng = StdRng::seed_from_u64(seed);
            let responses = all_responses(&mut rng);
            let response = &responses[rng.gen_range(0usize..responses.len())];
            let mut frame = encode_response(3, response);
            // Flip a handful of random bytes anywhere but the length prefix
            // (corrupting the length prefix is the truncation case above).
            for _ in 0..4 {
                let pos = rng.gen_range(4usize..frame.len());
                frame[pos] ^= 1 << rng.gen_range(0u32..8);
            }
            if let Ok(Some((payload, _))) = split_frame(&frame) {
                // Either a typed error or a (different but valid) value — the
                // property is the absence of panics and of silent trailing data.
                let _ = decode_response(payload);
            }
        }
    }

    /// The wire format, pinned. Round trips cannot see a change made to both
    /// directions at once, so this hashes the frames themselves: every
    /// envelope variant for seeds 0..64 under fixed request ids. A new digest
    /// means the bytes on the wire changed — a protocol version bump, not a
    /// refactor.
    #[test]
    fn golden_digest_pins_every_frame_byte() {
        let mut hasher = mkse_crypto::Sha512::new();
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for (i, request) in all_requests(&mut rng).iter().enumerate() {
                hasher.update(&encode_request(seed << 8 | i as u64, request));
            }
            for (i, response) in all_responses(&mut rng).iter().enumerate() {
                hasher.update(&encode_response(seed << 8 | i as u64, response));
            }
        }
        let digest: String = hasher
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(digest, GOLDEN_FRAMES_SHA512);
    }

    const GOLDEN_FRAMES_SHA512: &str =
        "ae2764eb2b5ba48efb46b34246d9efe1c88cb5a3dd8ea200b61962fa83c17bc9\
         4f1fa64d9cae429d287b9acd18d3c1f6c1efd879a9a3b5c7eb56c955b0324520";

    #[test]
    fn unknown_version_and_kind_are_typed_errors() {
        let request = Request::CacheStats;
        let mut frame = encode_request(5, &request);
        frame[4] = 99; // version byte (after the 4-byte length prefix)
        let (payload, _) = split_frame(&frame).unwrap().unwrap();
        assert_eq!(decode_request(payload), Err(CodecError::UnknownVersion(99)));

        let mut frame = encode_request(5, &request);
        frame[13] = 0x7f; // kind byte: unknown request kind
        let (payload, _) = split_frame(&frame).unwrap().unwrap();
        assert_eq!(decode_request(payload), Err(CodecError::UnknownKind(0x7f)));

        // A response kind inside a request frame (and vice versa) is malformed.
        let response_frame = encode_response(5, &Response::Ack);
        let (payload, _) = split_frame(&response_frame).unwrap().unwrap();
        assert!(matches!(
            decode_request(payload),
            Err(CodecError::Malformed(_))
        ));
        let request_frame = encode_request(5, &request);
        let (payload, _) = split_frame(&request_frame).unwrap().unwrap();
        assert!(matches!(
            decode_response(payload),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let frame = encode_request(1, &Request::DisableCache);
        let mut padded = frame.clone();
        padded.extend_from_slice(&[0xaa, 0xbb]);
        // Extend the length prefix to cover the garbage.
        let len = (padded.len() - 4) as u32;
        padded[..4].copy_from_slice(&len.to_le_bytes());
        let (payload, _) = split_frame(&padded).unwrap().unwrap();
        assert!(matches!(
            decode_request(payload),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn frame_streams_decode_in_order() {
        let a = encode_request(1, &Request::CacheStats);
        let b = encode_request(2, &Request::ServerInfo);
        let wire: Vec<u8> = [a, b].concat();
        let decoded = decode_request_stream(&wire).unwrap();
        assert_eq!(
            decoded,
            vec![(1, Request::CacheStats), (2, Request::ServerInfo)]
        );
        assert!(decode_request_stream(&wire[..wire.len() - 1]).is_err());
    }

    #[test]
    fn metrics_report_rejects_unknown_telemetry_level() {
        let mut rng = StdRng::seed_from_u64(11);
        let snapshot = arb_metrics_snapshot(&mut rng);
        let frame = encode_response(7, &Response::MetricsReport(snapshot));
        let (payload, _) = split_frame(&frame).unwrap().unwrap();
        // The level byte leads the body, right after the 10-byte payload
        // header (version u8 + request_id u64 + kind u8).
        let mut corrupted = payload.to_vec();
        corrupted[10] = 9;
        assert!(matches!(
            decode_response(&corrupted),
            Err(CodecError::Malformed(msg)) if msg.contains("telemetry level")
        ));
    }

    #[test]
    fn overloaded_transport_error_round_trips() {
        for &variant in &[
            TransportError::Overloaded { retry_after_ms: 0 },
            TransportError::Overloaded { retry_after_ms: 2 },
            TransportError::Overloaded {
                retry_after_ms: u64::MAX,
            },
            TransportError::FrameTooLarge {
                declared: 1 << 33,
                max: 1 << 20,
            },
            TransportError::IdleTimeout { idle_ms: 30_000 },
        ] {
            let response = Response::Error(ProtocolError::Transport(variant));
            let frame = encode_response(42, &response);
            let (payload, rest) = split_frame(&frame).unwrap().unwrap();
            assert!(rest.is_empty());
            let (id, decoded) = decode_response(payload).unwrap();
            assert_eq!(id, 42);
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn corrupt_transport_error_tag_is_rejected() {
        let response = Response::Error(ProtocolError::Transport(TransportError::Overloaded {
            retry_after_ms: 2,
        }));
        let frame = encode_response(42, &response);
        let (payload, _) = split_frame(&frame).unwrap().unwrap();
        // Payload layout: 10-byte header (version u8 + request_id u64 + kind
        // u8), then the protocol-error tag (8 = Transport) at [10] and the
        // transport-error tag at [11].
        assert_eq!(payload[10], 8);
        assert_eq!(payload[11], 2);
        let mut corrupted = payload.to_vec();
        corrupted[11] = 9;
        assert!(matches!(
            decode_response(&corrupted),
            Err(CodecError::Malformed(msg)) if msg.contains("transport-error tag 9")
        ));
        // Truncating the retry hint mid-u64 is a typed Truncated, not a panic.
        assert!(matches!(
            decode_response(&payload[..payload.len() - 3]),
            Err(CodecError::Truncated)
        ));
    }

    #[test]
    fn fleet_envelopes_round_trip_and_reject_corruption() {
        let mut rng = StdRng::seed_from_u64(23);
        let register = Request::RegisterNode(arb_node_registration(&mut rng));
        let beat = Request::NodeHeartbeat(NodeHeartbeat {
            node_id: 9,
            metrics: arb_metrics_snapshot(&mut rng),
        });
        let assignment = Response::ShardAssignment(arb_shard_assignment(&mut rng));

        for request in [&register, &beat] {
            let frame = encode_request(17, request);
            let (payload, rest) = split_frame(&frame).unwrap().unwrap();
            assert!(rest.is_empty());
            let (id, decoded) = decode_request(payload).unwrap();
            assert_eq!(id, 17);
            assert_eq!(&decoded, request);
            // Every payload truncation is a typed error, never a panic.
            for cut in 0..payload.len() {
                assert!(decode_request(&payload[..cut]).is_err(), "cut at {cut}");
            }
        }

        let frame = encode_response(17, &assignment);
        let (payload, rest) = split_frame(&frame).unwrap().unwrap();
        assert!(rest.is_empty());
        assert_eq!(decode_response(payload).unwrap(), (17, assignment));
        for cut in 0..payload.len() {
            assert!(decode_response(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn heartbeat_rejects_unknown_telemetry_level() {
        let mut rng = StdRng::seed_from_u64(29);
        let beat = Request::NodeHeartbeat(NodeHeartbeat {
            node_id: 3,
            metrics: arb_metrics_snapshot(&mut rng),
        });
        let frame = encode_request(7, &beat);
        let (payload, _) = split_frame(&frame).unwrap().unwrap();
        // Body layout: node_id u64 at [10..18], then the metrics snapshot
        // whose level byte leads it at [18].
        let mut corrupted = payload.to_vec();
        corrupted[18] = 9;
        assert!(matches!(
            decode_request(&corrupted),
            Err(CodecError::Malformed(msg)) if msg.contains("telemetry level")
        ));
    }

    #[test]
    fn shard_assignment_rejects_trailing_garbage() {
        let assignment = Response::ShardAssignment(ShardAssignment {
            node_id: 1,
            shards: vec![0, 2],
            epoch: 4,
            heartbeat_interval_ms: 50,
            failure_deadline_ms: 200,
        });
        let mut frame = encode_response(3, &assignment);
        frame.extend_from_slice(&[0x5a]);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        let (payload, _) = split_frame(&frame).unwrap().unwrap();
        assert!(matches!(
            decode_response(payload),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn codec_error_display() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
        assert!(CodecError::UnknownVersion(9).to_string().contains('9'));
        assert!(CodecError::UnknownKind(0x42).to_string().contains("42"));
        assert!(CodecError::Malformed("x".into()).to_string().contains('x'));
        assert!(CodecError::ResponseMismatch {
            expected: "Search".into(),
            found: "Ack".into()
        }
        .to_string()
        .contains("Search"));
    }
}
