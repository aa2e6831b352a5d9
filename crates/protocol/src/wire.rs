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
//! ## One layout statement per type
//!
//! Every type that crosses the wire states its layout **once** (the private
//! `Wire` trait) and both directions are derived from that statement, so
//! encode and decode cannot disagree. The grammar:
//!
//! ```text
//! u8 | u16 | u32 | u64 := fixed width, little-endian
//! usize                := u64
//! bool                 := u8, 0 or 1
//! vec<T>               := count u32 | T*          (vec<u8>, string: count u32 | bytes)
//! option<T>            := 0 u8  |  1 u8 | T
//! (A, B)               := A | B
//! bitindex             := bits u32 | ⌈bits/8⌉ bytes                     (bits ≥ 1)
//! biguint              := vec<u8>, big-endian magnitude
//! struct               := its fields, in the order of its `wire_struct!` row
//! enum                 := tag u8 | the fields its `wire_enum!` row gives that tag
//! ```
//!
//! [`Request`] and [`Response`] are enums whose tag is the header's `kind` byte
//! (unknown: [`CodecError::UnknownKind`]); the five error enums nested in
//! [`Response::Error`] carry theirs in front of the body (unknown:
//! [`CodecError::Malformed`]). `RankedDocumentIndex` and `SearchResultEntry`
//! are written by hand: they end in `levels u16 | bitindex*`, the `u16` the
//! snapshot format of [`mkse_core::persistence`] counts ranking levels in.
//! **Adding a variant is one row** in its enum's table (and one `wire_struct!`
//! row for a new message struct) — there is no second place to edit.
//!
//! Decoding never panics: truncated buffers, unknown version bytes, unknown
//! kinds, malformed counts and trailing garbage all come back as a typed
//! [`CodecError`] (surfaced as [`crate::ProtocolError::Codec`]). `Reader::take`
//! is the only place bytes leave the buffer: every length is checked against
//! the bytes actually present and nothing is reserved for a count the sender
//! merely claims (proptests here and `tests/hostile_bytes.rs` hold it to
//! that). Frames are capped at `u32::MAX` payload bytes; *encoding* a larger
//! envelope (e.g. a single >4 GiB upload) panics with an explicit message
//! rather than wrapping the prefix into a corrupt stream.
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

// --- public API --------------------------------------------------------------

/// Encode one request as a complete frame (length prefix included).
pub fn encode_request(request_id: u64, request: &Request) -> Vec<u8> {
    encode(request_id, request)
}

/// Encode one response as a complete frame (length prefix included).
pub fn encode_response(request_id: u64, response: &Response) -> Vec<u8> {
    encode(request_id, response)
}

/// Decode one request from a frame payload (as a [`crate::FrameBuffer`] pops
/// it).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), CodecError> {
    decode(payload, false)
}

/// Decode one response from a frame payload (as a [`crate::FrameBuffer`] pops
/// it).
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), CodecError> {
    decode(payload, true)
}

fn encode<E: Tagged>(request_id: u64, envelope: &E) -> Vec<u8> {
    let mut w = Writer::new(request_id, envelope.tag());
    envelope.put_body(&mut w);
    w.finish()
}

/// Request kinds stay below this, response kinds at or above it.
const FIRST_RESPONSE_KIND: u8 = 0x80;

/// Decode the envelope of one direction: header, direction check, the body
/// the kind selects, and nothing after it.
fn decode<E: Tagged>(payload: &[u8], response: bool) -> Result<(u64, E), CodecError> {
    let mut r = Reader(payload);
    let version = u8::take(&mut r)?;
    if version != PROTOCOL_VERSION {
        return Err(CodecError::UnknownVersion(version));
    }
    let request_id = u64::take(&mut r)?;
    let kind = u8::take(&mut r)?;
    if (kind >= FIRST_RESPONSE_KIND) != response {
        let (found, frame) = match response {
            true => ("request", "response"),
            false => ("response", "request"),
        };
        return Err(CodecError::Malformed(format!(
            "{found} kind 0x{kind:02x} in a {frame} frame"
        )));
    }
    let envelope = E::take_body(kind, &mut r)?;
    r.expect_end()?;
    Ok((request_id, envelope))
}

// --- the layout trait and its leaves -----------------------------------------

/// One layout statement: how a value is laid out on the wire, read in both
/// directions. `put` cannot fail; `take` fails typed and never panics.
trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// `vec<Self>`: `count u32 | item*`. A method of the item type (the
    /// `showList` trick) so `u8` can make its vector one copy without
    /// specialisation.
    fn put_all(items: &[Self], w: &mut Writer) {
        put_counted::<u32, _>(items, w);
    }

    fn take_n(r: &mut Reader<'_>) -> Result<Vec<Self>, CodecError> {
        take_counted::<u32, _>(r)
    }
}

/// `count N | item*`.
fn put_counted<N: Wire + TryFrom<usize>, T: Wire>(items: &[T], w: &mut Writer) {
    w.count::<N>(items.len());
    items.iter().for_each(|item| item.put(w));
}

/// The count is the sender's claim, so it sizes nothing: the vector grows
/// only as items actually decode, and every item consumes at least one byte,
/// so a claim the payload cannot back ends in `Truncated`.
fn take_counted<N: Wire + TryInto<usize>, T: Wire>(
    r: &mut Reader<'_>,
) -> Result<Vec<T>, CodecError> {
    let mut items = Vec::new();
    for _ in 0..r.count::<N>()? {
        items.push(T::take(r)?);
    }
    Ok(items)
}

impl Wire for u8 {
    fn put(&self, w: &mut Writer) {
        w.buf.push(*self);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u8::from_le_bytes(r.le()?))
    }
    fn put_all(items: &[u8], w: &mut Writer) {
        w.count::<u32>(items.len());
        w.buf.extend_from_slice(items);
    }
    fn take_n(r: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {
        Ok(r.section()?.to_vec())
    }
}

macro_rules! wire_le {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            fn put(&self, w: &mut Writer) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$int>::from_le_bytes(r.le()?))
            }
        }
    )*};
}
wire_le!(u16, u32, u64);

impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        (*self as u64).put(w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::take(r)?;
        usize::try_from(v).map_err(|_| CodecError::Malformed(format!("{v} exceeds usize")))
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        (*self as u8).put(w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Malformed(format!("boolean byte {other}"))),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        T::put_all(self, w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        T::take_n(r)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => 0u8.put(w),
            Some(v) => {
                1u8.put(w);
                v.put(w);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::take(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::take(r)?)),
            other => Err(CodecError::Malformed(format!("option tag {other}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::take(r)?, B::take(r)?))
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        u8::put_all(self.as_bytes(), w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        String::from_utf8(u8::take_n(r)?)
            .map_err(|_| CodecError::Malformed("non-UTF-8 string".to_string()))
    }
}

impl Wire for BitIndex {
    fn put(&self, w: &mut Writer) {
        w.count::<u32>(self.len());
        w.buf.extend_from_slice(&self.to_bytes());
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bits = r.count::<u32>()?;
        if bits == 0 {
            return Err(CodecError::Malformed("zero-length bit index".to_string()));
        }
        Ok(BitIndex::from_bytes(r.take(bits.div_ceil(8))?, bits))
    }
}

impl Wire for BigUint {
    fn put(&self, w: &mut Writer) {
        u8::put_all(&self.to_bytes_be(), w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BigUint::from_bytes_be(r.section()?))
    }
}

impl Wire for RsaSignature {
    fn put(&self, w: &mut Writer) {
        self.value().put(w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        BigUint::take(r).map(RsaSignature::from_value)
    }
}

impl Wire for TelemetryLevel {
    fn put(&self, w: &mut Writer) {
        (*self as u8).put(w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let byte = u8::take(r)?;
        TelemetryLevel::from_u8(byte)
            .ok_or_else(|| CodecError::Malformed(format!("telemetry level byte {byte}")))
    }
}

// The two layouts that count in a u16: a document's ranking levels (η of
// them — a u16 in the snapshot header of `mkse_core::persistence` as well).

impl Wire for RankedDocumentIndex {
    fn put(&self, w: &mut Writer) {
        self.document_id.put(w);
        put_counted::<u16, _>(&self.levels, w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RankedDocumentIndex {
            document_id: Wire::take(r)?,
            levels: take_counted::<u16, _>(r)?,
        })
    }
}

impl Wire for SearchResultEntry {
    fn put(&self, w: &mut Writer) {
        self.document_id.put(w);
        self.rank.put(w);
        put_counted::<u16, _>(&self.metadata, w);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SearchResultEntry {
            document_id: Wire::take(r)?,
            rank: Wire::take(r)?,
            metadata: take_counted::<u16, _>(r)?,
        })
    }
}

// --- message structs: one row each -------------------------------------------

/// `Name { a, b, c }`: the struct is its fields, in that order.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($ty { $($field: Wire::take(r)?),* })
            }
        }
    )*};
}

wire_struct! {
    TrapdoorRequest { user_id, bin_ids, signature }
    QueryMessage { query, top }
    BatchQueryMessage { queries, top }
    DocumentRequest { document_ids }
    BlindDecryptRequest { user_id, blinded_ciphertext, signature }
    UploadMessage { indices, documents }
    EncryptedDocumentTransfer { document_id, ciphertext, encrypted_key }
    NodeCapabilities { shard_slots }
    NodeRegistration { node_id, capabilities }
    NodeHeartbeat { node_id }
    CacheReport { shard_hits, shard_misses, saved_comparisons, served_from_cache }
    SearchReply { matches, cache }
    BatchSearchReply { replies }
    DocumentReply { documents }
    TrapdoorReply { encrypted_bin_keys }
    BlindDecryptReply { blinded_plaintext }
    CacheStats { hits, misses, evictions, invalidations, saved_comparisons }
    OperationCounters {
        hashes, bitwise_products, modular_exponentiations, modular_multiplications,
        symmetric_encryptions, symmetric_decryptions, binary_comparisons,
        comparisons_saved_by_cache, cache_served_replies, requests_served
    }
    ServerInfo { shards, documents, index_bits, rank_levels, cache_enabled }
    ShardAssignment { node_id, shards, epoch, heartbeat_interval_ms, failure_deadline_ms }
    MetricsSnapshot { level, counters, gauges, histograms, values, lanes, shard_caches, connections }
    HistogramSnapshot { stage, count, sum_ns, buckets }
    ValueHistogramSnapshot { series, count, sum, buckets }
    LaneSnapshot { lane, executed, stolen, failed_steals, idle_polls }
    ShardCacheSnapshot { shard, hits, misses, invalidations }
    ConnectionSnapshot { connection, frames_in, frames_out, bytes_in, bytes_out }
}

// --- enums: one row per variant ----------------------------------------------

/// An enum on the wire: `tag u8 | body`. The tag is written and read apart
/// from the body because the envelopes keep theirs in the frame header.
trait Tagged: Sized {
    fn tag(&self) -> u8;
    fn put_body(&self, w: &mut Writer);
    fn take_body(tag: u8, r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// The reader of one tuple-variant field; `$_field` only drives the repetition.
macro_rules! take_field {
    ($_field:ident, $r:ident) => {
        Wire::take($r)?
    };
}

/// `tag => Variant`, `tag => Variant(a)` or `tag => Variant { a, b }`: the
/// variant's tag and its fields in wire order. `Ty, <unknown-tag error>;` leaves
/// the tag to the frame header; `Ty tagged "<what>";` puts it in front of the
/// body and rejects an unknown one as `Malformed("<what> tag n")`.
macro_rules! wire_enum {
    ($ty:ident tagged $what:literal; $($rows:tt)*) => {
        wire_enum! { $ty, |tag| CodecError::Malformed(format!("{} tag {tag}", $what)); $($rows)* }
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                self.tag().put(w);
                self.put_body(w);
            }
            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let tag = u8::take(r)?;
                Self::take_body(tag, r)
            }
        }
    };
    ($ty:ident, $unknown:expr; $(
        $tag:literal => $variant:ident $(($($t:ident),*))? $({ $($f:ident),* })?,
    )*) => {
        impl Tagged for $ty {
            fn tag(&self) -> u8 {
                match self {
                    $(Self::$variant { .. } => $tag,)*
                }
            }
            fn put_body(&self, w: &mut Writer) {
                match self {
                    $(Self::$variant $(($($t),*))? $({ $($f),* })? => {
                        $($($t.put(w);)*)?
                        $($($f.put(w);)*)?
                    })*
                }
            }
            fn take_body(tag: u8, r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(match tag {
                    $($tag => Self::$variant
                        $(($(take_field!($t, r)),*))?
                        $({ $($f: Wire::take(r)?),* })?,)*
                    other => return Err(($unknown)(other)),
                })
            }
        }
    };
}

wire_enum! { Request, CodecError::UnknownKind;
    0x01 => Trapdoor(m),
    0x02 => Query(m),
    0x03 => BatchQuery(m),
    0x04 => Documents(m),
    0x05 => BlindDecrypt(m),
    0x06 => Upload(m),
    0x07 => EnableCache { capacity_per_shard },
    0x08 => DisableCache,
    0x09 => CacheStats,
    0x0a => SnapshotIndex,
    0x0b => RestoreIndex(bytes),
    0x0c => Counters,
    0x0d => ResetCounters,
    0x0e => ServerInfo,
    0x0f => MetricsSnapshot,
    0x10 => RegisterNode(m),
    0x11 => NodeHeartbeat(m),
}

wire_enum! { Response, CodecError::UnknownKind;
    0x81 => Search(m),
    0x82 => BatchSearch(m),
    0x83 => Documents(m),
    0x84 => Trapdoor(m),
    0x85 => BlindDecrypt(m),
    0x86 => Uploaded { documents },
    0x87 => Ack,
    0x88 => CacheStats(stats),
    0x89 => Snapshot(bytes),
    0x8a => Restored { documents },
    0x8b => Counters(m),
    0x8c => Info(m),
    0x8d => Error(e),
    0x8e => MetricsReport(m),
    0x8f => ShardAssignment(m),
}

wire_enum! { ProtocolError tagged "protocol-error";
    0 => BadSignature,
    1 => UnknownDocument(id),
    2 => Crypto(msg),
    3 => NotEnoughMatches { requested, available },
    4 => Store(e),
    5 => Persistence(e),
    6 => Codec(e),
    7 => Unsupported(msg),
    8 => Transport(e),
}

wire_enum! { TransportError tagged "transport-error";
    0 => FrameTooLarge { declared, max },
    1 => IdleTimeout { idle_ms },
    2 => Overloaded { retry_after_ms },
}

wire_enum! { StoreError tagged "store-error";
    0 => LevelCountMismatch { expected, found },
    1 => IndexSizeMismatch { expected, found },
    2 => DuplicateDocument(id),
}

wire_enum! { PersistenceError tagged "persistence-error";
    0 => BadMagic,
    1 => UnsupportedVersion(v),
    2 => Truncated,
    3 => ParameterMismatch { expected_r, found_r, expected_eta, found_eta },
    4 => Store(e),
}

wire_enum! { CodecError tagged "codec-error";
    0 => Truncated,
    1 => UnknownVersion(v),
    2 => UnknownKind(k),
    3 => Malformed(msg),
    4 => ResponseMismatch { expected, found },
}

// --- the byte sink and the byte source ---------------------------------------

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

    /// A length or count prefix of width `N`. Encode-side only, like
    /// `finish`: a section its own prefix cannot describe fails loudly here
    /// instead of wrapping into a corrupt stream.
    fn count<N: Wire + TryFrom<usize>>(&mut self, len: usize) {
        let n = N::try_from(len).ok();
        n.expect("section exceeds its length prefix; split the request")
            .put(self);
    }
}

/// The bytes not yet taken.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// The only place bytes leave the buffer: `len` is held against what is
    /// actually left, whoever claimed it.
    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let (taken, rest) = self.0.split_at_checked(len).ok_or(CodecError::Truncated)?;
        self.0 = rest;
        Ok(taken)
    }

    /// `N` bytes as an array, for the fixed-width integers.
    fn le<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        // `take(N)` is N bytes long or an error, so the conversion always
        // succeeds; mapping its error keeps this path free of any panic.
        self.take(N)?.try_into().map_err(|_| CodecError::Truncated)
    }

    /// A length or count prefix of width `N`.
    fn count<N: Wire + TryInto<usize>>(&mut self) -> Result<usize, CodecError> {
        let n = N::take(self)?.try_into();
        n.map_err(|_| CodecError::Malformed("count exceeds usize".to_string()))
    }

    /// `count u32 | bytes`, borrowed.
    fn section(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.count::<u32>()?;
        self.take(len)
    }

    fn expect_end(&self) -> Result<(), CodecError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(CodecError::Malformed(format!(
                "{n} trailing bytes after the envelope body"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameBuffer;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The one frame `wire` holds, popped by a `FrameBuffer` with nothing
    /// left behind it.
    fn only_frame(wire: &[u8]) -> Vec<u8> {
        let mut frames = FrameBuffer::new(u32::MAX.into());
        frames.extend(wire).unwrap();
        let payload = frames.pop().unwrap().expect("a complete frame");
        assert_eq!(frames.pending_bytes(), 0, "one frame, nothing behind it");
        payload
    }
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
            }),
        ]
    }

    fn arb_node_registration(rng: &mut StdRng) -> NodeRegistration {
        NodeRegistration {
            node_id: rng.gen_range(0u64..1 << 32),
            capabilities: NodeCapabilities {
                shard_slots: rng.gen_range(0u32..64),
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
                let payload = only_frame(&frame);
                let (decoded_id, decoded) = decode_request(&payload).unwrap();
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
                let payload = only_frame(&frame);
                let (decoded_id, decoded) = decode_response(&payload).unwrap();
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
                let mut frames = FrameBuffer::new(u32::MAX.into());
                frames.extend(&frame[..cut]).unwrap();
                prop_assert_eq!(frames.pop(), Ok(None), "truncation at {} yielded a frame", cut);
            }
            // Truncating the payload itself (bypassing the length prefix) must
            // also fail typed, never panic.
            let payload = only_frame(&frame);
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
            // Either a typed error or a (different but valid) value — the
            // property is the absence of panics and of silent trailing data.
            let _ = decode_response(&only_frame(&frame));
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
        "026fdd7102233e82cfc15146fbecd069746e36f63230d72b71c3a81e84407448\
         9f6f2edb88504aff1afd46ab10e552a7dbed7117594dfc1e00f367728c0dfbaa";

    #[test]
    fn unknown_version_and_kind_are_typed_errors() {
        let request = Request::CacheStats;
        let mut frame = encode_request(5, &request);
        frame[4] = 99; // version byte (after the 4-byte length prefix)
        let payload = only_frame(&frame);
        assert_eq!(
            decode_request(&payload),
            Err(CodecError::UnknownVersion(99))
        );

        let mut frame = encode_request(5, &request);
        frame[13] = 0x7f; // kind byte: unknown request kind
        let payload = only_frame(&frame);
        assert_eq!(decode_request(&payload), Err(CodecError::UnknownKind(0x7f)));

        // A response kind inside a request frame (and vice versa) is malformed.
        let response_frame = encode_response(5, &Response::Ack);
        let payload = only_frame(&response_frame);
        assert!(matches!(
            decode_request(&payload),
            Err(CodecError::Malformed(_))
        ));
        let request_frame = encode_request(5, &request);
        let payload = only_frame(&request_frame);
        assert!(matches!(
            decode_response(&payload),
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
        let payload = only_frame(&padded);
        assert!(matches!(
            decode_request(&payload),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn frame_streams_decode_in_order() {
        let a = encode_request(1, &Request::CacheStats);
        let b = encode_request(2, &Request::ServerInfo);
        let wire: Vec<u8> = [a, b].concat();
        let mut frames = FrameBuffer::new(u32::MAX.into());
        frames.extend(&wire).unwrap();
        let mut decoded = Vec::new();
        while let Some(payload) = frames.pop().unwrap() {
            decoded.push(decode_request(&payload).unwrap());
        }
        assert_eq!(
            decoded,
            vec![(1, Request::CacheStats), (2, Request::ServerInfo)]
        );
        assert_eq!(frames.pending_bytes(), 0);
    }

    #[test]
    fn metrics_report_rejects_unknown_telemetry_level() {
        let mut rng = StdRng::seed_from_u64(11);
        let snapshot = arb_metrics_snapshot(&mut rng);
        let frame = encode_response(7, &Response::MetricsReport(snapshot));
        let payload = only_frame(&frame);
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
            let payload = only_frame(&frame);
            let (id, decoded) = decode_response(&payload).unwrap();
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
        let payload = only_frame(&frame);
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
        let beat = Request::NodeHeartbeat(NodeHeartbeat { node_id: 9 });
        let assignment = Response::ShardAssignment(arb_shard_assignment(&mut rng));

        for request in [&register, &beat] {
            let frame = encode_request(17, request);
            let payload = only_frame(&frame);
            let (id, decoded) = decode_request(&payload).unwrap();
            assert_eq!(id, 17);
            assert_eq!(&decoded, request);
            // Every payload truncation is a typed error, never a panic.
            for cut in 0..payload.len() {
                assert!(decode_request(&payload[..cut]).is_err(), "cut at {cut}");
            }
        }

        let frame = encode_response(17, &assignment);
        let payload = only_frame(&frame);
        assert_eq!(decode_response(&payload).unwrap(), (17, assignment));
        for cut in 0..payload.len() {
            assert!(decode_response(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn heartbeat_frame_is_prefix_header_and_node_id() {
        let beat = Request::NodeHeartbeat(NodeHeartbeat { node_id: 3 });
        let frame = encode_request(7, &beat);
        // 4-byte length prefix, 10-byte header (version u8 + request_id u64 +
        // kind u8), then the node id u64 — and nothing else.
        assert_eq!(frame.len(), 4 + 10 + 8);
        assert_eq!(frame[..4], 18u32.to_le_bytes());
        assert_eq!(frame[13], 0x11);
        assert_eq!(frame[14..], 3u64.to_le_bytes());
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
        let payload = only_frame(&frame);
        assert!(matches!(
            decode_response(&payload),
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
