//! The one pipelined client — request ids, an outbox of request frames, an
//! inbox of replies correlated by id and [`WireStats`], written once over any
//! [`Transport`] — and the typed calls, written once over any blocking round
//! trip ([`TypedCalls`]).
//!
//! A [`Client`] encodes every request into its outbox; [`Client::flush`] hands
//! the whole outbox to its transport in one go, and the reply bytes are
//! reassembled ([`FrameBuffer`]), decoded ([`wire::decode_response`]) and
//! correlated by their echoed request id — in **any** order, which is what
//! makes the client pipelined rather than merely batched. Its two forms differ
//! only in how bytes move:
//!
//! * **in process** the transport is the [`Service`] itself
//!   (`Client<CloudServer>`, `Client<DataOwner>`): a flush runs [`serve`] on
//!   the outbox, so every reply is in the inbox when the flush returns;
//! * **over a link** the transport is a [`Link`] — the two halves of a TCP
//!   stream or of an in-process [`MemoryLink`] (`Client<Link>`, which
//!   `mkse-net` calls `NetClient`): a flush sends, and [`Client::wait_take`]
//!   receives until the wanted id arrives or the deadline passes.
//!
//! ```text
//! submit ─▶ outbox ──flush──▶ transport ─ ─ reply bytes ─▶ FrameBuffer ─▶ decode_response
//!              (serve in process, send over a link)                            │
//!    take / wait_take(id): correlate out of order ◀──────────── inbox ◀────────┘
//! ```
//!
//! Because every byte crosses the codec, the client knows the system's *real*
//! communication cost: [`Client::wire_stats`] counts frames and framed bytes in
//! both directions, which [`crate::SearchSession`] records next to the analytic
//! Table 1 bit counts.
//!
//! Every typed call (`query`, `upload`, `server_info`, …) is one [`Request`]
//! through the implementor's round trip plus the one extractor of its reply
//! variant (`Response::into_*`, which equally resolves a reply taken from a
//! pipelined inbox). The in-process client implements [`TypedCalls`] with
//! `Error = ProtocolError`; `mkse-net`'s retrying client with its
//! [`ClientError`].
//!
//! For local operators the in-process client also [`Deref`](std::ops::Deref)s
//! to the wrapped service, so in-process admin/introspection (`num_shards()`,
//! `cache_stats()`, …) stays ergonomic; a remote deployment routes those
//! through their envelope variants instead. Keep [`TypedCalls`] in scope where
//! typed calls are made: without it, a name the service also defines (such as
//! `upload`) resolves to the service's own method, which crosses no codec.

use crate::envelope::{
    NodeHeartbeat, NodeRegistration, Request, Response, ServerInfo, Service, ShardAssignment,
};
use crate::frame::FrameBuffer;
use crate::link::{LinkReader, LinkWriter, MemoryLink};
use crate::messages::{
    BatchQueryMessage, BatchSearchReply, BlindDecryptReply, BlindDecryptRequest, DocumentReply,
    DocumentRequest, EncryptedDocumentTransfer, QueryMessage, SearchReply, TrapdoorReply,
    TrapdoorRequest, UploadMessage,
};
use crate::wire::{self, CodecError};
use crate::{OperationCounters, ProtocolError, TransportError};
use mkse_core::cache::CacheStats;
use mkse_core::document_index::RankedDocumentIndex;
use mkse_core::telemetry::{Counter, MetricsSnapshot, Stage};
use std::collections::BTreeMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Frames and framed bytes a client has moved in each direction — the measured
/// communication cost, as opposed to the analytic Table 1 bit counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Request frames encoded and shipped.
    pub frames_sent: u64,
    /// Response frames received and decoded.
    pub frames_received: u64,
    /// Total framed request bytes (length prefix + header + body).
    pub bytes_sent: u64,
    /// Total framed response bytes.
    pub bytes_received: u64,
    /// Nanoseconds spent blocked waiting for replies (zero for in-process
    /// clients; a link client accumulates its parked reply waits here).
    pub wait_ns: u64,
}

impl WireStats {
    /// The difference `self − earlier` (field-wise); `earlier` must be a prior
    /// snapshot of the same counter set.
    pub fn since(&self, earlier: &WireStats) -> WireStats {
        WireStats {
            frames_sent: self.frames_sent - earlier.frames_sent,
            frames_received: self.frames_received - earlier.frames_received,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            bytes_received: self.bytes_received - earlier.bytes_received,
            wait_ns: self.wait_ns - earlier.wait_ns,
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &WireStats) -> WireStats {
        WireStats {
            frames_sent: self.frames_sent + other.frames_sent,
            frames_received: self.frames_received + other.frames_received,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
            wait_ns: self.wait_ns + other.wait_ns,
        }
    }
}

/// Drive a service over a raw request wire: decode each frame, execute it, and
/// return the concatenated reply frames (each echoing its request id).
///
/// This is the server side of the in-process transport. Every frame is decoded
/// before any is executed, so a frame that fails to decode — or bytes left over
/// after the last complete frame — aborts the whole wire with a
/// [`ProtocolError::Codec`] and nothing runs (there is no trustworthy request
/// id to correlate an error reply to).
///
/// When the service exposes a telemetry registry ([`Service::telemetry`]),
/// the transport records the framed traffic it moves (frames and framed bytes
/// in both directions) and — at the `Spans` level — the decode/encode
/// durations. Recording only touches the registry: reply bytes are identical
/// whether or not a registry is present.
pub fn serve<S: Service>(service: &mut S, request_wire: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    let telemetry = service.telemetry().cloned();
    let decoded = {
        let _decode_span = telemetry.as_ref().and_then(|t| t.span(Stage::FrameDecode));
        let mut frames = FrameBuffer::new(u32::MAX.into());
        frames.extend(request_wire)?;
        let mut decoded = Vec::new();
        while let Some(payload) = frames.pop()? {
            decoded.push(wire::decode_request(&payload)?);
        }
        if frames.pending_bytes() > 0 {
            return Err(CodecError::Truncated.into());
        }
        decoded
    };
    let frames = decoded.len() as u64;
    if let Some(t) = &telemetry {
        t.add(Counter::WireFramesIn, frames);
        t.add(Counter::WireBytesIn, request_wire.len() as u64);
    }
    let mut reply_wire = Vec::new();
    for (request_id, request) in decoded {
        let response = service.call(request);
        let _encode_span = telemetry.as_ref().and_then(|t| t.span(Stage::FrameEncode));
        reply_wire.extend_from_slice(&wire::encode_response(request_id, &response));
    }
    if let Some(t) = &telemetry {
        t.add(Counter::WireFramesOut, frames);
        t.add(Counter::WireBytesOut, reply_wire.len() as u64);
    }
    Ok(reply_wire)
}

/// How a [`Client`]'s bytes move — the only thing its two forms do
/// differently.
pub trait Transport {
    /// What a failed exchange reports.
    type Error: From<CodecError> + From<TransportError>;

    /// Hand the peer whole request frames. Returns the reply bytes that are
    /// already there: in process every reply of the flush, over a link none.
    fn send(&mut self, frames: Vec<u8>) -> Result<Vec<u8>, Self::Error>;

    /// Wait at most `timeout` for reply bytes: `Some(n)` means `n` bytes are
    /// in `buf`, `Some(0)` that no more will come (the peer closed, or in
    /// process every reply has arrived already), `None` that none came in
    /// time.
    fn recv(&mut self, buf: &mut [u8], timeout: Duration) -> Result<Option<usize>, Self::Error>;

    /// The error for a reply to `request_id` that will never come
    /// (`timed_out == false`) or did not come before the deadline.
    fn lost(request_id: u64, timed_out: bool) -> Self::Error;
}

/// The pipelined envelope client over a [`Transport`]. Request ids are
/// assigned from a configurable base ([`Client::with_first_request_id`]) so
/// several clients of one hub can keep their ids globally unique — the
/// journal-replay equivalence oracle correlates on exactly that.
pub struct Client<T> {
    transport: T,
    next_id: u64,
    outbox: Vec<u8>,
    outbox_frames: u64,
    replies: FrameBuffer,
    inbox: BTreeMap<u64, Response>,
    stats: WireStats,
}

impl<T: Transport> Client<T> {
    /// A client over `transport`. Request ids start at 1 and increase by 1
    /// per submitted request.
    fn over(transport: T) -> Self {
        Client {
            transport,
            next_id: 1,
            outbox: Vec::new(),
            outbox_frames: 0,
            replies: FrameBuffer::new(u32::MAX.into()),
            inbox: BTreeMap::new(),
            stats: WireStats::default(),
        }
    }

    /// Start request-id assignment at `id` (builder-style).
    pub fn with_first_request_id(mut self, id: u64) -> Self {
        self.next_id = id;
        self
    }

    /// The id the next [`Client::submit`] will assign (useful for reporting
    /// which ids a round of work used).
    pub fn next_request_id(&self) -> u64 {
        self.next_id
    }

    /// Frames/bytes moved so far, both directions.
    pub fn wire_stats(&self) -> WireStats {
        self.stats
    }

    /// Encode `request` into the outbox and return its request id. Nothing
    /// moves until [`Client::flush`].
    pub fn submit(&mut self, request: &Request) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let frame = wire::encode_request(id, request);
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        self.outbox_frames += 1;
        self.outbox.extend_from_slice(&frame);
        id
    }

    /// Number of responses decoded and waiting to be taken.
    pub fn ready(&self) -> usize {
        self.inbox.len()
    }

    /// Ship every submitted frame in one go; whatever replies the transport
    /// already holds (in process: all of them) land in the inbox.
    pub fn flush(&mut self) -> Result<(), T::Error> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        let wire = std::mem::take(&mut self.outbox);
        self.outbox_frames = 0;
        let replies = self.transport.send(wire)?;
        self.ingest(&replies)
    }

    /// Reassemble and decode reply bytes (in whatever order and fragments
    /// they arrive) into the inbox, correlating each by its echoed request id.
    fn ingest(&mut self, bytes: &[u8]) -> Result<(), T::Error> {
        self.replies.extend(bytes)?;
        while let Some(payload) = self.replies.pop()? {
            // Frame overhead is part of the measured cost: count the framed
            // bytes, not the decoded payloads.
            self.stats.frames_received += 1;
            self.stats.bytes_received += payload.len() as u64 + 4;
            let (id, response) = wire::decode_response(&payload)?;
            self.inbox.insert(id, response);
        }
        Ok(())
    }

    /// Take the reply correlated to `request_id` if it has arrived, without
    /// touching the transport.
    pub fn take(&mut self, request_id: u64) -> Option<Response> {
        self.inbox.remove(&request_id)
    }

    /// Block until the reply for `request_id` arrives (other replies are
    /// ingested into the inbox on the way), no longer than `timeout`.
    ///
    /// The wait parks instead of polling: each receive may block for the
    /// rest of the deadline, so the thread sleeps on the pipe's condvar
    /// (memory links) or in the kernel (TCP) until bytes actually arrive.
    /// Total blocked time is surfaced as [`WireStats::wait_ns`].
    pub fn wait_take(&mut self, request_id: u64, timeout: Duration) -> Result<Response, T::Error> {
        let started = Instant::now();
        let deadline = started + timeout;
        let mut buf = [0u8; 16 * 1024];
        let result = loop {
            if let Some(response) = self.inbox.remove(&request_id) {
                break Ok(response);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match self.transport.recv(&mut buf, left) {
                Ok(Some(0)) => break Err(T::lost(request_id, false)),
                Ok(Some(n)) => {
                    if let Err(e) = self.ingest(&buf[..n]) {
                        break Err(e);
                    }
                }
                Ok(None) if left.is_zero() => break Err(T::lost(request_id, true)),
                Ok(None) => {}
                Err(e) => break Err(e),
            }
        };
        self.stats.wait_ns += started.elapsed().as_nanos() as u64;
        result
    }

    /// Drop every queued-but-unflushed request frame and every unclaimed reply.
    ///
    /// Error-recovery hatch for pipelined callers: if a window fails between
    /// `submit` and `flush` (or replies are left untaken after an error),
    /// abandoning the window guarantees the next flush ships nothing stale
    /// and the inbox does not accumulate orphaned replies. Already-flushed
    /// requests were executed by the peer and are not undone. Abandoned
    /// request frames were never shipped, so their bytes are removed from
    /// `wire_stats` again.
    pub fn abandon(&mut self) {
        self.stats.bytes_sent -= self.outbox.len() as u64;
        self.stats.frames_sent -= self.outbox_frames;
        self.outbox_frames = 0;
        self.outbox.clear();
        self.inbox.clear();
    }
}

/// In process the transport is the service itself: a flush runs [`serve`] on
/// the outbox, so every reply has arrived by the time the flush returns.
impl<S: Service> Transport for S {
    type Error = ProtocolError;

    fn send(&mut self, frames: Vec<u8>) -> Result<Vec<u8>, ProtocolError> {
        serve(self, &frames)
    }

    fn recv(&mut self, _: &mut [u8], _: Duration) -> Result<Option<usize>, ProtocolError> {
        Ok(Some(0))
    }

    fn lost(request_id: u64, _timed_out: bool) -> ProtocolError {
        ProtocolError::Codec(CodecError::Malformed(format!(
            "no reply correlated to request id {request_id}"
        )))
    }
}

impl<S: Service> Client<S> {
    /// Wrap a service endpoint. Request ids start at 1 and increase by 1 per
    /// submitted request.
    pub fn new(service: S) -> Self {
        Self::over(service)
    }

    /// Submit one request, flush, and return its reply — the non-pipelined
    /// round trip every typed call builds on. Any previously submitted
    /// requests are flushed (and their replies parked in the inbox) first.
    pub fn call(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        let id = self.submit(request);
        self.flush()?;
        self.take(id).ok_or_else(|| S::lost(id, false))
    }
}

impl<S: Service> std::ops::Deref for Client<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.transport
    }
}

impl<S: Service> std::ops::DerefMut for Client<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.transport
    }
}

/// Over a link the transport is the two halves of one connection: a flush
/// sends the outbox in one write, and replies are read as they arrive.
pub struct Link {
    reader: Box<dyn LinkReader>,
    writer: Box<dyn LinkWriter>,
}

impl Transport for Link {
    type Error = ClientError;

    fn send(&mut self, frames: Vec<u8>) -> Result<Vec<u8>, ClientError> {
        self.writer.send_all(&frames)?;
        Ok(Vec::new())
    }

    fn recv(&mut self, buf: &mut [u8], timeout: Duration) -> Result<Option<usize>, ClientError> {
        if timeout.is_zero() {
            return Ok(None);
        }
        let _ = self.reader.set_recv_timeout(timeout);
        match self.reader.recv(buf) {
            Ok(n) => Ok(Some(n)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(ClientError::Io(e)),
        }
    }

    fn lost(request_id: u64, timed_out: bool) -> ClientError {
        match timed_out {
            true => ClientError::TimedOut { request_id },
            false => ClientError::Disconnected { request_id },
        }
    }
}

impl Client<Link> {
    /// Connect over TCP.
    pub fn connect_tcp<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        Ok(Self::from_parts(Box::new(read_half), Box::new(stream)))
    }

    /// Wrap the client end of an in-process link.
    pub fn from_memory(link: MemoryLink) -> Self {
        let (reader, writer) = link.split();
        Self::from_parts(Box::new(reader), Box::new(writer))
    }

    /// Wrap an arbitrary split link.
    pub fn from_parts(reader: Box<dyn LinkReader>, writer: Box<dyn LinkWriter>) -> Self {
        Self::over(Link { reader, writer })
    }

    /// Submit + flush + wait: one blocking round trip.
    pub fn call(&mut self, request: &Request, timeout: Duration) -> Result<Response, ClientError> {
        let id = self.submit(request);
        self.flush()?;
        self.wait_take(id, timeout)
    }

    /// Ship raw pre-framed bytes immediately, bypassing the envelope codec —
    /// for harnesses that need to send hand-built (or hostile) frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.transport
            .writer
            .send_all(bytes)
            .map_err(ClientError::Io)
    }
}

/// Failures a link client (and the retrying client built on it) can observe.
/// A peer's typed refusal arrives as an ordinary [`Response::Error`] reply;
/// only a typed call turns it into [`ClientError::Reply`].
#[derive(Debug)]
pub enum ClientError {
    /// The link failed (connect, send, or receive).
    Io(io::Error),
    /// A reply frame did not decode.
    Codec(CodecError),
    /// The client-side frame limit rejected a reply frame.
    Transport(TransportError),
    /// No reply for this request id within the wait deadline.
    TimedOut {
        /// The request that went unanswered.
        request_id: u64,
    },
    /// The server closed the connection before answering this request id.
    Disconnected {
        /// The request that went unanswered.
        request_id: u64,
    },
    /// A non-idempotent request (upload, cache admin, restore) failed
    /// mid-flight: the link died after the request may have reached the
    /// server, so resubmitting could execute it twice. The resilient client
    /// never auto-retries one and surfaces this instead; the caller decides.
    RetryUnsafe {
        /// The envelope name of the operation that cannot be safely retried.
        op: &'static str,
        /// The underlying failure of the last attempt.
        cause: Box<ClientError>,
    },
    /// A typed call was answered, but with a typed error or with a reply of
    /// the wrong variant ([`CodecError::ResponseMismatch`]).
    Reply(ProtocolError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "link failure: {e}"),
            ClientError::Codec(e) => write!(f, "reply frame did not decode: {e}"),
            ClientError::Transport(e) => write!(f, "reply frame rejected: {e}"),
            ClientError::TimedOut { request_id } => {
                write!(f, "no reply for request #{request_id} before the deadline")
            }
            ClientError::Disconnected { request_id } => {
                write!(
                    f,
                    "connection closed before request #{request_id} was answered"
                )
            }
            ClientError::RetryUnsafe { op, cause } => {
                write!(
                    f,
                    "{op} failed mid-flight and is not idempotent — not retried \
                     (the server may or may not have executed it): {cause}"
                )
            }
            ClientError::Reply(e) => write!(f, "the peer answered: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Reply(e)
    }
}

/// The typed calls, written once: an implementor supplies one blocking round
/// trip, and every call is one [`Request`] through it plus the extractor of
/// its reply variant. A typed error reply, or a reply of the wrong variant,
/// comes back as the [`ProtocolError`] the extractor names, converted into
/// `Self::Error`.
pub trait TypedCalls {
    /// What a failed call reports.
    type Error: From<ProtocolError>;

    /// One request, one reply, blocking.
    fn round_trip(&mut self, request: &Request) -> Result<Response, Self::Error>;

    /// One ranked query (§4.3): `Request::Query` → the reply's matches.
    fn query(&mut self, message: &QueryMessage) -> Result<SearchReply, Self::Error> {
        typed(self, Request::Query(message.clone()), Response::into_search)
    }

    /// Many queries in one round trip: `Request::BatchQuery`.
    fn batch_query(&mut self, batch: &BatchQueryMessage) -> Result<BatchSearchReply, Self::Error> {
        typed(
            self,
            Request::BatchQuery(batch.clone()),
            Response::into_batch_search,
        )
    }

    /// Retrieve documents by id: `Request::Documents`.
    fn fetch_documents(&mut self, request: &DocumentRequest) -> Result<DocumentReply, Self::Error> {
        typed(
            self,
            Request::Documents(request.clone()),
            Response::into_documents,
        )
    }

    /// Request bin keys from the data owner: `Request::Trapdoor`.
    fn request_trapdoors(&mut self, req: &TrapdoorRequest) -> Result<TrapdoorReply, Self::Error> {
        typed(
            self,
            Request::Trapdoor(req.clone()),
            Response::into_trapdoor,
        )
    }

    /// One blinded decryption round: `Request::BlindDecrypt`.
    fn blind_decrypt(
        &mut self,
        req: &BlindDecryptRequest,
    ) -> Result<BlindDecryptReply, Self::Error> {
        typed(
            self,
            Request::BlindDecrypt(req.clone()),
            Response::into_blind_decrypt,
        )
    }

    /// The offline-phase upload: `Request::Upload`. Returns the number of
    /// documents stored after the upload.
    fn upload(
        &mut self,
        indices: Vec<RankedDocumentIndex>,
        documents: Vec<EncryptedDocumentTransfer>,
    ) -> Result<u64, Self::Error> {
        let upload = UploadMessage { indices, documents };
        typed(self, Request::Upload(upload), Response::into_uploaded)
    }

    /// Enable the server's result cache: `Request::EnableCache`.
    fn enable_cache(&mut self, capacity_per_shard: u64) -> Result<(), Self::Error> {
        typed(
            self,
            Request::EnableCache { capacity_per_shard },
            Response::into_ack,
        )
    }

    /// Disable the server's result cache: `Request::DisableCache`.
    fn disable_cache(&mut self) -> Result<(), Self::Error> {
        typed(self, Request::DisableCache, Response::into_ack)
    }

    /// Read the cumulative cache counters over the wire: `Request::CacheStats`.
    fn remote_cache_stats(&mut self) -> Result<Option<CacheStats>, Self::Error> {
        typed(self, Request::CacheStats, Response::into_cache_stats)
    }

    /// Snapshot the server's index over the wire: `Request::SnapshotIndex`.
    fn snapshot(&mut self) -> Result<Vec<u8>, Self::Error> {
        typed(self, Request::SnapshotIndex, Response::into_snapshot)
    }

    /// Restore an index snapshot over the wire: `Request::RestoreIndex`.
    /// Returns the number of documents appended.
    fn restore(&mut self, snapshot: Vec<u8>) -> Result<u64, Self::Error> {
        typed(
            self,
            Request::RestoreIndex(snapshot),
            Response::into_restored,
        )
    }

    /// Read the remote party's operation counters: `Request::Counters`.
    fn remote_counters(&mut self) -> Result<OperationCounters, Self::Error> {
        typed(self, Request::Counters, Response::into_counters)
    }

    /// Reset the remote party's operation counters: `Request::ResetCounters`.
    fn reset_remote_counters(&mut self) -> Result<(), Self::Error> {
        typed(self, Request::ResetCounters, Response::into_ack)
    }

    /// Read static deployment facts: `Request::ServerInfo`.
    fn server_info(&mut self) -> Result<ServerInfo, Self::Error> {
        typed(self, Request::ServerInfo, Response::into_info)
    }

    /// Snapshot the remote party's telemetry registry:
    /// `Request::MetricsSnapshot`. The reply round-trips the framed codec like
    /// every other envelope, so the dashboard view is exactly what a remote
    /// operator would see.
    fn metrics_snapshot(&mut self) -> Result<MetricsSnapshot, Self::Error> {
        typed(
            self,
            Request::MetricsSnapshot,
            Response::into_metrics_report,
        )
    }

    /// Join a fleet: `Request::RegisterNode` → the node's shard assignment.
    fn register_node(&mut self, node: NodeRegistration) -> Result<ShardAssignment, Self::Error> {
        typed(
            self,
            Request::RegisterNode(node),
            Response::into_shard_assignment,
        )
    }

    /// One liveness beat: `Request::NodeHeartbeat` → the current assignment.
    fn node_heartbeat(&mut self, beat: NodeHeartbeat) -> Result<ShardAssignment, Self::Error> {
        typed(
            self,
            Request::NodeHeartbeat(beat),
            Response::into_shard_assignment,
        )
    }
}

/// One typed call: `request` through `client`'s round trip, its reply
/// resolved by `extract`.
fn typed<C: TypedCalls + ?Sized, T>(
    client: &mut C,
    request: Request,
    extract: fn(Response) -> Result<T, ProtocolError>,
) -> Result<T, C::Error> {
    Ok(extract(client.round_trip(&request)?)?)
}

impl<S: Service> TypedCalls for Client<S> {
    type Error = ProtocolError;

    fn round_trip(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        self.call(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::memory_duplex;
    use mkse_core::telemetry::{Telemetry, TelemetryLevel};

    /// A loopback service answering every request with `Ack` (enough to test
    /// the client's transport mechanics without a full server).
    struct AckService {
        calls: u64,
    }

    impl Service for AckService {
        fn call(&mut self, _request: Request) -> Response {
            self.calls += 1;
            Response::Ack
        }
    }

    /// An `Ack` loopback that additionally exposes a telemetry registry, so
    /// the transport-level recording in [`serve`] can be observed.
    struct MeteredAck {
        telemetry: Telemetry,
    }

    impl Service for MeteredAck {
        fn call(&mut self, _request: Request) -> Response {
            Response::Ack
        }

        fn telemetry(&self) -> Option<&Telemetry> {
            Some(&self.telemetry)
        }
    }

    #[test]
    fn serve_records_framed_wire_traffic_in_the_registry() {
        let telemetry = Telemetry::new();
        telemetry.set_level(TelemetryLevel::Counters);
        let mut client = Client::new(MeteredAck {
            telemetry: telemetry.clone(),
        });
        client.submit(&Request::CacheStats);
        client.submit(&Request::ServerInfo);
        client.flush().unwrap();

        // The registry's wire counters agree exactly with the client-side
        // measured WireStats: both observe the same frames and framed bytes.
        let snap = telemetry.snapshot();
        let stats = client.wire_stats();
        assert_eq!(snap.counter("wire_frames_in"), 2);
        assert_eq!(snap.counter("wire_frames_out"), 2);
        assert_eq!(snap.counter("wire_bytes_in"), stats.bytes_sent);
        assert_eq!(snap.counter("wire_bytes_out"), stats.bytes_received);
        // No spans at the Counters level.
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn serve_rejects_bytes_left_after_the_last_frame() {
        let mut service = AckService { calls: 0 };
        let a = wire::encode_request(1, &Request::CacheStats);
        let b = wire::encode_request(2, &Request::ServerInfo);
        let wire: Vec<u8> = [a, b].concat();
        let replies = serve(&mut service, &wire).unwrap();
        assert_eq!(service.calls, 2);
        assert_eq!(
            replies,
            [
                wire::encode_response(1, &Response::Ack),
                wire::encode_response(2, &Response::Ack)
            ]
            .concat()
        );
        // One byte short of the second frame: a typed error, and not even
        // the complete first frame runs.
        assert_eq!(
            serve(&mut service, &wire[..wire.len() - 1]),
            Err(ProtocolError::Codec(CodecError::Truncated))
        );
        assert_eq!(service.calls, 2);
    }

    #[test]
    fn garbage_reply_wire_is_a_typed_codec_error() {
        let mut client = Client::new(AckService { calls: 0 });
        // A complete frame whose payload opens with an unknown version byte.
        let err = client.ingest(&[3, 0, 0, 0, 0xff, 0xff, 0xff]).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Codec(CodecError::UnknownVersion(0xff))
        ));
    }

    #[test]
    fn flush_without_submissions_is_a_no_op() {
        let mut client = Client::new(AckService { calls: 0 });
        client.flush().unwrap();
        assert_eq!(client.ready(), 0);
        assert_eq!(client.calls, 0);
        assert_eq!(client.wire_stats(), WireStats::default());
    }

    #[test]
    fn submit_defers_execution_until_flush() {
        let mut client = Client::new(AckService { calls: 0 });
        let a = client.submit(&Request::CacheStats);
        let b = client.submit(&Request::ServerInfo);
        assert_eq!((a, b), (1, 2));
        assert_eq!(client.calls, 0, "nothing runs before the flush");
        assert_eq!(client.wire_stats().frames_received, 0);

        client.flush().unwrap();
        assert_eq!(client.ready(), 2);
        assert_eq!(client.calls, 2);
        // Correlation is by id: take the second reply first.
        assert_eq!(client.take(b), Some(Response::Ack));
        assert_eq!(client.take(a), Some(Response::Ack));
        assert_eq!(client.take(a), None, "a reply can be taken once");

        let stats = client.wire_stats();
        assert_eq!(stats.frames_sent, 2);
        assert_eq!(stats.frames_received, 2);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    }

    #[test]
    fn abandon_drops_unflushed_frames_and_orphaned_replies() {
        let mut client = Client::new(AckService { calls: 0 });
        // One flushed-but-untaken reply plus one unflushed frame.
        client.submit(&Request::CacheStats);
        client.flush().unwrap();
        client.submit(&Request::ServerInfo);
        assert_eq!(client.ready(), 1);

        client.abandon();
        assert_eq!(client.ready(), 0);
        // The next flush executes nothing stale.
        client.flush().unwrap();
        assert_eq!(client.ready(), 0);
        assert_eq!(client.calls, 1, "abandoned frame must never execute");
        // The unshipped frame's bytes are removed from the stats again; the
        // executed exchange stays counted.
        let stats = client.wire_stats();
        assert_eq!(stats.frames_sent, 1);
        assert_eq!(stats.frames_received, 1);
    }

    #[test]
    fn wire_stats_arithmetic() {
        let a = WireStats {
            frames_sent: 5,
            frames_received: 4,
            bytes_sent: 100,
            bytes_received: 90,
            wait_ns: 900,
        };
        let b = WireStats {
            frames_sent: 2,
            frames_received: 2,
            bytes_sent: 40,
            bytes_received: 30,
            wait_ns: 400,
        };
        assert_eq!(
            a.since(&b),
            WireStats {
                frames_sent: 3,
                frames_received: 2,
                bytes_sent: 60,
                bytes_received: 60,
                wait_ns: 500,
            }
        );
        assert_eq!(
            b.plus(&b),
            WireStats {
                frames_sent: 4,
                frames_received: 4,
                bytes_sent: 80,
                bytes_received: 60,
                wait_ns: 800,
            }
        );
    }

    #[test]
    fn mismatched_reply_variant_is_a_typed_error() {
        // AckService answers Ack to everything — a typed query helper must turn
        // that into a ResponseMismatch, not a panic.
        let mut client = Client::new(AckService { calls: 0 });
        let err = client.remote_counters().unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Codec(CodecError::ResponseMismatch { .. })
        ));
    }

    /// The link form reassembles a reply torn across reads, correlates it by
    /// id, and reports the peer's close as `Disconnected`.
    #[test]
    fn link_client_correlates_torn_replies_then_sees_the_close() {
        let (client_end, server_end) = memory_duplex();
        let mut client = Client::from_memory(client_end).with_first_request_id(40);
        let (_server_reader, mut server_writer) = server_end.split();
        let (a, b) = (
            client.submit(&Request::CacheStats),
            client.submit(&Request::Counters),
        );
        client.flush().unwrap();
        let replies = [
            wire::encode_response(b, &Response::Ack),
            wire::encode_response(a, &Response::CacheStats(None)),
        ]
        .concat();
        for byte in &replies {
            server_writer.send_all(std::slice::from_ref(byte)).unwrap();
        }
        drop(server_writer);
        let wait = Duration::from_secs(5);
        assert_eq!(
            client.wait_take(a, wait).unwrap(),
            Response::CacheStats(None)
        );
        assert_eq!(client.take(b), Some(Response::Ack));
        assert!(matches!(
            client.wait_take(b + 1, wait),
            Err(ClientError::Disconnected { request_id: 42 })
        ));
        let stats = client.wire_stats();
        assert_eq!((stats.frames_sent, stats.frames_received), (2, 2));
        assert_eq!(stats.bytes_received, replies.len() as u64);
    }
}
