//! The hub: one process owning the index, many concurrent client connections
//! over [`LinkReader`]/[`LinkWriter`] pairs, and the **adaptive cross-client
//! batcher** that coalesces independent single-query frames into one fused
//! scan-plane pass.
//!
//! ## Topology
//!
//! One **dispatcher thread** owns the [`Service`] and every connection's
//! write half — a single-writer design: no lock ever guards the engine, and
//! execution order is a total order the optional journal records. Each
//! connection gets a **reader thread** that reassembles frames
//! ([`FrameBuffer`]), decodes requests, and forwards them as events; a
//! thread-per-connection **acceptor** feeds `TcpListener` connections into the
//! same machinery, and [`HubHandle::connect_memory`] attaches deterministic
//! in-process links for tests.
//!
//! ## The batcher
//!
//! Single-query [`Request::Query`] frames are collected into a pending group
//! and executed as **one** [`Service::call_query_group`] pass — a fused scan
//! on a `CloudServer`, one fused forward on a `Coordinator`, one `call` per
//! member for a service that keeps the trait's default; replies
//! are de-multiplexed back to each connection by request id. The batcher is
//! **work-conserving**: it never holds a group the dispatcher could usefully
//! run. While a group is pending:
//!
//! 1. **Drain before deciding.** Queued events are taken first, so every
//!    query that arrived while the last group executed joins the next one; a
//!    group that reaches [`HubConfig::batch_depth`] is flushed at once, queue
//!    or no queue. Only on an empty queue is anything decided
//!    (`Batcher::decide`, a pure function of what the dispatcher has seen).
//! 2. **Flush when complete.** A connection is *expected* from the moment it
//!    sends a query into the batcher. With the queue empty, a group is
//!    flushed immediately if every expected, still-open connection already
//!    has a query in it: two lockstep clients fuse without waiting, and a
//!    lone querier beside idle control connections is complete on arrival.
//! 3. **The window is only the straggler bound.** [`HubConfig::batch_window`]
//!    is waited out only while some expected connection is missing. A
//!    connection that misses a window flush is un-expected until it queries
//!    again, so an idle or departed client costs its peers one window, once.
//!
//! A non-query request flushes the group first (a barrier: mutating requests
//! must not reorder past queries), and when only one connection is open the
//! query skips the batcher altogether (the solo fast path). The engine's
//! batch guarantees make all of this **invisible**: replies, `SearchStats`,
//! and cache counters are byte-identical to the same requests issued
//! sequentially — the policy picks the *moment* of a flush, never the
//! execution order, which stays arrival order. The decision is computed only
//! from which connections sent which frames — bytes and topology the server
//! already observes — so by the §6 rule of thumb it opens no new leakage
//! channel.
//!
//! ## Backpressure, hygiene, shutdown
//!
//! Each connection has a [`HubConfig::max_in_flight`] window: its reader stops
//! forwarding (and therefore stops reading) until replies drain. Readers
//! enforce [`HubConfig::idle_timeout`] and [`HubConfig::max_frame_bytes`] with
//! typed [`TransportError`]s — a violating or undecodable frame poisons only
//! its own connection (best-effort error frame, then close), never the server.
//! [`HubHandle::shutdown`] refuses new frames, joins every reader, then lets
//! the dispatcher drain every already-accepted frame — the shutdown event is
//! enqueued after the joins, so channel FIFO order guarantees no accepted
//! request loses its reply.

use crate::frame::FrameBuffer;
use crate::link::{memory_duplex, LinkReader, LinkWriter, MemoryLink};
use crate::resilient::Connector;
use mkse_core::telemetry::{Counter, Gauge, Series, Stage, Telemetry};
use mkse_protocol::wire::{decode_request, encode_response};
use mkse_protocol::{ProtocolError, QueryMessage, Request, Response, Service, TransportError};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Hub`]. The defaults suit an interactive service; tests
/// and benches shrink the windows.
#[derive(Clone, Debug)]
pub struct HubConfig {
    /// Upper bound on how long a pending group waits for an *expected*
    /// connection (one that has been querying) whose query has not arrived
    /// yet — the straggler bound, not a price every group pays: a group whose
    /// expected connections are all present is flushed at once, and a
    /// connection that misses a window is not waited for again until it
    /// queries. Computed only from which connections sent which frames, which
    /// the server already observes (§6: no new leakage channel).
    pub batch_window: Duration,
    /// Flush immediately once this many queries are pending.
    pub batch_depth: usize,
    /// Per-connection cap on decoded-but-unanswered requests; the reader
    /// blocks (and the peer's TCP window eventually fills) beyond it.
    pub max_in_flight: usize,
    /// Reader poll tick: how long one `recv` blocks before the reader
    /// re-checks shutdown and idle deadlines.
    pub read_timeout: Duration,
    /// Write timeout applied to accepted TCP connections.
    pub write_timeout: Duration,
    /// Close a connection that delivers no bytes for this long.
    pub idle_timeout: Duration,
    /// Refuse frames whose prefix declares more than this many payload bytes.
    pub max_frame_bytes: u64,
    /// Record every executed request (in execution order) in the
    /// [`HubReport`] journal — the equivalence suites replay it sequentially
    /// to prove the transport invisible.
    pub journal: bool,
    /// Hub-wide cap on admitted-but-unanswered requests across *all*
    /// connections (on top of the per-connection [`HubConfig::max_in_flight`]
    /// gate). A request arriving over budget is **shed**: answered
    /// immediately with [`TransportError::Overloaded`] instead of stalling
    /// the reader, never executed, never journaled.
    pub max_hub_in_flight: usize,
    /// The advisory `retry_after_ms` hint carried by shed replies.
    pub shed_retry_after: Duration,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            batch_window: Duration::from_micros(300),
            batch_depth: 16,
            max_in_flight: 32,
            read_timeout: Duration::from_millis(5),
            write_timeout: Duration::from_secs(1),
            idle_timeout: Duration::from_secs(30),
            max_frame_bytes: 64 << 20,
            journal: false,
            max_hub_in_flight: 4096,
            shed_retry_after: Duration::from_millis(2),
        }
    }
}

/// One request the hub executed, in execution order. Replaying a journal
/// sequentially through `Service::call` on an identically-initialized twin
/// reproduces every reply byte-for-byte.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEntry {
    /// Hub-assigned connection id.
    pub conn: u64,
    /// The client's request id (hub clients keep these globally unique).
    pub request_id: u64,
    /// The request as decoded from the wire.
    pub request: Request,
}

/// What a hub did over its lifetime, returned by [`HubHandle::shutdown`].
#[derive(Debug, Default)]
pub struct HubReport {
    /// Connections ever attached.
    pub connections: u64,
    /// Requests executed (every one of them answered).
    pub requests: u64,
    /// Requests shed by the hub-wide in-flight budget (answered with
    /// [`TransportError::Overloaded`], never executed, never journaled).
    pub sheds: u64,
    /// Execution-order journal (empty unless [`HubConfig::journal`]).
    pub journal: Vec<JournalEntry>,
}

/// Per-connection backpressure window: `max_in_flight` permits, acquired by
/// the reader per forwarded frame, released by the dispatcher per written
/// reply. `open_wide` (shutdown) unblocks every waiter for good.
struct Gate {
    permits: Mutex<usize>,
    freed: Condvar,
    open: AtomicBool,
}

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            permits: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
            open: AtomicBool::new(false),
        }
    }

    fn acquire(&self) {
        if self.open.load(Ordering::Relaxed) {
            return;
        }
        let mut permits = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        while *permits == 0 && !self.open.load(Ordering::Relaxed) {
            permits = self.freed.wait(permits).unwrap_or_else(|e| e.into_inner());
        }
        *permits = permits.saturating_sub(1);
    }

    fn release(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        *permits += 1;
        self.freed.notify_one();
    }

    fn open_wide(&self) {
        self.open.store(true, Ordering::Relaxed);
        let _guard = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        self.freed.notify_all();
    }
}

enum Event {
    Opened {
        conn: u64,
        writer: Box<dyn LinkWriter>,
        gate: Arc<Gate>,
    },
    Frame {
        conn: u64,
        request_id: u64,
        request: Request,
        at: Instant,
    },
    Fault {
        conn: u64,
        error: ProtocolError,
    },
    /// A decoded request refused by the hub-wide in-flight budget: answered
    /// with `Overloaded` (correlated by its real request id), not executed.
    /// Bypasses the per-connection gate so a saturated hub still answers.
    Shed {
        conn: u64,
        request_id: u64,
    },
    Closed {
        conn: u64,
    },
    Shutdown,
}

struct HubShared {
    config: HubConfig,
    events: Mutex<Sender<Event>>,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    frames_accepted: AtomicU64,
    /// Admitted-but-unanswered requests across all connections (the hub-wide
    /// budget [`HubConfig::max_hub_in_flight`] is enforced against this).
    in_flight: AtomicU64,
    gates: Mutex<Vec<Arc<Gate>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    telemetry: Option<Telemetry>,
}

/// Entry point: [`Hub::spawn`] starts the dispatcher and returns the handle
/// everything else hangs off.
pub struct Hub;

impl Hub {
    /// Start a hub around `service`. The service moves onto the dispatcher
    /// thread; its telemetry registry (if any) is shared with the readers so
    /// wire traffic is recorded per connection.
    pub fn spawn<S: Service + Send + 'static>(service: S, config: HubConfig) -> HubHandle {
        let (tx, rx) = mpsc::channel();
        let telemetry = service.telemetry().cloned();
        let shared = Arc::new(HubShared {
            config,
            events: Mutex::new(tx),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            frames_accepted: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            gates: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            telemetry,
        });
        let dispatcher_shared = shared.clone();
        let dispatcher =
            std::thread::spawn(move || dispatcher_loop(service, rx, dispatcher_shared));
        HubHandle {
            shared,
            dispatcher: Some(dispatcher),
            acceptors: Mutex::new(Vec::new()),
        }
    }
}

/// Handle to a running hub: attach connections, observe progress, shut down.
pub struct HubHandle {
    shared: Arc<HubShared>,
    dispatcher: Option<JoinHandle<HubReport>>,
    acceptors: Mutex<Vec<(SocketAddr, JoinHandle<()>)>>,
}

impl HubHandle {
    /// Bind a TCP listener (e.g. `"127.0.0.1:0"`) and accept connections into
    /// the hub until shutdown. Returns the bound address.
    pub fn bind_tcp(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = self.shared.clone();
        let handle = std::thread::spawn(move || acceptor_loop(shared, listener));
        self.acceptors
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((local, handle));
        Ok(local)
    }

    /// Attach a deterministic in-process connection; returns the client end.
    pub fn connect_memory(&self) -> MemoryLink {
        let (client, server) = memory_duplex();
        let (reader, writer) = server.split();
        attach_link(&self.shared, Box::new(reader), Box::new(writer));
        client
    }

    /// A clonable, `'static` dialer that can keep attaching in-process
    /// connections after this handle moved elsewhere — what a reconnecting
    /// client's connector closure captures.
    pub fn memory_dialer(&self) -> MemoryDialer {
        MemoryDialer {
            shared: self.shared.clone(),
        }
    }

    /// Attach an arbitrary reader/writer pair as one connection; returns the
    /// hub-assigned connection id.
    pub fn attach(&self, reader: Box<dyn LinkReader>, writer: Box<dyn LinkWriter>) -> u64 {
        attach_link(&self.shared, reader, writer)
    }

    /// Frames accepted past the backpressure gate so far (every one of them
    /// will be answered, even across a shutdown).
    pub fn frames_accepted(&self) -> u64 {
        self.shared.frames_accepted.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: refuse new frames, join acceptors and readers, then
    /// drain — every accepted request is executed and its reply written —
    /// and return the report.
    pub fn shutdown(mut self) -> HubReport {
        self.finish()
    }

    fn finish(&mut self) -> HubReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for gate in self
            .shared
            .gates
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            gate.open_wide();
        }
        for (addr, handle) in self
            .acceptors
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            // Wake the blocking accept; the acceptor sees the flag and exits.
            let _ = TcpStream::connect(addr);
            let _ = handle.join();
        }
        loop {
            let handles: Vec<_> = self
                .shared
                .readers
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .drain(..)
                .collect();
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
        // Every reader joined above, so all their events are already in the
        // channel: FIFO order puts this sentinel after the last frame.
        let _ = self
            .shared
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .send(Event::Shutdown);
        self.dispatcher
            .take()
            .map(|d| d.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for HubHandle {
    fn drop(&mut self) {
        if self.dispatcher.is_some() {
            let _ = self.finish();
        }
    }
}

/// Clonable in-process dial handle ([`HubHandle::memory_dialer`]): each
/// [`MemoryDialer::connect`] attaches a fresh `MemoryLink` connection, so a
/// reconnecting client can re-dial a hub it does not own. Dialing a hub that
/// already shut down yields a dead link (EOF on first read), mirroring a
/// refused TCP connect.
#[derive(Clone)]
pub struct MemoryDialer {
    shared: Arc<HubShared>,
}

impl MemoryDialer {
    /// Attach a new in-process connection; returns the client end.
    pub fn connect(&self) -> MemoryLink {
        let (client, server) = memory_duplex();
        let (reader, writer) = server.split();
        attach_link(&self.shared, Box::new(reader), Box::new(writer));
        client
    }

    /// The fault-free [`Connector`] over this dialer: every (re)connection
    /// attempt dials a fresh in-process link.
    pub fn connector(&self) -> Connector {
        let dialer = self.clone();
        Box::new(move |_ordinal| {
            let (reader, writer) = dialer.connect().split();
            Ok((Box::new(reader) as _, Box::new(writer) as _))
        })
    }
}

fn attach_link(
    shared: &Arc<HubShared>,
    reader: Box<dyn LinkReader>,
    writer: Box<dyn LinkWriter>,
) -> u64 {
    let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let gate = Arc::new(Gate::new(shared.config.max_in_flight));
    shared
        .gates
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(gate.clone());
    let events = shared
        .events
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let _ = events.send(Event::Opened {
        conn,
        writer,
        gate: gate.clone(),
    });
    let reader_shared = shared.clone();
    let handle = std::thread::spawn(move || reader_loop(reader_shared, conn, reader, events, gate));
    shared
        .readers
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
    conn
}

fn acceptor_loop(shared: Arc<HubShared>, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                if let Ok(read_half) = stream.try_clone() {
                    attach_link(&shared, Box::new(read_half), Box::new(stream));
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

fn reader_loop(
    shared: Arc<HubShared>,
    conn: u64,
    mut reader: Box<dyn LinkReader>,
    events: Sender<Event>,
    gate: Arc<Gate>,
) {
    let _ = reader.set_recv_timeout(shared.config.read_timeout);
    let mut frames = FrameBuffer::new(shared.config.max_frame_bytes);
    let mut buf = vec![0u8; 16 * 1024];
    let mut last_activity = Instant::now();
    'conn: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.recv(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                last_activity = Instant::now();
                if let Err(e) = frames.extend(&buf[..n]) {
                    let _ = events.send(Event::Fault {
                        conn,
                        error: ProtocolError::Transport(e),
                    });
                    break;
                }
                loop {
                    match frames.pop() {
                        Ok(Some(payload)) => {
                            let decoded = {
                                let span = shared
                                    .telemetry
                                    .as_ref()
                                    .and_then(|t| t.span(Stage::FrameDecode));
                                let decoded = decode_request(&payload);
                                drop(span);
                                decoded
                            };
                            match decoded {
                                Ok((request_id, request)) => {
                                    if let Some(tel) = &shared.telemetry {
                                        let framed = payload.len() as u64 + 4;
                                        tel.add(Counter::WireFramesIn, 1);
                                        tel.add(Counter::WireBytesIn, framed);
                                        tel.record_conn_frame_in(conn as usize, framed);
                                    }
                                    // Hub-wide admission (exact: claim a slot,
                                    // roll back if that overshot the budget).
                                    // Checked before the per-connection gate so
                                    // overload is answered immediately even
                                    // when this connection's window is full.
                                    let prior = shared.in_flight.fetch_add(1, Ordering::SeqCst);
                                    if prior >= shared.config.max_hub_in_flight as u64 {
                                        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                                        let _ = events.send(Event::Shed { conn, request_id });
                                        continue;
                                    }
                                    gate.acquire();
                                    if shared.shutdown.load(Ordering::SeqCst) {
                                        // Refused: the hub is draining; give
                                        // the claimed budget slot back.
                                        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                                        break 'conn;
                                    }
                                    shared.frames_accepted.fetch_add(1, Ordering::SeqCst);
                                    let _ = events.send(Event::Frame {
                                        conn,
                                        request_id,
                                        request,
                                        at: Instant::now(),
                                    });
                                }
                                Err(e) => {
                                    let _ = events.send(Event::Fault {
                                        conn,
                                        error: ProtocolError::Codec(e),
                                    });
                                    break 'conn;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            let _ = events.send(Event::Fault {
                                conn,
                                error: ProtocolError::Transport(e),
                            });
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() >= shared.config.idle_timeout {
                    let _ = events.send(Event::Fault {
                        conn,
                        error: ProtocolError::Transport(TransportError::IdleTimeout {
                            idle_ms: shared.config.idle_timeout.as_millis() as u64,
                        }),
                    });
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let _ = events.send(Event::Closed { conn });
}

struct ConnState {
    writer: Box<dyn LinkWriter>,
    gate: Arc<Gate>,
}

struct Pending {
    conn: u64,
    request_id: u64,
    message: QueryMessage,
    enqueued: Instant,
}

/// What the dispatcher does with a pending group once the queue is empty.
#[derive(Debug, PartialEq)]
enum Step {
    /// Execute the pending group now, for this reason.
    Flush(Counter),
    /// An expected connection is missing: wait this long for it, at most.
    Wait(Duration),
}

/// The batcher's whole state: the pending group, in arrival order, and the
/// connections a group waits for.
#[derive(Default)]
struct Batcher {
    pending: Vec<Pending>,
    /// Connections that sent a query into the batcher and have neither
    /// closed nor missed a window flush since.
    expected: BTreeSet<u64>,
}

impl Batcher {
    fn push(&mut self, pending: Pending) {
        self.expected.insert(pending.conn);
        self.pending.push(pending);
    }

    /// Does the pending group hold a query from `conn`?
    fn present(pending: &[Pending], conn: u64) -> bool {
        pending.iter().any(|p| p.conn == conn)
    }

    /// The one time-dependent choice the hub makes, as a pure function of
    /// what the dispatcher has seen (module docs, "The batcher"). Only
    /// called while a group is pending and the event queue is empty.
    fn decide(&self, now: Instant, window: Duration) -> Step {
        if self
            .expected
            .iter()
            .all(|&conn| Self::present(&self.pending, conn))
        {
            return Step::Flush(Counter::BatcherFlushComplete);
        }
        let deadline = self.pending[0].enqueued + window;
        if now >= deadline {
            Step::Flush(Counter::BatcherFlushWindow)
        } else {
            Step::Wait(deadline - now)
        }
    }

    /// Hand the pending group over for execution. Whoever missed a window
    /// flush is not waited for again until its next query.
    fn take(&mut self, reason: Counter) -> Vec<Pending> {
        if reason == Counter::BatcherFlushWindow {
            let pending = &self.pending;
            self.expected.retain(|&conn| Self::present(pending, conn));
        }
        std::mem::take(&mut self.pending)
    }
}

fn dispatcher_loop<S: Service>(
    mut service: S,
    events: Receiver<Event>,
    shared: Arc<HubShared>,
) -> HubReport {
    let tel = service.telemetry().cloned();
    let mut conns: BTreeMap<u64, ConnState> = BTreeMap::new();
    let mut batcher = Batcher::default();
    let mut report = HubReport::default();
    let mut draining = false;
    loop {
        let event = if batcher.pending.is_empty() && !draining {
            match events.recv() {
                Ok(event) => event,
                Err(_) => break,
            }
        } else if let Ok(event) = events.try_recv() {
            // Drain before deciding: whatever is queued joins the pending
            // group (or bars it) first.
            event
        } else if draining {
            // Drained: the flush below answers what is still pending.
            break;
        } else {
            match batcher.decide(Instant::now(), shared.config.batch_window) {
                Step::Flush(reason) => {
                    flush_batch(
                        &mut service,
                        &mut batcher,
                        reason,
                        &mut conns,
                        &tel,
                        &mut report,
                        &shared,
                    );
                    continue;
                }
                // A timeout comes back here and finds the deadline passed.
                Step::Wait(timeout) => match events.recv_timeout(timeout) {
                    Ok(event) => event,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
            }
        };
        match event {
            Event::Opened { conn, writer, gate } => {
                conns.insert(conn, ConnState { writer, gate });
                report.connections += 1;
                if let Some(tel) = &tel {
                    tel.add(Counter::ConnectionsOpened, 1);
                    tel.set_gauge(Gauge::OpenConnections, conns.len() as u64);
                }
            }
            Event::Frame {
                conn,
                request_id,
                request,
                at,
            } => {
                report.requests += 1;
                match request {
                    Request::Query(message) => {
                        if batcher.pending.is_empty() && conns.len() <= 1 && !draining {
                            // Solo fast path: nothing to coalesce with.
                            if let Some(tel) = &tel {
                                tel.add(Counter::BatcherSolo, 1);
                            }
                            if shared.config.journal {
                                report.journal.push(JournalEntry {
                                    conn,
                                    request_id,
                                    request: Request::Query(message.clone()),
                                });
                            }
                            let response = service.call(Request::Query(message));
                            write_reply(&mut conns, conn, request_id, &response, &tel);
                            settle(&conns, conn, &shared);
                        } else {
                            batcher.push(Pending {
                                conn,
                                request_id,
                                message,
                                enqueued: at,
                            });
                            if batcher.pending.len() >= shared.config.batch_depth {
                                flush_batch(
                                    &mut service,
                                    &mut batcher,
                                    Counter::BatcherFlushDepth,
                                    &mut conns,
                                    &tel,
                                    &mut report,
                                    &shared,
                                );
                            }
                        }
                    }
                    request => {
                        // Barrier: anything that is not a batchable query
                        // must not reorder past pending queries.
                        flush_batch(
                            &mut service,
                            &mut batcher,
                            Counter::BatcherFlushBarrier,
                            &mut conns,
                            &tel,
                            &mut report,
                            &shared,
                        );
                        if shared.config.journal {
                            report.journal.push(JournalEntry {
                                conn,
                                request_id,
                                request: request.clone(),
                            });
                        }
                        let response = service.call(request);
                        write_reply(&mut conns, conn, request_id, &response, &tel);
                        settle(&conns, conn, &shared);
                    }
                }
            }
            Event::Shed { conn, request_id } => {
                // Shed before execution: a typed Overloaded reply carrying
                // the real request id, so the client can correlate and back
                // off. No journal entry (nothing executed), no gate or
                // budget slot to release (none was claimed).
                report.sheds += 1;
                if let Some(tel) = &tel {
                    tel.add(Counter::Sheds, 1);
                }
                let retry_after_ms = shared.config.shed_retry_after.as_millis() as u64;
                write_reply(
                    &mut conns,
                    conn,
                    request_id,
                    &Response::Error(ProtocolError::Transport(TransportError::Overloaded {
                        retry_after_ms,
                    })),
                    &tel,
                );
            }
            Event::Fault { conn, error } => {
                // Flush first so pending replies for this connection are
                // written before the error frame and the close.
                flush_batch(
                    &mut service,
                    &mut batcher,
                    Counter::BatcherFlushBarrier,
                    &mut conns,
                    &tel,
                    &mut report,
                    &shared,
                );
                // Best-effort typed error (request id 0: the faulting frame
                // has no trustworthy id); the Closed event follows.
                write_reply(&mut conns, conn, 0, &Response::Error(error), &tel);
            }
            Event::Closed { conn } => {
                if draining || shared.shutdown.load(Ordering::SeqCst) {
                    // The reader was torn down by shutdown, not the peer:
                    // keep the writer so drained replies still reach it.
                } else if conns.remove(&conn).is_some() {
                    batcher.expected.remove(&conn);
                    if let Some(tel) = &tel {
                        tel.add(Counter::ConnectionsClosed, 1);
                        tel.set_gauge(Gauge::OpenConnections, conns.len() as u64);
                    }
                }
            }
            Event::Shutdown => draining = true,
        }
    }
    flush_batch(
        &mut service,
        &mut batcher,
        Counter::BatcherFlushShutdown,
        &mut conns,
        &tel,
        &mut report,
        &shared,
    );
    if let Some(tel) = &tel {
        tel.add(Counter::ConnectionsClosed, conns.len() as u64);
        tel.set_gauge(Gauge::OpenConnections, 0);
    }
    report
}

fn flush_batch<S: Service>(
    service: &mut S,
    batcher: &mut Batcher,
    reason: Counter,
    conns: &mut BTreeMap<u64, ConnState>,
    tel: &Option<Telemetry>,
    report: &mut HubReport,
    shared: &HubShared,
) {
    let group = batcher.take(reason);
    if group.is_empty() {
        return;
    }
    if let Some(tel) = tel {
        tel.add(reason, 1);
        tel.add(Counter::BatcherCoalesced, group.len() as u64);
        tel.record_value(Series::BatchOccupancy, group.len() as u64);
        for pending in &group {
            tel.record_duration(
                Stage::BatcherWait,
                pending.enqueued.elapsed().as_nanos() as u64,
            );
        }
    }
    let (origins, messages): (Vec<(u64, u64)>, Vec<QueryMessage>) = group
        .into_iter()
        .map(|p| ((p.conn, p.request_id), p.message))
        .unzip();
    if shared.config.journal {
        for (&(conn, request_id), message) in origins.iter().zip(&messages) {
            report.journal.push(JournalEntry {
                conn,
                request_id,
                request: Request::Query(message.clone()),
            });
        }
    }
    let replies = service.call_query_group(&messages);
    for ((conn, request_id), response) in origins.into_iter().zip(replies) {
        // Slot back first: a group's replies wake several clients at once,
        // and one that sends the moment it has read its reply must not be
        // shed by the slot of that very reply.
        settle(conns, conn, shared);
        write_reply(conns, conn, request_id, &response, tel);
    }
}

fn write_reply(
    conns: &mut BTreeMap<u64, ConnState>,
    conn: u64,
    request_id: u64,
    response: &Response,
    tel: &Option<Telemetry>,
) {
    let Some(state) = conns.get_mut(&conn) else {
        return;
    };
    let frame = {
        let _span = tel.as_ref().and_then(|t| t.span(Stage::FrameEncode));
        encode_response(request_id, response)
    };
    if state.writer.send_all(&frame).is_ok() {
        if let Some(tel) = tel {
            tel.add(Counter::WireFramesOut, 1);
            tel.add(Counter::WireBytesOut, frame.len() as u64);
            tel.record_conn_frame_out(conn as usize, frame.len() as u64);
        }
    }
}

/// Settle one executed request: release the connection's gate permit and give
/// its hub-wide budget slot back.
fn settle(conns: &BTreeMap<u64, ConnState>, conn: u64, shared: &HubShared) {
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    if let Some(state) = conns.get(&conn) {
        state.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_core::bitindex::BitIndex;

    const WINDOW: Duration = Duration::from_millis(1);

    /// One move of a scripted dispatcher. Times are offsets from the start
    /// of the script; no clock is read and nothing sleeps.
    enum Op {
        /// A batchable query from this connection, enqueued at this offset.
        Query(u64, Duration),
        /// The connection closed.
        Close(u64),
        /// The queue is empty at this offset: decide. A `Flush` is carried
        /// out as the dispatcher would (`take`) before the script goes on.
        Decide(Duration, Step),
    }

    fn run(name: &str, script: Vec<Op>) {
        let start = Instant::now();
        let mut batcher = Batcher::default();
        for (step, op) in script.into_iter().enumerate() {
            match op {
                Op::Query(conn, at) => batcher.push(Pending {
                    conn,
                    request_id: step as u64,
                    message: QueryMessage {
                        query: BitIndex::all_zeros(8),
                        top: None,
                    },
                    enqueued: start + at,
                }),
                Op::Close(conn) => {
                    batcher.expected.remove(&conn);
                }
                Op::Decide(at, want) => {
                    let got = batcher.decide(start + at, WINDOW);
                    assert_eq!(got, want, "{name}: step {step}");
                    if let Step::Flush(reason) = got {
                        assert!(!batcher.take(reason).is_empty(), "{name}: step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_batcher_decision_enumerated() {
        use Counter::{BatcherFlushComplete as Complete, BatcherFlushWindow as Window};
        use Op::{Close, Decide, Query};
        let t = Duration::from_micros;
        let zero = Duration::ZERO;
        run(
            // Control connections never query, so they are never expected:
            // whatever the pipeliner has queued by the time the queue runs
            // empty is a complete group, however old its first frame.
            "lone pipeliner among idle control connections",
            vec![
                Query(7, zero),
                Decide(zero, Step::Flush(Complete)),
                Query(7, t(10)),
                Query(7, t(11)),
                Query(7, t(12)),
                Decide(t(5_000), Step::Flush(Complete)),
            ],
        );
        run(
            "two lockstep clients",
            vec![
                // Round one: 1 is alone in the world, then 2 finds 1 expected.
                Query(1, zero),
                Decide(zero, Step::Flush(Complete)),
                Query(2, t(100)),
                Decide(t(100), Step::Wait(WINDOW)),
                Decide(t(400), Step::Wait(WINDOW - t(300))),
                Query(1, t(450)),
                Decide(t(450), Step::Flush(Complete)),
                // Every later round: wait for the peer, never for the window.
                Query(1, t(600)),
                Decide(t(600), Step::Wait(WINDOW)),
                Query(2, t(610)),
                Decide(t(610), Step::Flush(Complete)),
            ],
        );
        run(
            "straggler demoted on a window flush, re-promoted by its next query",
            vec![
                Query(1, zero),
                Decide(zero, Step::Flush(Complete)),
                Query(2, zero),
                Decide(t(999), Step::Wait(t(1))),
                Decide(t(1_000), Step::Flush(Window)),
                // 1 missed the window: 2 no longer waits for it ...
                Query(2, t(2_000)),
                Decide(t(2_000), Step::Flush(Complete)),
                // ... until 1 queries again, and then 1 waits for 2.
                Query(1, t(3_000)),
                Decide(t(3_000), Step::Wait(WINDOW)),
                Query(2, t(3_100)),
                Decide(t(3_100), Step::Flush(Complete)),
            ],
        );
        run(
            "closed connection dropped from the expected set",
            vec![
                Query(1, zero),
                Decide(zero, Step::Flush(Complete)),
                Query(2, zero),
                Decide(t(10), Step::Wait(WINDOW - t(10))),
                Close(1),
                Decide(t(20), Step::Flush(Complete)),
            ],
        );
    }
}
