//! The hub: one process owning the index, many concurrent client connections
//! over [`LinkReader`]/[`LinkWriter`] pairs, and the **adaptive cross-client
//! batcher** that coalesces independent single-query frames into one fused
//! scan-plane pass.
//!
//! ## Topology: one core, thin shells
//!
//! Every decision is taken by one core, `Dispatcher`, a step function:
//! `on(event, now)` applies one event (opened, frame, shed, fault, closed,
//! shutdown), and `wake(now)`, asked whenever the event queue is empty,
//! carries out what the batcher decides and says when to ask again. The core
//! owns the [`Service`] and every write half and writes each reply itself —
//! single-writer: no lock guards the engine, and execution order is a total
//! order the optional journal records. It blocks on nothing and reads no
//! clock, so a test drives it through a scripted event list with no thread.
//! The threads only move bytes: the **dispatcher thread** drains the channel
//! into `on` and blocks, times out or stops as `wake` says; each
//! connection's **reader thread** runs `recv`, hands the bytes to
//! `read_bytes` (reassemble with [`FrameBuffer`], decode, count, admit or
//! shed) and passes each admitted frame through its gate onto the channel;
//! an **acceptor** feeds `TcpListener` connections in, and
//! [`HubHandle::connect_memory`] attaches in-process links.
//!
//! ## The batcher
//!
//! Single-query [`Request::Query`] frames are collected into a pending group
//! and executed as **one** [`Service::call_query_group`] pass (a fused scan on
//! a `CloudServer`, one fused forward on a `Coordinator`); replies are
//! de-multiplexed by request id. The batcher is **work-conserving**: queued
//! events are drained before anything is decided (`Batcher::decide`), and a
//! group is flushed at [`HubConfig::batch_depth`] or as soon as every
//! *expected* connection — one that has been querying — has a query in it,
//! so lockstep clients fuse without waiting and a lone querier beside
//! control connections is complete on arrival. [`HubConfig::batch_window`]
//! only bounds the wait for a missing one, which is then not expected again
//! until it queries. A non-query request flushes the group first (a
//! barrier). Replies, `SearchStats` and cache counters are byte-identical to
//! the same requests issued sequentially: the policy picks the *moment* of a
//! flush, never the order. It reads only which connections sent which
//! frames, which the server already observes (§6: no new channel).
//!
//! ## Backpressure, hygiene, shutdown
//!
//! Each connection has a [`HubConfig::max_in_flight`] window: its reader stops
//! reading until replies drain. Readers enforce [`HubConfig::idle_timeout`]
//! and a 64 MiB frame cap with typed [`TransportError`]s; a violating or
//! undecodable frame poisons only its own connection (error frame, close).
//! [`HubHandle::shutdown`] refuses new frames, joins every reader, then lets
//! the dispatcher drain: the shutdown event is enqueued after the joins, so
//! FIFO order loses no accepted request's reply.
//!
//! ## Time
//!
//! Each timed choice is a pure function of `now`: `Batcher::decide` (the
//! window's end), `idle_close` (idle time past [`HubConfig::idle_timeout`]
//! with no reply owed) and `shed` (the hub-wide budget). Only the shells read
//! the clock: a reader once per `recv` return — stamping the frames those
//! bytes complete and restarting the idle time, as a poll that finds a reply
//! owed does — and the dispatcher once per turn, the `now` its drain, its
//! decision and its `BatcherWait` records use.

use crate::link::{memory_duplex, LinkReader, LinkWriter, MemoryLink};
use crate::resilient::Connector;
use mkse_core::telemetry::{Counter, Gauge, LabelledCounter, Series, Stage, Telemetry};
use mkse_protocol::wire::{decode_request, encode_response};
use mkse_protocol::{
    FrameBuffer, ProtocolError, QueryMessage, Request, Response, Service, TransportError,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{
    self,
    ErrorKind::{TimedOut, WouldBlock},
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`Hub`]. The defaults suit an interactive service; tests
/// and benches shrink the windows. The frame cap (64 MiB) and the shed
/// reply's `retry_after_ms` hint (2 ms) are fixed.
#[derive(Clone, Debug)]
pub struct HubConfig {
    /// Upper bound on how long a pending group waits for an *expected*
    /// connection (one that has been querying) whose query has not arrived
    /// yet — the straggler bound, not a price every group pays (module docs,
    /// "The batcher").
    pub batch_window: Duration,
    /// Flush immediately once this many queries are pending.
    pub batch_depth: usize,
    /// Per-connection cap on decoded-but-unanswered requests; the reader
    /// blocks (and the peer's TCP window eventually fills) beyond it.
    pub max_in_flight: usize,
    /// Close a connection that delivers no bytes for this long.
    pub idle_timeout: Duration,
    /// Record every executed request (in execution order) in the
    /// [`HubReport`] journal — the equivalence suites replay it sequentially
    /// to prove the transport invisible.
    pub journal: bool,
    /// Hub-wide cap on admitted-but-unanswered requests across *all*
    /// connections. A request arriving over budget is **shed**: answered at
    /// once with [`TransportError::Overloaded`], never executed or journaled.
    pub max_hub_in_flight: usize,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            batch_window: Duration::from_micros(300),
            batch_depth: 16,
            max_in_flight: 32,
            idle_timeout: Duration::from_secs(30),
            journal: false,
            max_hub_in_flight: 4096,
        }
    }
}

/// Frames whose prefix declares more than this many payload bytes are refused
/// with [`TransportError::FrameTooLarge`].
pub(crate) const MAX_FRAME_BYTES: u64 = 64 << 20;

/// The advisory `retry_after_ms` hint carried by shed replies.
const SHED_RETRY_AFTER: Duration = Duration::from_millis(2);

/// Reader poll tick: how long one `recv` blocks before the reader re-checks
/// shutdown and idle deadlines.
const READ_TICK: Duration = Duration::from_millis(5);

/// Write timeout applied to accepted TCP connections.
const TCP_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

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

/// Lock `mutex`, taking the data over from a thread that panicked holding it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-connection backpressure window: `max_in_flight` permits, acquired by
/// the reader per forwarded frame, released by the dispatcher per written
/// reply. `open_wide` (shutdown) unblocks every waiter for good.
struct Gate {
    permits: Mutex<usize>,
    size: usize,
    freed: Condvar,
    open: AtomicBool,
}

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            permits: Mutex::new(permits.max(1)),
            size: permits.max(1),
            freed: Condvar::new(),
            open: AtomicBool::new(false),
        }
    }

    /// Are permits out — does the hub owe the connection a reply?
    fn owed(&self) -> bool {
        *lock(&self.permits) < self.size
    }

    fn acquire(&self) {
        if self.open.load(Ordering::Relaxed) {
            return;
        }
        let mut permits = lock(&self.permits);
        while *permits == 0 && !self.open.load(Ordering::Relaxed) {
            permits = self.freed.wait(permits).unwrap_or_else(|e| e.into_inner());
        }
        *permits = permits.saturating_sub(1);
    }

    fn release(&self) {
        let mut permits = lock(&self.permits);
        *permits += 1;
        // The reader only waits on an empty gate, so only the release that
        // refills one wakes it: a wake is a syscall, and a group's replies
        // are written after their releases.
        if *permits == 1 {
            self.freed.notify_one();
        }
    }

    fn open_wide(&self) {
        self.open.store(true, Ordering::Relaxed);
        let _guard = lock(&self.permits);
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
        /// When the bytes completing the frame came off the link.
        at: Instant,
    },
    /// The connection's reader failed: answer the error, then the close.
    Fault(u64, ProtocolError),
    /// A request over the hub-wide budget: answered `Overloaded` past the
    /// connection's gate, so a saturated hub still answers; never executed.
    Shed {
        conn: u64,
        request_id: u64,
    },
    Closed(u64),
    Shutdown,
}

struct HubShared {
    config: HubConfig,
    events: Mutex<Sender<Event>>,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    frames_accepted: AtomicU64,
    /// Admitted-but-unanswered requests, held to `max_hub_in_flight`.
    in_flight: AtomicU64,
    gates: Mutex<Vec<Arc<Gate>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    telemetry: Option<Telemetry>,
}

/// Entry point: [`Hub::spawn`] starts the dispatcher and returns the handle
/// everything else hangs off.
pub struct Hub;

impl HubShared {
    /// A hub's shared state, and the receiving end of its event channel.
    fn new(config: HubConfig, telemetry: Option<Telemetry>) -> (Arc<HubShared>, Receiver<Event>) {
        let (tx, rx) = mpsc::channel();
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
        (shared, rx)
    }
}

impl Hub {
    /// Start a hub around `service`. The service moves onto the dispatcher
    /// thread; its telemetry registry (if any) is shared with the readers so
    /// wire traffic is recorded per connection.
    pub fn spawn<S: Service + Send + 'static>(service: S, config: HubConfig) -> HubHandle {
        let (shared, rx) = HubShared::new(config, service.telemetry().cloned());
        let core = Dispatcher::new(service, shared.clone());
        let dispatcher = std::thread::spawn(move || dispatcher_loop(core, rx));
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
        lock(&self.acceptors).push((local, handle));
        Ok(local)
    }

    /// Attach a deterministic in-process connection; returns the client end.
    pub fn connect_memory(&self) -> MemoryLink {
        self.memory_dialer().connect()
    }

    /// A clonable, `'static` dialer that can keep attaching in-process
    /// connections after this handle moved elsewhere — what a reconnecting
    /// client's connector closure captures.
    pub fn memory_dialer(&self) -> MemoryDialer {
        MemoryDialer {
            shared: self.shared.clone(),
        }
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
        for gate in lock(&self.shared.gates).iter() {
            gate.open_wide();
        }
        for (addr, handle) in lock(&self.acceptors).drain(..) {
            // Wake the blocking accept; the acceptor sees the flag and exits.
            let _ = TcpStream::connect(addr);
            let _ = handle.join();
        }
        loop {
            let reader = lock(&self.shared.readers).pop();
            let Some(reader) = reader else { break };
            let _ = reader.join();
        }
        // Every reader joined above, so all their events are already in the
        // channel: FIFO order puts this sentinel after the last frame.
        let _ = lock(&self.shared.events).send(Event::Shutdown);
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

fn attach_link(shared: &Arc<HubShared>, reader: Box<dyn LinkReader>, writer: Box<dyn LinkWriter>) {
    let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let gate = Arc::new(Gate::new(shared.config.max_in_flight));
    lock(&shared.gates).push(gate.clone());
    let events = lock(&shared.events).clone();
    let _ = events.send(Event::Opened {
        conn,
        writer,
        gate: gate.clone(),
    });
    let shared_ = shared.clone();
    let handle = std::thread::spawn(move || {
        if let Err(error) = read_frames(&shared_, conn, reader, &events, &gate) {
            let _ = events.send(Event::Fault(conn, error));
        }
        let _ = events.send(Event::Closed(conn));
    });
    lock(&shared.readers).push(handle);
}

fn acceptor_loop(shared: Arc<HubShared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(TCP_WRITE_TIMEOUT));
        if let Ok(read_half) = stream.try_clone() {
            attach_link(&shared, Box::new(read_half), Box::new(stream));
        }
    }
}

/// The reader thread's shell: `recv` and hand the bytes to `read_bytes`, until
/// the peer closes, the hub shuts down, or the connection faults.
fn read_frames(
    shared: &HubShared,
    conn: u64,
    mut reader: Box<dyn LinkReader>,
    events: &Sender<Event>,
    gate: &Gate,
) -> Result<(), ProtocolError> {
    let _ = reader.set_recv_timeout(READ_TICK);
    let mut frames = FrameBuffer::new(MAX_FRAME_BYTES);
    let mut buf = vec![0u8; 16 * 1024];
    let mut forward = |event: Event| {
        if let Event::Frame { .. } = event {
            gate.acquire();
            if shared.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            shared.frames_accepted.fetch_add(1, Ordering::SeqCst);
        }
        let _ = events.send(event);
        true
    };
    // When bytes last arrived or a poll last found a reply owed; until then,
    // the first poll's return.
    let mut last_in = None;
    while !shared.shutdown.load(Ordering::SeqCst) {
        let received = reader.recv(&mut buf);
        let now = Instant::now();
        match received {
            Ok(0) => break,
            Ok(n) => {
                last_in = Some(now);
                if !read_bytes(shared, conn, &mut frames, &buf[..n], now, &mut forward)? {
                    break;
                }
            }
            Err(e) if !matches!(e.kind(), WouldBlock | TimedOut) => break,
            Err(_) => {
                let (owed, idle_timeout) = (gate.owed(), shared.config.idle_timeout);
                if idle_close(now, *last_in.get_or_insert(now), owed, idle_timeout) {
                    let idle_ms = idle_timeout.as_millis() as u64;
                    return Err(TransportError::IdleTimeout { idle_ms }.into());
                }
                if owed {
                    last_in = Some(now);
                }
            }
        }
    }
    Ok(())
}

/// What a reader does with the `bytes` one `recv` returned at `now`:
/// reassemble, decode and count each frame, then admit it (`Frame`) or shed
/// it (`Shed`) into `sink`. A frame the sink refuses (the hub is draining)
/// gives its budget slot back and ends the read (`Ok(false)`).
fn read_bytes(
    shared: &HubShared,
    conn: u64,
    frames: &mut FrameBuffer,
    bytes: &[u8],
    now: Instant,
    sink: &mut impl FnMut(Event) -> bool,
) -> Result<bool, ProtocolError> {
    frames.extend(bytes)?;
    while let Some(payload) = frames.pop()? {
        let decoded = {
            let _span = (shared.telemetry.as_ref()).and_then(|t| t.span(Stage::FrameDecode));
            decode_request(&payload)
        };
        let (request_id, request) = decoded?;
        if let Some(tel) = &shared.telemetry {
            let framed = payload.len() as u64 + 4;
            tel.add(Counter::WireFramesIn, 1);
            tel.add(Counter::WireBytesIn, framed);
            tel.add_at(LabelledCounter::ConnectionFramesIn, conn as usize, 1);
            tel.add_at(LabelledCounter::ConnectionBytesIn, conn as usize, framed);
        }
        // Hub-wide admission (exact: claim a slot, roll back if that
        // overshot the budget), before the per-connection gate, so overload
        // is answered at once even when this connection's window is full.
        let prior = shared.in_flight.fetch_add(1, Ordering::SeqCst);
        if shed(prior, shared.config.max_hub_in_flight) {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            sink(Event::Shed { conn, request_id });
        } else if !sink(Event::Frame {
            conn,
            request_id,
            request,
            at: now,
        }) {
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Ok(false);
        }
    }
    Ok(true)
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

    /// The flush decision, as a pure function of what the dispatcher has
    /// seen (module docs, "The batcher"). Only called while a group is
    /// pending and the event queue is empty.
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

/// Hub-wide admission: a request that finds `prior` requests admitted and
/// unanswered is shed once that fills the `budget`
/// ([`HubConfig::max_hub_in_flight`]).
fn shed(prior: u64, budget: usize) -> bool {
    prior >= budget as u64
}

/// Does a connection whose bytes last arrived at `last_in` close as idle at
/// `now`? Once its idle time reaches `idle_timeout` — unless the hub `owed`
/// it a reply: a client waiting on the hub is not idle.
fn idle_close(now: Instant, last_in: Instant, owed: bool, idle_timeout: Duration) -> bool {
    !owed && now.duration_since(last_in) >= idle_timeout
}

/// The hub's core (module docs, "Topology"): the service, every
/// connection's write half, the batcher and the report.
struct Dispatcher<S> {
    service: S,
    shared: Arc<HubShared>,
    conns: BTreeMap<u64, ConnState>,
    batcher: Batcher,
    report: HubReport,
    /// The shutdown event arrived: answer what is queued, then stop.
    draining: bool,
}

/// When the core must next be asked ([`Dispatcher::wake`]): at once (a group
/// ran: drain again first), on the next event, on it or after a wait (an
/// expected connection is missing), or never (drained).
#[derive(Debug, PartialEq)]
enum Wake {
    Now,
    OnEvent,
    Within(Duration),
    Stop,
}

/// The dispatcher thread's shell: each turn reads the clock once, drains the
/// queue into the core at that `now`, then waits as the core says.
fn dispatcher_loop<S: Service>(mut core: Dispatcher<S>, events: Receiver<Event>) -> HubReport {
    let mut woken = None;
    loop {
        let now = Instant::now();
        for event in woken.take().into_iter().chain(events.try_iter()) {
            core.on(event, now);
        }
        // A channel no sender is left on is a shutdown.
        woken = match core.wake(now) {
            Wake::Now => None,
            Wake::OnEvent => Some(events.recv().unwrap_or(Event::Shutdown)),
            Wake::Within(timeout) => match events.recv_timeout(timeout) {
                Ok(event) => Some(event),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => Some(Event::Shutdown),
            },
            Wake::Stop => return core.report,
        };
    }
}

impl<S: Service> Dispatcher<S> {
    fn new(service: S, shared: Arc<HubShared>) -> Self {
        Dispatcher {
            service,
            shared,
            conns: BTreeMap::new(),
            batcher: Batcher::default(),
            report: HubReport::default(),
            draining: false,
        }
    }

    /// Apply one event at `now`.
    fn on(&mut self, event: Event, now: Instant) {
        match event {
            Event::Opened { conn, writer, gate } => {
                self.conns.insert(conn, ConnState { writer, gate });
                self.report.connections += 1;
                self.count(Counter::ConnectionsOpened, 1);
            }
            Event::Frame {
                conn,
                request_id,
                request,
                at,
            } => {
                self.report.requests += 1;
                let Request::Query(message) = request else {
                    // Barrier: a non-query must not pass pending queries.
                    self.flush(Counter::BatcherFlushBarrier, now);
                    self.journal(conn, request_id, || request.clone());
                    let response = self.service.call(request);
                    self.write_reply(conn, request_id, &response);
                    return self.settle(conn);
                };
                self.batcher.push(Pending {
                    conn,
                    request_id,
                    message,
                    enqueued: at,
                });
                if self.batcher.pending.len() >= self.shared.config.batch_depth {
                    self.flush(Counter::BatcherFlushDepth, now);
                }
            }
            Event::Shed { conn, request_id } => {
                // Refused before execution, answered by its real request id:
                // nothing to journal, and no gate or budget slot to release.
                self.report.sheds += 1;
                if let Some(tel) = &self.shared.telemetry {
                    tel.add(Counter::Sheds, 1);
                }
                let retry_after_ms = SHED_RETRY_AFTER.as_millis() as u64;
                let overloaded = TransportError::Overloaded { retry_after_ms };
                let reply = Response::Error(ProtocolError::Transport(overloaded));
                self.write_reply(conn, request_id, &reply);
            }
            Event::Fault(conn, error) => {
                // Pending replies first, then a best-effort typed error (id 0:
                // the faulting frame has none to trust); `Closed` follows.
                self.flush(Counter::BatcherFlushBarrier, now);
                self.write_reply(conn, 0, &Response::Error(error));
            }
            Event::Closed(conn) => {
                if self.draining || self.shared.shutdown.load(Ordering::SeqCst) {
                    // Torn down by shutdown, not the peer: keep the writer.
                } else if self.conns.remove(&conn).is_some() {
                    self.batcher.expected.remove(&conn);
                    self.count(Counter::ConnectionsClosed, 1);
                }
            }
            Event::Shutdown => self.draining = true,
        }
    }

    /// The queue is empty at `now`: carry out what the batcher decides, and
    /// say when to be asked next. Draining, this answers what is still
    /// pending and stops.
    fn wake(&mut self, now: Instant) -> Wake {
        if self.draining {
            self.flush(Counter::BatcherFlushShutdown, now);
            let open = std::mem::take(&mut self.conns);
            self.count(Counter::ConnectionsClosed, open.len() as u64);
            return Wake::Stop;
        }
        if self.batcher.pending.is_empty() {
            return Wake::OnEvent;
        }
        match self.batcher.decide(now, self.shared.config.batch_window) {
            Step::Flush(reason) => {
                self.flush(reason, now);
                Wake::Now
            }
            Step::Wait(timeout) => Wake::Within(timeout),
        }
    }

    /// Execute the pending group as one [`Service::call_query_group`] pass,
    /// flushed for `reason` at `now`, and write each member's reply.
    fn flush(&mut self, reason: Counter, now: Instant) {
        let group = self.batcher.take(reason);
        if group.is_empty() {
            return;
        }
        if let Some(tel) = &self.shared.telemetry {
            tel.add(reason, 1);
            tel.add(Counter::BatcherCoalesced, group.len() as u64);
            tel.record_value(Series::BatchOccupancy, group.len() as u64);
            for pending in &group {
                let waited = now.saturating_duration_since(pending.enqueued);
                tel.record_duration(Stage::BatcherWait, waited.as_nanos() as u64);
            }
        }
        let (origins, messages): (Vec<(u64, u64)>, Vec<QueryMessage>) = group
            .into_iter()
            .map(|p| ((p.conn, p.request_id), p.message))
            .unzip();
        for (&(conn, request_id), message) in origins.iter().zip(&messages) {
            self.journal(conn, request_id, || Request::Query(message.clone()));
        }
        let replies = self.service.call_query_group(&messages);
        for ((conn, request_id), response) in origins.into_iter().zip(replies) {
            // Slot back first: a client that sends the moment it reads its
            // reply must not be shed by the slot of that very reply.
            self.settle(conn);
            self.write_reply(conn, request_id, &response);
        }
    }

    /// Record an executed request, when the hub keeps a journal.
    fn journal(&mut self, conn: u64, request_id: u64, request: impl FnOnce() -> Request) {
        if self.shared.config.journal {
            let request = request();
            self.report.journal.push(JournalEntry {
                conn,
                request_id,
                request,
            });
        }
    }

    fn write_reply(&mut self, conn: u64, request_id: u64, response: &Response) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return;
        };
        let tel = self.shared.telemetry.as_ref();
        let frame = {
            let _span = tel.and_then(|t| t.span(Stage::FrameEncode));
            encode_response(request_id, response)
        };
        // Counted before the write: a client holding its reply can read the
        // registry and find it, and a frame whose write fails is counted too.
        if let Some(tel) = tel {
            let bytes = frame.len() as u64;
            tel.add(Counter::WireFramesOut, 1);
            tel.add(Counter::WireBytesOut, bytes);
            tel.add_at(LabelledCounter::ConnectionFramesOut, conn as usize, 1);
            tel.add_at(LabelledCounter::ConnectionBytesOut, conn as usize, bytes);
        }
        let _ = state.writer.send_all(&frame);
    }

    /// Count connections opened or closed, and how many are open now.
    fn count(&self, counter: Counter, connections: u64) {
        if let Some(tel) = &self.shared.telemetry {
            tel.add(counter, connections);
            tel.set_gauge(Gauge::OpenConnections, self.conns.len() as u64);
        }
    }

    /// Settle one executed request: release the connection's gate permit and
    /// give its hub-wide budget slot back.
    fn settle(&self, conn: u64) {
        self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        if let Some(state) = self.conns.get(&conn) {
            state.gate.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::MemoryReader;
    use mkse_core::bitindex::BitIndex;
    use mkse_core::telemetry::TelemetryLevel;
    use mkse_protocol::messages::{CacheReport, SearchReply};
    use mkse_protocol::wire::{decode_response, encode_request};
    use mkse_protocol::CodecError;

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

    /// Admission and the idle close at their boundaries, clock-free.
    #[test]
    fn the_admission_and_idle_decisions_enumerated() {
        let budget = 4;
        for (prior, shed_it) in [
            (0, false),
            (budget - 1, false),
            (budget, true),
            (budget + 1, true),
        ] {
            assert_eq!(
                shed(prior as u64, budget),
                shed_it,
                "{prior} admitted before"
            );
        }
        let last = Instant::now();
        let idle = Duration::from_millis(30);
        let ns = Duration::from_nanos;
        // A connection the hub owes a reply is never idle, however silent.
        for (silent, owed, close) in [
            (Duration::ZERO, false, false),
            (idle - ns(1), false, false),
            (idle, false, true),
            (idle + ns(1), false, true),
            (Duration::ZERO, true, false),
            (idle, true, false),
            (idle * 1000, true, false),
        ] {
            assert_eq!(
                idle_close(last + silent, last, owed, idle),
                close,
                "silent {silent:?}, owed {owed}"
            );
        }
    }

    /// The core's stand-in service: an empty search reply for every query
    /// (one member at a time, the trait's default), an ack for the rest.
    struct Echo(Telemetry);

    impl Service for Echo {
        fn call(&mut self, request: Request) -> Response {
            match request {
                Request::Query(_) => Response::Search(SearchReply {
                    matches: Vec::new(),
                    cache: CacheReport::default(),
                }),
                _ => Response::Ack,
            }
        }

        fn telemetry(&self) -> Option<&Telemetry> {
            Some(&self.0)
        }
    }

    /// One move of a scripted hub: what the shells would hand the core, at
    /// an offset from the script's epoch.
    enum Act {
        /// Connection `conn` attaches.
        Open(u64),
        /// `conn` sends a query with this request id, read at this offset.
        Query(u64, u64, Duration),
        /// `conn` sends a non-query request (a barrier) with this id.
        Call(u64, u64, Duration),
        /// `conn` sends bytes no request decodes from: its reader faults.
        Junk(u64),
        /// `conn` sends a length prefix one byte past [`MAX_FRAME_BYTES`]:
        /// its reader faults on the four bytes alone.
        Oversized(u64),
        /// `conn`'s peer hangs up.
        Close(u64),
        /// The queue is empty at this offset: the shell asks `wake`.
        Turn(Duration),
        /// `conn`'s link is read to its end — which must have come: the
        /// core dropped the writer.
        Eof(u64),
    }

    /// What a script leaves behind.
    struct Want {
        /// Per connection, the request ids of the frames it received, in
        /// order (a connection not named received none).
        replies: &'static [(u64, &'static [u64])],
        /// Every error frame received — connection, request id, error — in
        /// connection order.
        errors: &'static [(u64, u64, ProtocolError)],
        /// Flushes by reason: complete, window, depth, barrier, shutdown.
        flushes: [u64; 5],
        /// Groups flushed, and the queries they held.
        occupancy: (u64, u64),
        sheds: u64,
    }

    /// Read `link` to its end, collecting every frame's request id and reply.
    fn read_to_end(link: &mut MemoryReader, got: &mut Vec<(u64, Response)>) {
        let mut frames = FrameBuffer::new(MAX_FRAME_BYTES);
        let mut buf = [0u8; 4096];
        loop {
            match link.recv(&mut buf).expect("the core closed the link") {
                0 => break,
                n => frames.extend(&buf[..n]).expect("a reply frame"),
            }
        }
        while let Some(payload) = frames.pop().expect("a reply frame") {
            got.push(decode_response(&payload).expect("a reply"));
        }
    }

    /// Drive a fresh core through `acts` — frames through `read_bytes`, as a
    /// reader hands them on — then shut it down as the handle does (the
    /// flag, every reader's close, the drain), and hold what each link
    /// received and what the registry counted to `want`.
    fn play(name: &str, config: HubConfig, acts: Vec<Act>, want: Want) {
        let tel = Telemetry::new();
        tel.set_level(TelemetryLevel::Counters);
        let (shared, _events) = HubShared::new(config, Some(tel.clone()));
        let mut core = Dispatcher::new(Echo(tel.clone()), shared.clone());
        let query = Request::Query(QueryMessage {
            query: BitIndex::all_zeros(8),
            top: None,
        });
        let epoch = Instant::now();
        let (mut at, mut sent) = (epoch, 0);
        let mut links = BTreeMap::new();
        let mut got: BTreeMap<u64, Vec<(u64, Response)>> = BTreeMap::new();
        for act in acts {
            let (conn, bytes) = match act {
                Act::Open(conn) => {
                    let (client, server) = memory_duplex();
                    let writer = Box::new(server.split().1);
                    let gate = Arc::new(Gate::new(shared.config.max_in_flight));
                    core.on(Event::Opened { conn, writer, gate }, at);
                    let reader = FrameBuffer::new(MAX_FRAME_BYTES);
                    links.insert(conn, (client.split().0, reader));
                    continue;
                }
                Act::Query(conn, id, offset) | Act::Call(conn, id, offset) => {
                    let call = matches!(act, Act::Call(..));
                    (at, sent) = (epoch + offset, sent + 1);
                    let request = if call {
                        &Request::MetricsSnapshot
                    } else {
                        &query
                    };
                    (conn, encode_request(id, request))
                }
                Act::Junk(conn) => (conn, vec![3, 0, 0, 0, 0xff, 0xff, 0xff]),
                Act::Oversized(conn) => (conn, (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec()),
                Act::Close(conn) => {
                    core.on(Event::Closed(conn), at);
                    continue;
                }
                Act::Turn(offset) => {
                    at = epoch + offset;
                    assert_ne!(core.wake(at), Wake::Stop, "{name}");
                    continue;
                }
                Act::Eof(conn) => {
                    let link = &mut links.get_mut(&conn).expect("an open link").0;
                    read_to_end(link, got.entry(conn).or_default());
                    continue;
                }
            };
            let frames = &mut links.get_mut(&conn).expect("an open link").1;
            let mut sink = |event| {
                core.on(event, at);
                true
            };
            if let Err(error) = read_bytes(&shared, conn, frames, &bytes, at, &mut sink) {
                core.on(Event::Fault(conn, error), at);
                core.on(Event::Closed(conn), at);
            }
        }
        shared.shutdown.store(true, Ordering::SeqCst);
        for &conn in links.keys() {
            core.on(Event::Closed(conn), at);
        }
        core.on(Event::Shutdown, at);
        assert_eq!(core.wake(at), Wake::Stop, "{name}");
        let report = core.report;
        for (conn, (link, _)) in &mut links {
            read_to_end(link, got.entry(*conn).or_default());
        }
        let expected: BTreeMap<u64, Vec<u64>> = (links.keys())
            .map(|&conn| {
                let named = want.replies.iter().find(|(c, _)| *c == conn);
                (conn, named.map_or(Vec::new(), |(_, ids)| ids.to_vec()))
            })
            .collect();
        let (mut received, mut errors) = (BTreeMap::new(), Vec::new());
        for (conn, frames) in got {
            let ids = received.entry(conn).or_insert_with(Vec::new);
            for (id, reply) in frames {
                ids.push(id);
                if let Response::Error(error) = reply {
                    errors.push((conn, id, error));
                }
            }
        }
        assert_eq!(received, expected, "{name}: replies");
        assert_eq!(errors, want.errors, "{name}: error frames");
        let snapshot = tel.snapshot();
        let flushes = ["complete", "window", "depth", "barrier", "shutdown"]
            .map(|reason| snapshot.counter(&format!("batcher_flush_{reason}")));
        assert_eq!(flushes, want.flushes, "{name}: flushes");
        let occupancy = (snapshot.values.iter())
            .find(|v| v.series == "batch_occupancy")
            .map_or((0, 0), |v| (v.count, v.sum));
        assert_eq!(occupancy, want.occupancy, "{name}: occupancy");
        assert_eq!(report.sheds, want.sheds, "{name}: sheds");
        assert_eq!(snapshot.counter("sheds"), want.sheds, "{name}: sheds");
        // Every link opened was counted, and closed by the peer or the drain.
        let connections = links.len() as u64;
        let counted = ["opened", "closed"].map(|c| snapshot.counter(&format!("connections_{c}")));
        assert_eq!(counted, [connections; 2], "{name}: connections");
        assert_eq!(report.connections, connections, "{name}: connections");
        // Every frame sent was executed or shed: none lost in the drain.
        assert_eq!(report.requests + report.sheds, sent, "{name}: requests");
    }

    /// The core, driven through one script per behaviour with no thread, no
    /// sleep and no clock read beyond the epoch: a flush for each reason, a
    /// shed, a fault, an oversized frame, a close, the drain.
    #[rustfmt::skip]
    #[test]
    fn the_hub_core_scripts_enumerated() {
        use Act::{Call, Close, Eof, Junk, Open, Oversized, Query, Turn};
        let t = Duration::from_micros;
        let config = HubConfig { batch_window: WINDOW, ..HubConfig::default() };
        let want = |replies, flushes, occupancy, sheds, errors| Want { replies, flushes, occupancy, sheds, errors };
        const OVERLOADED: ProtocolError =
            ProtocolError::Transport(TransportError::Overloaded { retry_after_ms: 2 });
        const UNDECODABLE: ProtocolError = ProtocolError::Codec(CodecError::UnknownVersion(0xff));
        const TOO_LARGE: ProtocolError = ProtocolError::Transport(TransportError::FrameTooLarge {
            declared: MAX_FRAME_BYTES + 1,
            max: MAX_FRAME_BYTES,
        });
        play("a lone connection's query is a complete group of one", config.clone(), vec![
            Open(1),
            Query(1, 10, t(0)), Turn(t(0)),
            Query(1, 11, t(5)), Turn(t(5)),
            Query(1, 12, t(9)), Turn(t(9)),
        ], want(&[(1, &[10, 11, 12])], [3, 0, 0, 0, 0], (3, 3), 0, &[]));
        // Round one: both first queries queue behind an opener's group of one
        // while it runs, and the opener hangs up. From then on each waits for
        // the other, never for the window.
        play("lockstep clients fuse every round", config.clone(), vec![
            Open(1), Open(2), Open(3),
            Query(3, 30, t(0)), Turn(t(0)),
            Query(1, 10, t(1)), Query(2, 20, t(1)), Close(3), Turn(t(1)),
            Query(1, 11, t(100)), Turn(t(100)), Query(2, 21, t(150)), Turn(t(150)),
            Query(2, 22, t(300)), Turn(t(300)), Query(1, 12, t(320)), Turn(t(320)),
        ], want(&[(1, &[10, 11, 12]), (2, &[20, 21, 22]), (3, &[30])], [4, 0, 0, 0, 0], (4, 7), 0, &[]));
        // The queue never runs empty while the backlog is taken, so only the
        // depth flushes it, although 1 — expected — is missing.
        play("a backlog queued behind a running group is fused to the depth",
            HubConfig { batch_depth: 4, ..config.clone() }, vec![
            Open(1), Open(2),
            Query(1, 10, t(0)), Turn(t(0)),
            Query(2, 20, t(1)), Query(2, 21, t(1)), Query(2, 22, t(1)), Query(2, 23, t(1)),
            Query(2, 24, t(1)), Query(2, 25, t(1)), Query(2, 26, t(1)), Query(2, 27, t(1)),
            Turn(t(1)),
        ], want(&[(1, &[10]), (2, &[20, 21, 22, 23, 24, 25, 26, 27])], [1, 0, 2, 0, 0], (3, 9), 0, &[]));
        // Connections that never query (a node's control traffic) are never
        // expected; their barriers find no group to flush.
        play("a lone querier beside control connections never waits the window", config.clone(), vec![
            Open(1), Open(2), Open(3), Open(4),
            Call(1, 100, t(0)), Turn(t(0)), Query(4, 40, t(1)), Turn(t(1)),
            Call(2, 200, t(2)), Turn(t(2)), Query(4, 41, t(3)), Turn(t(3)),
            Call(3, 300, t(4)), Turn(t(4)), Query(4, 42, t(5)), Turn(t(5)),
        ], want(&[(1, &[100]), (2, &[200]), (3, &[300]), (4, &[40, 41, 42])], [3, 0, 0, 0, 0], (3, 3), 0, &[]));
        // 1 queries once and goes quiet: 2's first query waits the window
        // out, its next ones do not. Then the roles swap.
        play("a client that stops querying costs its peer one window, once", config.clone(), vec![
            Open(1), Open(2),
            Query(1, 10, t(0)), Turn(t(0)),
            Query(2, 20, t(10)), Turn(t(10)), Turn(t(10) + WINDOW),
            Query(2, 21, t(2_000)), Turn(t(2_000)), Query(2, 22, t(2_100)), Turn(t(2_100)),
            Query(1, 11, t(3_000)), Turn(t(3_000)), Turn(t(3_000) + WINDOW),
            Query(1, 12, t(5_000)), Turn(t(5_000)),
        ], want(&[(1, &[10, 11, 12]), (2, &[20, 21, 22])], [4, 2, 0, 0, 0], (6, 6), 0, &[]));
        play("a barrier flushes the pending group before it runs", config.clone(), vec![
            Open(1), Open(2),
            Query(2, 20, t(0)), Turn(t(0)),
            Query(1, 10, t(1)), Turn(t(1)), Call(1, 11, t(2)), Turn(t(2)),
        ], want(&[(1, &[10, 11]), (2, &[20])], [1, 0, 0, 1, 0], (2, 2), 0, &[]));
        play("a closed connection is dropped from the expected set", config.clone(), vec![
            Open(1), Open(2),
            Query(1, 10, t(0)), Turn(t(0)),
            Query(2, 20, t(10)), Turn(t(10)), Close(1), Eof(1), Turn(t(20)),
        ], want(&[(1, &[10]), (2, &[20])], [2, 0, 0, 0, 0], (2, 2), 0, &[]));
        // 2's two parked queries fill the budget: 1's next is answered
        // `Overloaded` at once and never joins the group, which waits for 1
        // until the window. The slots come back with the replies, and 1's
        // connection survives its shed: its next query is served.
        play("a request over the hub-wide budget is shed at once",
            HubConfig { max_hub_in_flight: 2, ..config.clone() }, vec![
            Open(1), Open(2),
            Query(1, 10, t(0)), Turn(t(0)),
            Query(2, 20, t(1)), Query(2, 21, t(1)), Turn(t(1)),
            Query(1, 11, t(2)), Turn(t(2)), Turn(t(1) + WINDOW),
            Query(1, 12, t(1_100)), Query(2, 22, t(1_100)), Turn(t(1_100)),
        ], want(&[(1, &[10, 11, 12]), (2, &[20, 21, 22])], [2, 1, 0, 0, 0], (3, 5), 1, &[(1, 11, OVERLOADED)]));
        // The pending reply, then the error frame (request id 0), then the
        // close; the peer no longer waits for the faulted connection.
        play("a fault answers what is pending, then the error, then closes", config.clone(), vec![
            Open(1), Open(2),
            Query(2, 20, t(0)), Turn(t(0)),
            Query(1, 10, t(1)), Turn(t(1)), Junk(1), Eof(1),
            Query(2, 21, t(2)), Turn(t(2)),
        ], want(&[(1, &[10, 0]), (2, &[20, 21])], [2, 0, 0, 1, 0], (3, 3), 0, &[(1, 0, UNDECODABLE)]));
        // A prefix one byte past the cap is refused from its four bytes, before
        // any payload exists: what is pending (the bystander's query, parked
        // for the offender), the error frame, then the close. The bystander's
        // next query runs at once.
        play("an oversized prefix is answered with its size, then closes", config.clone(), vec![
            Open(1), Open(2),
            Query(1, 10, t(0)), Turn(t(0)),
            Query(2, 20, t(1)), Turn(t(1)), Oversized(1), Eof(1), Turn(t(1)),
            Query(2, 21, t(2)), Turn(t(2)),
        ], want(&[(1, &[10, 0]), (2, &[20, 21])], [2, 0, 0, 1, 0], (3, 3), 0, &[(1, 0, TOO_LARGE)]));
        // 3 queried once and went quiet, so four queries wait for it when the
        // handle shuts down: the drain answers every one.
        play("shutdown drains every accepted request", config, vec![
            Open(1), Open(2), Open(3),
            Query(3, 30, t(0)), Turn(t(0)),
            Query(1, 10, t(1)), Query(2, 20, t(1)), Query(1, 11, t(1)), Query(2, 21, t(1)),
            Turn(t(1)),
        ], want(&[(1, &[10, 11]), (2, &[20, 21]), (3, &[30])], [1, 0, 0, 0, 1], (2, 5), 0, &[]));
    }
}
