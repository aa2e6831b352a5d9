//! The retrying, reconnecting client: [`ResilientClient`] wraps [`NetClient`]
//! with a [`RetryPolicy`] so a dropped link, a lost reply, or an overloaded
//! hub surfaces as a transparent retry instead of a bare error — with
//! **at-most-once semantics kept explicit**. It answers every typed call of
//! [`TypedCalls`] (`query`, `upload`, `register_node`, …): each is one
//! [`ResilientClient::call`], and a typed refusal or a reply of the wrong
//! variant comes back as [`ClientError::Reply`].
//!
//! ## What gets retried
//!
//! *Idempotent* requests (query, batch query, documents, trapdoor, blind
//! decrypt, and all read-only admin ops) are resubmitted after a reconnect:
//! executing one twice yields byte-identical replies and leaves no extra
//! state, so a duplicate execution is invisible. *Non-idempotent* requests
//! (upload, cache admin, restore, counter reset) are **never** auto-retried
//! after a mid-flight link failure — the client cannot know whether the
//! server executed the lost attempt, so resubmitting could double-apply it.
//! They fail with [`ClientError::RetryUnsafe`], and the caller decides.
//!
//! The one exception: a [`TransportError::Overloaded`] reply means the hub
//! shed the request **before execution**, so honoring its `retry_after_ms`
//! hint and resubmitting is safe for every operation, idempotent or not.
//!
//! ## Conservation law
//!
//! Every attempt ends in exactly one of three ways — a completed reply, an
//! overload shed, or a link fault — so per client
//! `attempts == successes + sheds + link_faults` holds exactly
//! ([`ResilienceStats`]); the oracle matrix's `chaos[…]` rows assert it
//! under seeded fault plans.
//!
//! ## Split calls
//!
//! [`ResilientClient::call`] is [`ResilientClient::submit`] followed by
//! [`ResilientClient::complete`], and a caller may pull the two apart:
//! `submit` puts the first attempt on the wire and returns an [`InFlight`]
//! without waiting; `complete` awaits that attempt and then runs the one
//! classify / back-off / retry loop. The fleet coordinator submits a query to
//! every node before completing any, so the nodes scan side by side. The
//! rule that keeps the conservation law exact: **every flight must be
//! completed**, on the client that issued it and with the request it was
//! submitted with — `submit` counts the attempt, only `complete` books how it
//! ended.
//!
//! ## Time
//!
//! `RetryPolicy::next` is the whole retry decision, a pure function of the
//! attempt, `now` and the deadline: the attempt and deadline budget, the shed
//! floor, capped exponential backoff, the seeded jitter, the clamp to the
//! deadline, and `RetryUnsafe` for a link fault on a non-idempotent request.
//! The client reads the clock when `submit` starts the deadline, before each
//! reply wait and after each failed attempt, and sleeps what `next` returned.

use crate::client::{ClientError, NetClient};
use crate::link::{LinkReader, LinkWriter};
use mkse_core::telemetry::{Counter, Stage, Telemetry};
use mkse_protocol::{ProtocolError, Request, Response, TransportError, TypedCalls, WireStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How a [`ResilientClient`] retries: attempt budget, exponential backoff
/// with a cap and seeded jitter, per-attempt reply timeout, and a
/// per-request deadline (honored across connect attempts too — a hung
/// connector cannot pin a request past its deadline).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Upper bound on one backoff sleep (a shed's `retry_after_ms` hint can
    /// still raise an individual sleep above the exponential value).
    pub backoff_cap: Duration,
    /// How long one attempt waits for its reply before the attempt is
    /// declared lost (bounds the damage of a reply that will never arrive,
    /// e.g. a corrupted request id).
    pub attempt_timeout: Duration,
    /// Wall-clock budget for the whole request across all attempts.
    pub request_deadline: Duration,
    /// Seed for the backoff jitter: each sleep is perturbed uniformly within
    /// ±25 % of its exponential value, de-synchronizing clients that shed or
    /// fault at the same instant. Same seed, same policy, same fault
    /// schedule ⇒ the same backoff sequence, so seeded chaos runs stay
    /// reproducible; give concurrent clients distinct seeds to spread them.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(100),
            attempt_timeout: Duration::from_secs(2),
            request_deadline: Duration::from_secs(10),
            jitter_seed: 0,
        }
    }
}

/// Backoff jitter amplitude in per-mille of the exponential value, applied
/// before the floor and deadline clamps.
const JITTER_PER_MILLE: u64 = 250;

/// What follows a failed attempt ([`RetryPolicy::next`]).
#[derive(Debug, PartialEq)]
enum Retry {
    /// Resubmit after this backoff (zero: at once).
    After(Duration),
    /// The attempt or deadline budget is spent: the failure stands.
    GiveUp,
    /// A link fault on a non-idempotent request: the lost attempt may have
    /// executed, so resubmitting could apply it twice.
    Unsafe,
}

impl RetryPolicy {
    /// The retry decision after attempt number `attempt` (1-based) of a
    /// request failed at `now`: shed before execution with the hub's
    /// `retry_after_ms` hint (`shed`), or lost with its link (`None`). A shed
    /// is retried whatever the request, a link fault only if the request is
    /// `idempotent`. Jitter is drawn from `jitter` only when a retry follows
    /// and the jitter span is non-zero, so a seed replays the same sleeps.
    fn next(
        &self,
        attempt: u32,
        now: Instant,
        deadline: Instant,
        shed: Option<u64>,
        idempotent: bool,
        jitter: &mut StdRng,
    ) -> Retry {
        let floor = match shed {
            Some(retry_after_ms) => Duration::from_millis(retry_after_ms),
            None if idempotent => Duration::ZERO,
            None => return Retry::Unsafe,
        };
        if attempt >= self.max_attempts || now >= deadline {
            return Retry::GiveUp;
        }
        let mut exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.backoff_cap);
        // Uniform in ±(exp · JITTER_PER_MILLE / 1000).
        let span = exp.as_nanos() as u64 * JITTER_PER_MILLE / 1000;
        if span > 0 {
            let offset = jitter.gen_range(0..=2 * span) as i64 - span as i64;
            let jittered = (exp.as_nanos() as i64).saturating_add(offset).max(0);
            exp = Duration::from_nanos(jittered as u64);
        }
        Retry::After(exp.max(floor).min(deadline - now))
    }

    /// How long one attempt waits for its reply from `now`: the attempt
    /// timeout, cut at the request deadline.
    fn reply_wait(&self, now: Instant, deadline: Instant) -> Duration {
        self.attempt_timeout
            .min(deadline.saturating_duration_since(now))
    }
}

/// What a [`ResilientClient`] did, attempt by attempt. The conservation law
/// `attempts == successes + sheds + link_faults` holds exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Request submissions (first tries and retries).
    pub attempts: u64,
    /// Attempts answered with a completed reply (including typed server-side
    /// errors — a reply is a reply).
    pub successes: u64,
    /// Attempts answered with `TransportError::Overloaded` (shed before
    /// execution, retried after the advisory backoff).
    pub sheds: u64,
    /// Attempts lost to the link: send/receive failures, EOF, lost replies
    /// (attempt timeout).
    pub link_faults: u64,
    /// Attempts beyond the first, across all requests.
    pub retries: u64,
    /// Connections established beyond the first.
    pub reconnects: u64,
    /// Backoff sleeps taken between attempts.
    pub backoff_waits: u64,
    /// Total nanoseconds slept backing off.
    pub backoff_ns: u64,
    /// Requests refused as [`ClientError::RetryUnsafe`].
    pub unsafe_aborts: u64,
}

/// Produces a fresh split link per connection attempt. The argument is the
/// 0-based connection ordinal, so a chaos harness can derive a distinct
/// deterministic fault seed per connection.
pub type Connector = Box<dyn FnMut(u64) -> io::Result<Links> + Send>;

/// A freshly dialed reader/writer pair, as produced by a [`Connector`].
pub type Links = (Box<dyn LinkReader>, Box<dyn LinkWriter>);

/// A [`NetClient`] wrapped in reconnect-and-retry machinery. Request ids stay
/// globally unique across reconnects (the replacement client resumes the id
/// sequence), so the hub journal still correlates every attempt.
pub struct ResilientClient {
    /// Ordinals queued to the dialer thread that owns the connector.
    dial_tx: mpsc::Sender<u64>,
    /// Finished dials back from the dialer thread.
    dial_rx: mpsc::Receiver<io::Result<Links>>,
    /// A dial is in flight: its eventual result must be consumed before a
    /// new ordinal may be queued, even if an earlier wait for it timed out.
    dial_pending: bool,
    policy: RetryPolicy,
    client: Option<NetClient>,
    /// Next request id, carried across reconnects.
    next_id: u64,
    /// Connections established so far (ordinal passed to the connector).
    connections: u64,
    stats: ResilienceStats,
    /// Wire stats accumulated from connections already torn down.
    retired_wire: WireStats,
    telemetry: Option<Telemetry>,
    /// Seeded jitter stream.
    jitter: StdRng,
}

impl ResilientClient {
    /// Wrap `connector` with `policy`. No connection is made until the first
    /// request needs one. The connector runs on a dedicated dialer thread so
    /// a hung connect cannot pin a request past its deadline; the thread
    /// exits once the client is dropped and any in-flight dial returns.
    pub fn new(mut connector: Connector, policy: RetryPolicy) -> ResilientClient {
        let (dial_tx, ordinal_rx) = mpsc::channel::<u64>();
        let (result_tx, dial_rx) = mpsc::channel();
        std::thread::spawn(move || {
            while let Ok(ordinal) = ordinal_rx.recv() {
                if result_tx.send(connector(ordinal)).is_err() {
                    break;
                }
            }
        });
        let jitter = StdRng::seed_from_u64(policy.jitter_seed);
        ResilientClient {
            dial_tx,
            dial_rx,
            dial_pending: false,
            policy,
            client: None,
            next_id: 1,
            connections: 0,
            stats: ResilienceStats::default(),
            retired_wire: WireStats::default(),
            telemetry: None,
            jitter,
        }
    }

    /// Start request-id assignment at `id` (builder-style), as
    /// [`NetClient::with_first_request_id`].
    pub fn with_first_request_id(mut self, id: u64) -> ResilientClient {
        self.next_id = id;
        self
    }

    /// Mirror retries/reconnects/backoff into a telemetry registry
    /// (builder-style): [`Counter::Retries`], [`Counter::Reconnects`] and
    /// the [`Stage::BackoffWait`] histogram.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ResilientClient {
        self.telemetry = Some(telemetry);
        self
    }

    /// The id the next submission will use (live connection or not).
    pub fn next_request_id(&self) -> u64 {
        match &self.client {
            Some(client) => client.next_request_id(),
            None => self.next_id,
        }
    }

    /// Attempt-level accounting so far.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    /// Frames, framed bytes and blocked reply-wait time across every
    /// connection this client has used.
    pub fn wire_stats(&self) -> WireStats {
        match &self.client {
            Some(client) => self.retired_wire.plus(&client.wire_stats()),
            None => self.retired_wire,
        }
    }

    /// Whether a request can be blindly resubmitted after a mid-flight link
    /// failure. Mutating ops are not: the lost attempt may or may not have
    /// executed server-side.
    pub fn is_idempotent(request: &Request) -> bool {
        !matches!(
            request,
            Request::Upload(_)
                | Request::EnableCache { .. }
                | Request::DisableCache
                | Request::RestoreIndex(_)
                | Request::ResetCounters
        )
    }

    /// Connect if disconnected, waiting from `now` no longer than `deadline`.
    /// A connect still in flight when the deadline passes keeps running on
    /// the dialer thread; its result is consumed (and the link reused) by the
    /// next call instead of leaking or double-dialing.
    fn ensure_connected(
        &mut self,
        deadline: Instant,
        now: Instant,
    ) -> Result<&mut NetClient, ClientError> {
        if self.client.is_none() {
            if !self.dial_pending {
                let ordinal = self.connections;
                self.dial_tx
                    .send(ordinal)
                    .map_err(|_| ClientError::Io(io::Error::other("dialer thread exited")))?;
                self.dial_pending = true;
            }
            let wait = deadline.saturating_duration_since(now);
            let dialed = match self.dial_rx.recv_timeout(wait) {
                Ok(result) => {
                    self.dial_pending = false;
                    result.map_err(ClientError::Io)?
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Deadline elapsed mid-connect: surface the timeout now,
                    // leave `dial_pending` set so the eventual link is reused.
                    return Err(ClientError::TimedOut {
                        request_id: self.next_id,
                    });
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ClientError::Io(io::Error::other("dialer thread exited")));
                }
            };
            let ordinal = self.connections;
            let (reader, writer) = dialed;
            self.connections += 1;
            if ordinal > 0 {
                self.stats.reconnects += 1;
                if let Some(tel) = &self.telemetry {
                    tel.add(Counter::Reconnects, 1);
                }
            }
            self.client =
                Some(NetClient::from_parts(reader, writer).with_first_request_id(self.next_id));
        }
        // Either it was `Some` on entry or the block above just stored it.
        Ok(self.client.as_mut().expect("just connected"))
    }

    /// Tear down the current connection (the dropped halves close the link),
    /// banking its wire stats and id progress.
    fn drop_connection(&mut self) {
        if let Some(client) = self.client.take() {
            self.next_id = client.next_request_id();
            self.retired_wire = self.retired_wire.plus(&client.wire_stats());
        }
    }

    /// One request, end to end: connect if needed, submit, await the reply;
    /// on an overload shed or (for idempotent requests) a link fault,
    /// back off and retry until the policy's attempt or deadline budget runs
    /// out. Returns the final completed reply, the final shed reply (if the
    /// budget ran out while overloaded), or the last error.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.call_traced(request).map(|(_, response)| response)
    }

    /// [`ResilientClient::call`], also returning the request id of the
    /// attempt that produced the reply — the id under which the hub journaled
    /// (or shed) it, which is what equivalence oracles correlate on.
    pub fn call_traced(&mut self, request: &Request) -> Result<(u64, Response), ClientError> {
        let flight = self.submit(request);
        self.complete(flight, request)
    }

    /// The first half of a call: start the request's deadline, connect if
    /// needed, encode, flush, and count the attempt — without waiting for the
    /// reply. A caller holding several clients submits on all of them and
    /// only then completes each, so the servers work concurrently. A submit
    /// that fails (connect or send) is carried inside the [`InFlight`] and
    /// classified by [`ResilientClient::complete`] like any other lost
    /// attempt.
    pub fn submit(&mut self, request: &Request) -> InFlight {
        let now = Instant::now();
        let deadline = now + self.policy.request_deadline;
        let first = self.send(request, deadline, now);
        InFlight { deadline, first }
    }

    /// The second half of a call: await the reply of the flight's first
    /// attempt, then classify it — completed, shed, or lost to the link —
    /// and back off and retry `request` (which must be the request the flight
    /// was submitted with) exactly as [`ResilientClient::call`] documents.
    pub fn complete(
        &mut self,
        flight: InFlight,
        request: &Request,
    ) -> Result<(u64, Response), ClientError> {
        let idempotent = Self::is_idempotent(request);
        let InFlight { deadline, first } = flight;
        let mut sent = first;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let outcome = sent.and_then(|sent| self.await_reply(sent, deadline, Instant::now()));
            // A reply, a shed, or a link fault (the link already torn down).
            let shed = match &outcome {
                Ok((
                    _,
                    Response::Error(ProtocolError::Transport(TransportError::Overloaded {
                        retry_after_ms,
                    })),
                )) => {
                    self.stats.sheds += 1;
                    Some(*retry_after_ms)
                }
                Ok(_) => {
                    self.stats.successes += 1;
                    return outcome;
                }
                Err(_) => {
                    self.stats.link_faults += 1;
                    None
                }
            };
            let now = Instant::now();
            let decision =
                self.policy
                    .next(attempt, now, deadline, shed, idempotent, &mut self.jitter);
            let after = match decision {
                Retry::After(after) => after,
                Retry::GiveUp => return outcome,
                Retry::Unsafe => {
                    self.stats.unsafe_aborts += 1;
                    return outcome.map_err(|cause| ClientError::RetryUnsafe {
                        op: request.name(),
                        cause: Box::new(cause),
                    });
                }
            };
            if !after.is_zero() {
                self.stats.backoff_waits += 1;
                self.stats.backoff_ns += after.as_nanos() as u64;
                if let Some(tel) = &self.telemetry {
                    tel.record_duration(Stage::BackoffWait, after.as_nanos() as u64);
                }
                std::thread::sleep(after);
            }
            self.stats.retries += 1;
            if let Some(tel) = &self.telemetry {
                tel.add(Counter::Retries, 1);
            }
            // The backoff ended at `now + after`: a redial waits from there.
            sent = self.send(request, deadline, now + after);
        }
    }

    /// One submission at `now`, counted as an attempt: connect if needed,
    /// encode, flush. Returns where the reply will arrive, or the link error
    /// that consumed the attempt (a link that failed the write is torn down).
    fn send(
        &mut self,
        request: &Request,
        deadline: Instant,
        now: Instant,
    ) -> Result<Sent, ClientError> {
        self.stats.attempts += 1;
        let client = self.ensure_connected(deadline, now)?;
        let id = client.submit(request);
        if let Err(error) = client.flush() {
            self.drop_connection();
            return Err(error);
        }
        Ok(Sent {
            id,
            connection: self.connections,
        })
    }

    /// Wait for one submission's reply (completed or shed); a link that
    /// fails or stays silent past the attempt timeout is torn down. If the
    /// submission's connection was already replaced — another flight of this
    /// client saw it die first — the reply went with it: the attempt is lost
    /// like any other, and the replacement stays up.
    fn await_reply(
        &mut self,
        sent: Sent,
        deadline: Instant,
        now: Instant,
    ) -> Result<(u64, Response), ClientError> {
        let Sent { id, connection } = sent;
        let client = match &mut self.client {
            Some(client) if connection == self.connections => client,
            _ => return Err(ClientError::Disconnected { request_id: id }),
        };
        let reply = client.wait_take(id, self.policy.reply_wait(now, deadline));
        if reply.is_err() {
            self.drop_connection();
        }
        reply.map(|response| (id, response))
    }
}

impl TypedCalls for ResilientClient {
    type Error = ClientError;

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.call(request)
    }
}

/// A flushed submission: its request id and the connection (by count of
/// connections established) whose reader will see the reply.
struct Sent {
    id: u64,
    connection: u64,
}

/// A request submitted with [`ResilientClient::submit`] whose reply has not
/// been awaited yet. It **must** be handed back to
/// [`ResilientClient::complete`] on the same client: the attempt is already
/// counted, and only `complete` books how it ended, so a dropped flight breaks
/// `attempts == successes + sheds + link_faults` (and leaves its reply in the
/// client's inbox).
#[must_use = "every flight must be completed, or the client's conservation law breaks"]
pub struct InFlight {
    /// The request's deadline, started at submit.
    deadline: Instant,
    /// The first attempt, or the link error that consumed it at submit.
    first: Result<Sent, ClientError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyLink};
    use crate::hub::{Hub, HubConfig};
    use mkse_core::bitindex::BitIndex;
    use mkse_protocol::messages::{CacheReport, QueryMessage, SearchReply, SearchResultEntry};
    use mkse_protocol::{Service, UploadMessage};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Query-echo service counting upload executions, for at-most-once
    /// assertions.
    struct CountingService {
        uploads: Arc<AtomicU64>,
    }

    impl Service for CountingService {
        fn call(&mut self, request: Request) -> Response {
            match request {
                Request::Query(m) => Response::Search(SearchReply {
                    matches: vec![SearchResultEntry {
                        document_id: m.query.count_ones() as u64,
                        rank: m.query.len() as u32,
                        metadata: Vec::new(),
                    }],
                    cache: CacheReport::default(),
                }),
                Request::Upload(_) => {
                    self.uploads.fetch_add(1, Ordering::SeqCst);
                    Response::Uploaded { documents: 1 }
                }
                _ => Response::Ack,
            }
        }

        fn telemetry(&self) -> Option<&mkse_core::telemetry::Telemetry> {
            None
        }
    }

    fn query(ones: usize) -> Request {
        let mut bits = BitIndex::all_zeros(16);
        for i in 0..ones {
            bits.set(i, true);
        }
        Request::Query(QueryMessage {
            query: bits,
            top: None,
        })
    }

    fn upload() -> Request {
        Request::Upload(UploadMessage {
            indices: vec![],
            documents: vec![],
        })
    }

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(5),
            attempt_timeout: Duration::from_millis(250),
            request_deadline: Duration::from_secs(10),
            jitter_seed: 42,
        }
    }

    /// A connector over the hub's memory dialer whose every link runs the
    /// fault plan `plan` picks for its connection ordinal.
    fn planned_connector(
        hub: &crate::hub::HubHandle,
        plan: impl Fn(u64) -> FaultPlan + Send + 'static,
    ) -> Connector {
        let dialer = hub.memory_dialer();
        Box::new(move |ordinal| {
            let (reader, writer) = dialer.connect().split();
            let (r, w, _h) = FaultyLink::wrap(Box::new(reader), Box::new(writer), plan(ordinal));
            Ok((Box::new(r), Box::new(w)))
        })
    }

    /// A connector whose first `kills` links die on the first write; later
    /// links are clean.
    fn flaky_connector(hub: &crate::hub::HubHandle, kills: u64) -> Connector {
        planned_connector(hub, move |ordinal| FaultPlan {
            kill_after_bytes: (ordinal < kills).then_some(0),
            ..FaultPlan::healthy(ordinal)
        })
    }

    #[test]
    fn idempotent_requests_survive_dead_links_via_reconnect() {
        let uploads = Arc::new(AtomicU64::new(0));
        let hub = Hub::spawn(
            CountingService {
                uploads: uploads.clone(),
            },
            HubConfig::default(),
        );
        let mut client = ResilientClient::new(flaky_connector(&hub, 2), quick_policy());
        // The first two connections die on the first write; the third works.
        let reply = client.call(&query(3)).unwrap().into_search().unwrap();
        assert_eq!(reply.matches[0].document_id, 3);
        let stats = client.stats();
        assert_eq!(stats.link_faults, 2);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.reconnects, 2);
        assert_eq!(stats.successes, 1);
        assert_eq!(
            stats.attempts,
            stats.successes + stats.sheds + stats.link_faults
        );
        // A second call reuses the healthy connection: no new attempts lost.
        client.call(&query(5)).unwrap();
        assert_eq!(client.stats().link_faults, 2);
        drop(client);
        drop(hub.shutdown());
    }

    #[test]
    fn non_idempotent_requests_fail_retry_unsafe_without_opt_in() {
        let uploads = Arc::new(AtomicU64::new(0));
        let hub = Hub::spawn(
            CountingService {
                uploads: uploads.clone(),
            },
            HubConfig::default(),
        );
        let mut client = ResilientClient::new(flaky_connector(&hub, 1), quick_policy());
        let err = client.call(&upload()).unwrap_err();
        match err {
            ClientError::RetryUnsafe { op, .. } => assert_eq!(op, "Upload"),
            other => panic!("expected RetryUnsafe, got {other}"),
        }
        assert_eq!(client.stats().unsafe_aborts, 1);
        assert_eq!(client.stats().retries, 0, "never silently resubmitted");
        // The same client still works for later requests (fresh connection).
        assert!(matches!(client.call(&query(1)), Ok(Response::Search(_))));
        drop(client);
        drop(hub.shutdown());
        assert_eq!(
            uploads.load(Ordering::SeqCst),
            0,
            "the killed-at-byte-0 upload never reached the server"
        );
    }

    #[test]
    fn request_ids_stay_unique_across_reconnects() {
        let uploads = Arc::new(AtomicU64::new(0));
        let hub = Hub::spawn(CountingService { uploads }, HubConfig::default());
        let mut client = ResilientClient::new(flaky_connector(&hub, 1), quick_policy())
            .with_first_request_id(100);
        client.call(&query(1)).unwrap();
        client.call(&query(2)).unwrap();
        // Attempt 1 consumed id 100 on the dead link; the retry and the
        // second request used fresh ids on the replacement connection.
        assert_eq!(client.next_request_id(), 103);
        let wire = client.wire_stats();
        assert_eq!(wire.frames_sent, 3, "three submissions across two links");
        assert_eq!(wire.frames_received, 2);
        drop(client);
        drop(hub.shutdown());
    }

    #[test]
    fn connect_honors_the_request_deadline_and_reuses_the_late_dial() {
        let uploads = Arc::new(AtomicU64::new(0));
        let hub = Hub::spawn(CountingService { uploads }, HubConfig::default());
        let dialer = hub.memory_dialer();
        let dials = Arc::new(AtomicU64::new(0));
        let dials_seen = dials.clone();
        let connector: Connector = Box::new(move |_ordinal| {
            dials_seen.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(300));
            let (reader, writer) = dialer.connect().split();
            Ok((Box::new(reader), Box::new(writer)))
        });
        let policy = RetryPolicy {
            max_attempts: 1,
            request_deadline: Duration::from_millis(50),
            ..quick_policy()
        };
        let mut client = ResilientClient::new(connector, policy);
        let started = Instant::now();
        let err = client.call(&query(1)).unwrap_err();
        assert!(matches!(err, ClientError::TimedOut { .. }), "got {err}");
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "slow connect pinned the request past its deadline: {:?}",
            started.elapsed()
        );
        let stats = client.stats();
        assert_eq!(
            stats.link_faults, 1,
            "a timed-out connect is a lost attempt"
        );
        assert_eq!(
            stats.attempts,
            stats.successes + stats.sheds + stats.link_faults
        );
        // Wait out the dial: the next call consumes the in-flight result
        // instead of dialing a second time.
        std::thread::sleep(Duration::from_millis(350));
        assert!(matches!(client.call(&query(3)), Ok(Response::Search(_))));
        assert_eq!(dials.load(Ordering::SeqCst), 1, "the late dial was reused");
        drop(client);
        drop(hub.shutdown());
    }

    /// `call` is `complete(submit(..))`: under one seeded fault plan the two
    /// spellings leave identical stats (jittered backoff included), ids and
    /// replies.
    #[test]
    fn split_calls_account_exactly_like_call() {
        let run = |split: bool| {
            let uploads = Arc::new(AtomicU64::new(0));
            let hub = Hub::spawn(CountingService { uploads }, HubConfig::default());
            // Every connection tears a seeded fifth of its writes.
            let connector = planned_connector(&hub, |ordinal| FaultPlan {
                torn_write_per_mille: 200,
                ..FaultPlan::healthy(0x5EED ^ ordinal)
            });
            let mut client = ResilientClient::new(connector, quick_policy());
            let replies: Vec<(u64, Response)> = (1..=40)
                .map(|ones| {
                    let request = query(ones % 16);
                    if split {
                        let flight = client.submit(&request);
                        client.complete(flight, &request).unwrap()
                    } else {
                        client.call_traced(&request).unwrap()
                    }
                })
                .collect();
            let stats = client.stats();
            drop(client);
            drop(hub.shutdown());
            (stats, replies)
        };
        let (called, called_replies) = run(false);
        let (split, split_replies) = run(true);
        assert!(called.link_faults > 0, "the plan must actually fire");
        assert_eq!(called, split);
        assert_eq!(called_replies, split_replies);
        assert_eq!(
            split.attempts,
            split.successes + split.sheds + split.link_faults
        );
    }

    /// Two flights on one client whose link dies under the second write: both
    /// complete on a single replacement connection (the flight that finds its
    /// link already replaced does not tear the replacement down), and the
    /// conservation law holds with both attempts booked as link faults.
    #[test]
    fn flights_sharing_a_dead_link_both_complete_on_one_reconnect() {
        let uploads = Arc::new(AtomicU64::new(0));
        let hub = Hub::spawn(CountingService { uploads }, HubConfig::default());
        let (first, second) = (query(3), query(5));
        let budget = mkse_protocol::wire::encode_request(1, &first).len() as u64 + 4;
        let connector = planned_connector(&hub, move |ordinal| FaultPlan {
            kill_after_bytes: (ordinal == 0).then_some(budget),
            ..FaultPlan::healthy(ordinal)
        });
        let mut client = ResilientClient::new(connector, quick_policy());
        let a = client.submit(&first);
        let b = client.submit(&second);
        for (flight, request, ones) in [(a, &first, 3), (b, &second, 5)] {
            let (_, reply) = client.complete(flight, request).unwrap();
            assert_eq!(reply.into_search().unwrap().matches[0].document_id, ones);
        }
        let stats = client.stats();
        assert_eq!(stats.link_faults, 2, "both first attempts died with link 0");
        assert_eq!(stats.successes, 2);
        assert_eq!(stats.reconnects, 1);
        assert_eq!(
            stats.attempts,
            stats.successes + stats.sheds + stats.link_faults
        );
        drop(client);
        drop(hub.shutdown());
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let uploads = Arc::new(AtomicU64::new(0));
            let hub = Hub::spawn(CountingService { uploads }, HubConfig::default());
            let policy = RetryPolicy {
                jitter_seed: seed,
                ..quick_policy()
            };
            let mut client = ResilientClient::new(flaky_connector(&hub, 3), policy);
            client.call(&query(2)).unwrap();
            let stats = client.stats();
            drop(client);
            drop(hub.shutdown());
            stats
        };
        let a = run(7);
        let b = run(7);
        assert!(a.backoff_waits >= 3, "three dead links force three sleeps");
        assert_eq!(a.backoff_ns, b.backoff_ns, "same seed replays same sleeps");
        assert_eq!(a, b, "jittered runs stay fully reproducible per seed");
        let c = run(8);
        assert_ne!(
            a.backoff_ns, c.backoff_ns,
            "a different seed draws different jitter"
        );
    }

    /// The retry decision, enumerated: no clock is read and nothing sleeps.
    #[test]
    fn the_retry_decision_enumerated() {
        use Retry::{After, GiveUp, Unsafe};
        const LINK: Option<u64> = None;
        let shed = Some;
        let (ns, ms) = (Duration::from_nanos, Duration::from_millis);
        // 8 attempts, 200 µs base doubling per attempt, 5 ms cap, ±25 %.
        let policy = quick_policy();
        let start = Instant::now();
        let deadline = start + Duration::from_secs(1);
        // Decide on a fresh stream, which must be drawn from exactly when a
        // retry follows.
        let decide = |attempt, now, shed, idempotent| {
            let seeded = || StdRng::seed_from_u64(policy.jitter_seed);
            let mut jitter = seeded();
            let got = policy.next(attempt, now, deadline, shed, idempotent, &mut jitter);
            let drawn = jitter.gen::<u64>() != seeded().gen::<u64>();
            assert_eq!(drawn, matches!(got, After(_)), "jitter drawn: {got:?}");
            got
        };
        // The attempt and deadline budget.
        let capped = decide(7, start, LINK, true);
        assert!(
            matches!(capped, After(d) if d >= ms(5) * 3 / 4 && d <= ms(5) * 5 / 4),
            "one attempt left: the capped backoff, jittered, got {capped:?}"
        );
        assert_eq!(decide(8, start, LINK, true), GiveUp, "attempts used up");
        assert_eq!(decide(8, start, shed(2), false), GiveUp, "a shed too");
        assert_eq!(decide(1, deadline, LINK, true), GiveUp, "deadline reached");
        assert_eq!(decide(1, deadline + ns(1), shed(2), true), GiveUp);
        // No sleep runs past the deadline.
        assert_eq!(decide(1, deadline - ns(1), LINK, true), After(ns(1)));
        assert_eq!(decide(7, deadline - ms(3), shed(20), true), After(ms(3)));
        // A shed floor above the cap is honoured, for any request: a shed
        // never executed.
        assert_eq!(decide(7, start, shed(20), true), After(ms(20)));
        assert_eq!(decide(7, start, shed(20), false), After(ms(20)));
        // A link fault on a non-idempotent request is never resubmitted,
        // budget or not.
        assert_eq!(decide(1, start, LINK, false), Unsafe);
        assert_eq!(decide(8, deadline, LINK, false), Unsafe);
        // A zero jitter span draws nothing: 1 ns doubled is 2 ns, ±0.
        let tiny = RetryPolicy {
            base_backoff: ns(1),
            ..policy
        };
        let mut jitter = StdRng::seed_from_u64(tiny.jitter_seed);
        let got = tiny.next(1, start, deadline, LINK, true, &mut jitter);
        assert_eq!(got, After(ns(2)));
        let fresh = StdRng::seed_from_u64(tiny.jitter_seed).gen::<u64>();
        assert_eq!(jitter.gen::<u64>(), fresh);
        // A reply wait is the attempt timeout, cut at the deadline.
        assert_eq!(policy.reply_wait(start, deadline), ms(250));
        assert_eq!(policy.reply_wait(deadline - ms(3), deadline), ms(3));
        assert_eq!(
            policy.reply_wait(deadline + ms(3), deadline),
            Duration::ZERO
        );
    }

    /// The seeded stream, pinned: the sleeps before attempts 2–8 of a request
    /// whose links keep dying, under `quick_policy` with jitter seed 7, in
    /// nanoseconds (the exponential values are 400 µs, 800 µs, 1.6 ms,
    /// 3.2 ms, then the 5 ms cap, each ±25 %).
    #[test]
    fn the_seed_7_backoff_sequence_is_pinned() {
        let policy = RetryPolicy {
            jitter_seed: 7,
            ..quick_policy()
        };
        let start = Instant::now();
        let deadline = start + policy.request_deadline;
        let mut jitter = StdRng::seed_from_u64(policy.jitter_seed);
        let sleeps: Vec<u64> = (1..policy.max_attempts)
            .map(
                |attempt| match policy.next(attempt, start, deadline, None, true, &mut jitter) {
                    Retry::After(after) => after.as_nanos() as u64,
                    other => panic!("attempt {attempt}: {other:?}"),
                },
            )
            .collect();
        assert_eq!(
            sleeps,
            [476_887, 760_951, 1_941_001, 3_185_400, 5_068_603, 4_518_994, 3_983_039]
        );
    }
}
