//! # mkse-net — concurrent socket transport with cross-client batch formation
//!
//! The engine can fuse a whole batch of queries into one scan-plane pass, but
//! a single client rarely has a batch in hand. This crate is the network
//! front door that manufactures those batches out of *independent* traffic:
//! a hub process owns the index ([`hub::Hub`]), many clients connect over
//! `std::net::TcpListener` or the deterministic in-process
//! [`link::MemoryLink`] twin, and single-query frames from *different*
//! connections are coalesced into one
//! [`Service::call_query_group`](mkse_protocol::Service::call_query_group) pass:
//! a group runs the moment every connection that has been querying is in it,
//! and what queued up while it ran is the next group.
//!
//! The house invariant extends across the wire: **the transport and the
//! batcher are invisible**. N concurrent clients receive byte-identical
//! replies, `SearchStats`, and cache counters to the same requests issued
//! sequentially in-process; the hub's optional execution journal
//! ([`hub::HubReport::journal`]) lets the equivalence suites replay any
//! concurrent run sequentially and prove it.
//!
//! Layering:
//!
//! ```text
//!   ResilientClient ─────▶ NetClient ──frames──▶ reader thread ──events──▶ dispatcher thread
//!   (retry/reconnect,      (pipelined)  │        (FrameBuffer,             (single writer: owns the
//!    backoff, at-most-once)             │         per-conn gate,            Service + batcher,
//!                                       ▼         hub-wide budget,          demultiplexes replies,
//!                                  FaultyLink     idle/size hygiene)        sheds → Overloaded)
//!                                  (optional seeded chaos wrapper)
//! ```
//!
//! The resilience layer ([`fault`], [`resilient`], hub overload shedding) is
//! built so chaos stays *deterministic*: a [`fault::FaultPlan`] seed fully
//! determines the fault schedule, a shed request is refused **before**
//! execution (so the journal-replay oracle is untouched), and the
//! [`resilient::ResilientClient`] accounts every attempt under the
//! conservation law `attempts == successes + sheds + link_faults`.
//!
//! On top of the transport sits the **fleet layer** ([`coordinator`],
//! [`node`]): shard-server nodes — each a `CloudServer` behind its own hub —
//! register with a [`coordinator::Coordinator`] over the same framed codec
//! (`RegisterNode` / `NodeHeartbeat` envelope ops), which scatters each read
//! to all live nodes at once as one `BatchQuery` — a coalesced group of k
//! queries as k members, a lone query as one, so nodes only see `BatchQuery`
//! reads — merges replies in canonical rank order, and on
//! a node death (missed health deadline or exhausted retries) re-homes the
//! lost shards onto survivors, each as one layout-independent snapshot of the
//! shard as the coordinator's mirror holds it:
//!
//! ```text
//!   clients ──▶ coordinator hub ──▶ Coordinator (Service)
//!               (batcher: k queries     │  mirror store (the corpus, once) + doc bodies
//!                ─▶ one group)          │  scatter/merge · health deadlines · failover
//!                         ResilientClient per node (retry_non_idempotent OFF)
//!                         reads: submit to every node, then complete each
//!                         (a group of k ≥ 1 = one BatchQuery); writes: one by one
//!                               ▼                           ▼
//!                node hub ──▶ CloudServer     node hub ──▶ CloudServer   …
//!                (the coordinator's link is a node hub's only connection, so
//!                 forwards run on arrival; NodeRunner registers and beats over
//!                 the control plane, reading its own registry for the payload)
//! ```
//!
//! The house invariant survives the fleet: every completed reply is
//! byte-identical to a single sequential server holding the whole corpus,
//! even across failovers — `tests/fleet_chaos.rs` proves it with seeded kill
//! schedules and journal replay.

pub mod client;
pub mod coordinator;
pub mod fault;
pub mod frame;
pub mod hub;
pub mod link;
pub mod node;
pub mod resilient;

pub use client::{ClientError, NetClient};
pub use coordinator::{Coordinator, FleetConfig};
pub use fault::{FaultEvent, FaultHandle, FaultPlan, FaultyLink, FaultyReader, FaultyWriter};
pub use frame::FrameBuffer;
pub use hub::{Hub, HubConfig, HubHandle, HubReport, JournalEntry, MemoryDialer};
pub use link::{memory_duplex, LinkReader, LinkWriter, MemoryLink, MemoryReader, MemoryWriter};
pub use node::{NodeConfig, NodeError, NodeRunner};
pub use resilient::{Connector, InFlight, ResilienceStats, ResilientClient, RetryPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_core::bitindex::BitIndex;
    use mkse_core::telemetry::{MetricsSnapshot, Telemetry, TelemetryLevel};
    use mkse_protocol::messages::{CacheReport, SearchReply, SearchResultEntry};
    use mkse_protocol::{ProtocolError, TransportError};
    use mkse_protocol::{QueryMessage, Request, Response, Service};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{self, Receiver};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A deterministic stand-in service: answers queries with a reply derived
    /// from the query bits, echoes restore sizes, acks the rest. Uses the
    /// default (sequential) `call_query_group`, so transport tests exercise
    /// the hub machinery without the full engine underneath.
    struct EchoService {
        telemetry: Telemetry,
        calls: Arc<AtomicU64>,
        /// When set, the first call blocks until the sender signals or drops:
        /// the test fills the hub's event queue meanwhile.
        hold: Option<Receiver<()>>,
    }

    impl EchoService {
        fn new(level: TelemetryLevel) -> (EchoService, Arc<AtomicU64>) {
            let telemetry = Telemetry::new();
            telemetry.set_level(level);
            let calls = Arc::new(AtomicU64::new(0));
            (
                EchoService {
                    telemetry,
                    calls: calls.clone(),
                    hold: None,
                },
                calls,
            )
        }
    }

    impl Service for EchoService {
        fn call(&mut self, request: Request) -> Response {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if let Some(hold) = self.hold.take() {
                let _ = hold.recv();
            }
            match request {
                Request::Query(m) => Response::Search(SearchReply {
                    matches: vec![SearchResultEntry {
                        document_id: m.query.count_ones() as u64,
                        rank: m.query.len() as u32,
                        metadata: Vec::new(),
                    }],
                    cache: CacheReport::default(),
                }),
                Request::RestoreIndex(bytes) => Response::Restored {
                    documents: bytes.len() as u64,
                },
                _ => Response::Ack,
            }
        }

        fn telemetry(&self) -> Option<&Telemetry> {
            Some(&self.telemetry)
        }
    }

    fn query(ones: usize, len: usize) -> Request {
        let mut bits = BitIndex::all_zeros(len);
        for i in 0..ones {
            bits.set(i, true);
        }
        Request::Query(QueryMessage {
            query: bits,
            top: None,
        })
    }

    const WAIT: Duration = Duration::from_secs(5);

    /// Batcher flushes by reason.
    #[derive(Debug, Default, PartialEq)]
    struct Flushes {
        complete: u64,
        window: u64,
        depth: u64,
        barrier: u64,
        shutdown: u64,
    }

    impl Flushes {
        fn total(&self) -> u64 {
            self.complete + self.window + self.depth + self.barrier + self.shutdown
        }
    }

    fn flushes(snapshot: &MetricsSnapshot) -> Flushes {
        Flushes {
            complete: snapshot.counter("batcher_flush_complete"),
            window: snapshot.counter("batcher_flush_window"),
            depth: snapshot.counter("batcher_flush_depth"),
            barrier: snapshot.counter("batcher_flush_barrier"),
            shutdown: snapshot.counter("batcher_flush_shutdown"),
        }
    }

    /// `(samples, sum)` of the batch-occupancy series: one sample per flush,
    /// summing to the queries coalesced.
    fn occupancy(snapshot: &MetricsSnapshot) -> (u64, u64) {
        snapshot
            .values
            .iter()
            .find(|v| v.series == "batch_occupancy")
            .map_or((0, 0), |v| (v.count, v.sum))
    }

    #[test]
    fn memory_round_trip_over_the_hub() {
        let (service, calls) = EchoService::new(TelemetryLevel::Counters);
        let telemetry = service.telemetry.clone();
        let hub = Hub::spawn(service, HubConfig::default());
        let mut client = NetClient::from_memory(hub.connect_memory());
        let reply = client.call(&query(3, 16), WAIT).unwrap();
        match reply {
            Response::Search(r) => {
                assert_eq!(r.matches[0].document_id, 3);
                assert_eq!(r.matches[0].rank, 16);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        let echoed = client
            .call(&Request::RestoreIndex(vec![7; 42]), WAIT)
            .unwrap();
        assert_eq!(echoed, Response::Restored { documents: 42 });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let report = hub.shutdown();
        assert_eq!(report.connections, 1);
        assert_eq!(report.requests, 2);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("wire_frames_in"), 2);
        assert_eq!(snapshot.counter("wire_frames_out"), 2);
        assert_eq!(snapshot.counter("connections_opened"), 1);
        assert_eq!(snapshot.counter("connections_closed"), 1);
        assert_eq!(client.wire_stats().frames_sent, 2);
        assert_eq!(client.wire_stats().frames_received, 2);
    }

    #[test]
    fn tcp_round_trip_over_the_hub() {
        let (service, _) = EchoService::new(TelemetryLevel::Off);
        let hub = Hub::spawn(service, HubConfig::default());
        let addr = hub.bind_tcp("127.0.0.1:0").unwrap();
        let mut a = NetClient::connect_tcp(addr).unwrap();
        let mut b = NetClient::connect_tcp(addr)
            .unwrap()
            .with_first_request_id(1_000_001);
        let ia = a.submit(&query(1, 8));
        let ib = b.submit(&query(5, 8));
        a.flush().unwrap();
        b.flush().unwrap();
        let ra = a.wait_take(ia, WAIT).unwrap();
        let rb = b.wait_take(ib, WAIT).unwrap();
        match (ra, rb) {
            (Response::Search(ra), Response::Search(rb)) => {
                assert_eq!(ra.matches[0].document_id, 1);
                assert_eq!(rb.matches[0].document_id, 5);
            }
            other => panic!("unexpected replies {other:?}"),
        }
        let report = hub.shutdown();
        assert_eq!(report.connections, 2);
        assert_eq!(report.requests, 2);
    }

    #[test]
    fn batcher_coalesces_across_connections() {
        let (service, _) = EchoService::new(TelemetryLevel::Counters);
        let telemetry = service.telemetry.clone();
        let config = HubConfig {
            batch_window: Duration::from_millis(50),
            journal: true,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        let mut a = NetClient::from_memory(hub.connect_memory());
        let mut b = NetClient::from_memory(hub.connect_memory()).with_first_request_id(1_000_001);
        let ia = a.submit(&query(2, 8));
        let ib = b.submit(&query(4, 8));
        a.flush().unwrap();
        b.flush().unwrap();
        let ra = a.wait_take(ia, WAIT).unwrap();
        let rb = b.wait_take(ib, WAIT).unwrap();
        // Replies are demultiplexed to the right connection by request id.
        match (&ra, &rb) {
            (Response::Search(ra), Response::Search(rb)) => {
                assert_eq!(ra.matches[0].document_id, 2);
                assert_eq!(rb.matches[0].document_id, 4);
            }
            other => panic!("unexpected replies {other:?}"),
        }
        let report = hub.shutdown();
        assert_eq!(report.requests, 2);
        let snapshot = telemetry.snapshot();
        // With two active connections neither query takes the solo path; at
        // least one flush happened and both queries were coalesced (one flush
        // of 2 if the second arrived before the dispatcher looked at the
        // first, two flushes of 1 if not).
        assert_eq!(snapshot.counter("batcher_coalesced_queries"), 2);
        assert_eq!(snapshot.counter("batcher_solo_dispatches"), 0);
        let flushes = flushes(&snapshot).total();
        assert!(flushes >= 1);
        // Occupancy histogram recorded one sample per flush.
        assert_eq!(occupancy(&snapshot), (flushes, 2));
        // The journal holds both queries in execution order.
        assert_eq!(report.journal.len(), 2);
    }

    #[test]
    fn single_connection_takes_the_solo_path() {
        let (service, _) = EchoService::new(TelemetryLevel::Counters);
        let telemetry = service.telemetry.clone();
        let hub = Hub::spawn(service, HubConfig::default());
        let mut client = NetClient::from_memory(hub.connect_memory());
        for _ in 0..3 {
            let reply = client.call(&query(1, 8), WAIT).unwrap();
            assert!(matches!(reply, Response::Search(_)));
        }
        drop(hub.shutdown());
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("batcher_solo_dispatches"), 3);
        assert_eq!(snapshot.counter("batcher_coalesced_queries"), 0);
    }

    #[test]
    fn oversized_frame_gets_typed_error_and_closes_only_that_connection() {
        let (service, _) = EchoService::new(TelemetryLevel::Off);
        let config = HubConfig {
            max_frame_bytes: 64,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        let mut offender = NetClient::from_memory(hub.connect_memory());
        let mut bystander =
            NetClient::from_memory(hub.connect_memory()).with_first_request_id(1_000_001);
        // A prefix declaring 1 MiB against a 64-byte limit: the reject fires
        // from the 4 prefix bytes alone, before any payload exists.
        offender.send_raw(&(1u32 << 20).to_le_bytes()).unwrap();
        let reply = offender.wait_take(0, WAIT).unwrap();
        assert_eq!(
            reply,
            Response::Error(ProtocolError::Transport(TransportError::FrameTooLarge {
                declared: 1 << 20,
                max: 64,
            }))
        );
        // The connection is closed after the error frame...
        assert!(matches!(
            offender.wait_take(42, WAIT),
            Err(ClientError::Disconnected { .. })
        ));
        // ...but the bystander connection still works.
        let ok = bystander.call(&query(2, 8), WAIT).unwrap();
        assert!(matches!(ok, Response::Search(_)));
        drop(hub.shutdown());
    }

    #[test]
    fn corrupt_frame_poisons_only_its_connection() {
        let (service, _) = EchoService::new(TelemetryLevel::Off);
        let hub = Hub::spawn(service, HubConfig::default());
        let mut poisoned = NetClient::from_memory(hub.connect_memory());
        let mut healthy =
            NetClient::from_memory(hub.connect_memory()).with_first_request_id(1_000_001);
        // A well-framed but undecodable payload.
        let mut junk = (3u32).to_le_bytes().to_vec();
        junk.extend_from_slice(&[0xff, 0xff, 0xff]);
        poisoned.send_raw(&junk).unwrap();
        let reply = poisoned.wait_take(0, WAIT).unwrap();
        assert!(matches!(reply, Response::Error(ProtocolError::Codec(_))));
        assert!(matches!(
            poisoned.wait_take(1, WAIT),
            Err(ClientError::Disconnected { .. })
        ));
        let ok = healthy.call(&query(3, 8), WAIT).unwrap();
        assert!(matches!(ok, Response::Search(_)));
        drop(hub.shutdown());
    }

    #[test]
    fn idle_connection_is_reaped_with_typed_error() {
        let (service, _) = EchoService::new(TelemetryLevel::Off);
        let config = HubConfig {
            idle_timeout: Duration::from_millis(30),
            read_timeout: Duration::from_millis(5),
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        let mut client = NetClient::from_memory(hub.connect_memory());
        // Send nothing; the hub reaps the connection with a typed error.
        let reply = client.wait_take(0, WAIT).unwrap();
        assert_eq!(
            reply,
            Response::Error(ProtocolError::Transport(TransportError::IdleTimeout {
                idle_ms: 30
            }))
        );
        assert!(matches!(
            client.wait_take(1, WAIT),
            Err(ClientError::Disconnected { .. })
        ));
        drop(hub.shutdown());
    }

    #[test]
    fn hub_budget_sheds_excess_with_typed_overloaded_and_connection_survives() {
        let (service, _) = EchoService::new(TelemetryLevel::Counters);
        let telemetry = service.telemetry.clone();
        let config = HubConfig {
            // Budget of one in-flight request hub-wide; a long-ish window
            // keeps the admitted query parked in the batcher (waiting for B,
            // who has been querying) while the second arrives, so the shed
            // is deterministic.
            max_hub_in_flight: 1,
            shed_retry_after: Duration::from_millis(7),
            batch_window: Duration::from_millis(500),
            batch_depth: 1024,
            journal: true,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        let mut a = NetClient::from_memory(hub.connect_memory());
        let mut b = NetClient::from_memory(hub.connect_memory()).with_first_request_id(1_000_001);
        // One completed query makes B a connection the batcher expects; a
        // peer that never queried would not hold A's group back.
        let warm = b.call(&query(4, 16), WAIT).unwrap();
        assert!(matches!(warm, Response::Search(_)));
        let ia = a.submit(&query(2, 16));
        a.flush().unwrap();
        // Wait until A's query holds the only budget slot (parked in the
        // batcher, pending the window flush).
        while hub.frames_accepted() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let ib = b.submit(&query(4, 16));
        b.flush().unwrap();
        // B is shed immediately with the typed error echoing the configured
        // hint — the saturated hub still answers, it does not stall B.
        let shed = b.wait_take(ib, WAIT).unwrap();
        assert_eq!(
            shed,
            Response::Error(ProtocolError::Transport(TransportError::Overloaded {
                retry_after_ms: 7
            }))
        );
        // A's admitted query completes once the window flushes, releasing
        // the budget slot...
        let ra = a.wait_take(ia, WAIT).unwrap();
        assert!(matches!(ra, Response::Search(_)));
        // ...and B's connection survived the shed: a retry now succeeds.
        let rb = b.call(&query(4, 16), WAIT).unwrap();
        assert!(matches!(rb, Response::Search(_)));
        let report = hub.shutdown();
        assert_eq!(report.sheds, 1);
        // The shed request was refused before execution: never counted as an
        // executed request, never journaled — the replay oracle sees only
        // the three executed queries.
        assert_eq!(report.requests, 3);
        assert_eq!(report.journal.len(), 3);
        assert_eq!(telemetry.snapshot().counter("sheds"), 1);
    }

    #[test]
    fn a_sequential_client_is_never_shed_by_its_own_last_reply() {
        let (service, _) = EchoService::new(TelemetryLevel::Off);
        let config = HubConfig {
            max_hub_in_flight: 1,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        // A second open connection routes the client through the batcher,
        // which gives a group's budget slots back before it writes the
        // replies: the next request, sent the moment the reply is read,
        // always finds the slot free.
        let _idle = hub.connect_memory();
        let mut client = NetClient::from_memory(hub.connect_memory());
        for i in 0..200 {
            let reply = client.call(&query(i % 8 + 1, 16), WAIT).unwrap();
            assert!(
                matches!(reply, Response::Search(_)),
                "request {i}: {reply:?}"
            );
        }
        let report = hub.shutdown();
        assert_eq!((report.requests, report.sheds), (200, 0));
    }

    #[test]
    fn shutdown_drains_every_accepted_request() {
        let (service, _) = EchoService::new(TelemetryLevel::Counters);
        let telemetry = service.telemetry.clone();
        let config = HubConfig {
            // A long window, a deep depth and an expected connection that
            // went quiet: in-flight queries sit in the batcher when the
            // shutdown lands, exercising the drain flush.
            batch_window: Duration::from_secs(10),
            batch_depth: 1024,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        let mut a = NetClient::from_memory(hub.connect_memory());
        let mut b = NetClient::from_memory(hub.connect_memory()).with_first_request_id(1_000_001);
        let mut quiet =
            NetClient::from_memory(hub.connect_memory()).with_first_request_id(2_000_001);
        quiet.call(&query(1, 16), WAIT).unwrap();
        const K: usize = 8;
        let mut ids = Vec::new();
        for i in 0..K {
            ids.push((0, a.submit(&query(i + 1, 16))));
            ids.push((1, b.submit(&query(i + 2, 16))));
        }
        a.flush().unwrap();
        b.flush().unwrap();
        // Wait until every frame has passed the gate, then pull the plug.
        while hub.frames_accepted() < (2 * K + 1) as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = hub.shutdown();
        assert_eq!(report.requests, (2 * K + 1) as u64);
        // No lost replies: both clients can still read all K answers off the
        // (closed but buffered) links.
        for (who, id) in ids {
            let client = if who == 0 { &mut a } else { &mut b };
            let reply = client.wait_take(id, WAIT).unwrap();
            assert!(matches!(reply, Response::Search(_)), "request {id} lost");
        }
        // The 2K queries were still parked when the plug was pulled.
        let snapshot = telemetry.snapshot();
        assert_eq!(
            flushes(&snapshot),
            Flushes {
                complete: 1,
                shutdown: 1,
                ..Flushes::default()
            }
        );
        assert_eq!(occupancy(&snapshot), (2, (2 * K + 1) as u64));
    }

    #[test]
    fn lockstep_clients_fuse_without_ever_waiting_the_window() {
        const ROUNDS: usize = 50;
        let (mut service, calls) = EchoService::new(TelemetryLevel::Counters);
        let telemetry = service.telemetry.clone();
        let (release, hold) = mpsc::channel();
        service.hold = Some(hold);
        let window = Duration::from_secs(10);
        let config = HubConfig {
            batch_window: window,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        let mut a = NetClient::from_memory(hub.connect_memory());
        let mut b = NetClient::from_memory(hub.connect_memory()).with_first_request_id(1_000_001);
        let started = Instant::now();
        // Round one, forced: a third connection's query blocks inside the
        // service while A's and B's first queries queue up behind it, so they
        // are pulled together (the opener hangs up and is not waited for).
        let mut opener =
            NetClient::from_memory(hub.connect_memory()).with_first_request_id(2_000_001);
        opener.submit(&query(1, 16));
        opener.flush().unwrap();
        while calls.load(Ordering::SeqCst) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut ids = (a.submit(&query(1, 16)), b.submit(&query(2, 16)));
        a.flush().unwrap();
        b.flush().unwrap();
        while hub.frames_accepted() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(opener);
        release.send(()).unwrap();
        // From here on each client sends its next query only when its last
        // was answered: whichever arrives first waits for the other, never
        // for the window.
        for round in 1..=ROUNDS {
            a.wait_take(ids.0, WAIT).unwrap();
            b.wait_take(ids.1, WAIT).unwrap();
            if round < ROUNDS {
                ids = (
                    a.submit(&query(round % 8 + 1, 16)),
                    b.submit(&query(round % 8 + 2, 16)),
                );
                a.flush().unwrap();
                b.flush().unwrap();
            }
        }
        // One window wait anywhere would have cost more than this.
        assert!(started.elapsed() < window / 2);
        drop(hub.shutdown());
        let snapshot = telemetry.snapshot();
        // The opener's group of one, then the pair, every round.
        assert_eq!(
            flushes(&snapshot),
            Flushes {
                complete: ROUNDS as u64 + 1,
                ..Flushes::default()
            }
        );
        assert_eq!(
            occupancy(&snapshot),
            (ROUNDS as u64 + 1, 2 * ROUNDS as u64 + 1)
        );
    }

    #[test]
    fn a_backlog_is_fused_to_the_depth_never_flushed_one_at_a_time() {
        const BACKLOG: usize = 64;
        let (mut service, calls) = EchoService::new(TelemetryLevel::Counters);
        let telemetry = service.telemetry.clone();
        let (release, hold) = mpsc::channel();
        service.hold = Some(hold);
        let config = HubConfig {
            batch_window: Duration::from_secs(10),
            batch_depth: 16,
            max_in_flight: BACKLOG,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        let mut pipeliner = NetClient::from_memory(hub.connect_memory());
        let mut querier =
            NetClient::from_memory(hub.connect_memory()).with_first_request_id(1_000_001);
        // The querier's query is alone in the world (a group of one, flushed
        // complete) and blocks inside the service ...
        let held = querier.submit(&query(1, 16));
        querier.flush().unwrap();
        while calls.load(Ordering::SeqCst) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // ... while the pipeliner's whole backlog queues up behind it.
        let ids: Vec<u64> = (0..BACKLOG)
            .map(|i| pipeliner.submit(&query(i % 8 + 1, 16)))
            .collect();
        pipeliner.flush().unwrap();
        while hub.frames_accepted() < (BACKLOG + 1) as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        release.send(()).unwrap();
        querier.wait_take(held, WAIT).unwrap();
        for id in ids {
            let reply = pipeliner.wait_take(id, WAIT).unwrap();
            assert!(matches!(reply, Response::Search(_)));
        }
        drop(hub.shutdown());
        // The queue was never empty while the backlog was being collected,
        // so nothing but the depth ever flushed it: 64 queries, 4 groups of
        // 16, although the querier — expected, and silent — was missing from
        // every one of them.
        let snapshot = telemetry.snapshot();
        assert_eq!(
            flushes(&snapshot),
            Flushes {
                complete: 1,
                depth: (BACKLOG / 16) as u64,
                ..Flushes::default()
            }
        );
        assert_eq!(
            occupancy(&snapshot),
            ((BACKLOG / 16 + 1) as u64, (BACKLOG + 1) as u64)
        );
    }

    #[test]
    fn a_lone_querier_beside_control_connections_never_waits_the_window() {
        const QUERIES: usize = 20;
        let (service, _) = EchoService::new(TelemetryLevel::Counters);
        let telemetry = service.telemetry.clone();
        let window = Duration::from_secs(10);
        let config = HubConfig {
            batch_window: window,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        // The coordinator shape: three connections that only ever send
        // non-query requests (a node's register / heartbeat traffic).
        let mut control: Vec<NetClient> = (1..=3)
            .map(|k| {
                NetClient::from_memory(hub.connect_memory()).with_first_request_id(k * 1_000_000)
            })
            .collect();
        let mut client = NetClient::from_memory(hub.connect_memory());
        let started = Instant::now();
        for i in 0..QUERIES {
            let beat = control[i % 3]
                .call(&Request::MetricsSnapshot, WAIT)
                .unwrap();
            assert_eq!(beat, Response::Ack);
            let reply = client.call(&query(i % 8 + 1, 16), WAIT).unwrap();
            assert!(matches!(reply, Response::Search(_)));
        }
        assert!(started.elapsed() < window / 2);
        drop(hub.shutdown());
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter("batcher_solo_dispatches"), 0);
        assert_eq!(
            flushes(&snapshot),
            Flushes {
                complete: QUERIES as u64,
                ..Flushes::default()
            }
        );
    }

    #[test]
    fn a_client_that_stops_querying_costs_its_peer_one_window_once() {
        let (service, _) = EchoService::new(TelemetryLevel::Counters);
        let telemetry = service.telemetry.clone();
        let window = Duration::from_millis(40);
        let config = HubConfig {
            batch_window: window,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        let mut a = NetClient::from_memory(hub.connect_memory());
        let mut b = NetClient::from_memory(hub.connect_memory()).with_first_request_id(1_000_001);
        let windows = || flushes(&telemetry.snapshot()).window;
        // A queries once and goes quiet (still connected).
        a.call(&query(1, 16), WAIT).unwrap();
        assert_eq!(windows(), 0);
        // B's first query waits the window out for A; the rest do not.
        let started = Instant::now();
        b.call(&query(2, 16), WAIT).unwrap();
        assert!(started.elapsed() >= window);
        assert_eq!(windows(), 1);
        for _ in 0..5 {
            b.call(&query(2, 16), WAIT).unwrap();
        }
        assert_eq!(windows(), 1);
        // A comes back: it is expected again, and now it is B who is silent.
        a.call(&query(1, 16), WAIT).unwrap();
        assert_eq!(windows(), 2);
        a.call(&query(1, 16), WAIT).unwrap();
        drop(hub.shutdown());
        let snapshot = telemetry.snapshot();
        assert_eq!(
            flushes(&snapshot),
            Flushes {
                complete: 7,
                window: 2,
                ..Flushes::default()
            }
        );
        assert_eq!(occupancy(&snapshot), (9, 9));
    }
}
