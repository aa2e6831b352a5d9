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
//!   (retry/reconnect,      (= mkse_protocol::    (FrameBuffer,             (single writer: owns the
//!    backoff, at-most-once; Client<Link>: the     per-conn gate,            Service + batcher,
//!    the typed calls)       one pipelined         hub-wide budget,          demultiplexes replies,
//!                           client) │             idle/size hygiene)        sheds → Overloaded)
//!                                   ▼
//!                              FaultyLink (optional seeded chaos wrapper)
//! ```
//!
//! The client itself, the frame reassembler and the links live in
//! `mkse-protocol` beside the codec — one client whether its transport is a
//! service in process or a link — and are re-exported here under the names
//! the transport has always used ([`NetClient`], [`FrameBuffer`], [`link`]).
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
//!                         ResilientClient per node (never resubmits a write)
//!                         reads: submit to every node, then complete each
//!                         (a group of k ≥ 1 = one BatchQuery); writes: one by one
//!                               ▼                           ▼
//!                node hub ──▶ CloudServer     node hub ──▶ CloudServer   …
//!                (a forward is a BatchQuery, a barrier the node hub runs on
//!                 arrival; NodeRunner registers and beats over the control
//!                 plane, a beat carrying its node id alone)
//! ```
//!
//! The house invariant survives the fleet: every completed reply is
//! byte-identical to a single sequential server holding the whole corpus,
//! even across failovers — the oracle matrix's `fleet[nodes=3, kill]` and
//! `fleet[nodes=3, cascade]` rows prove it, holding every reply of a seeded
//! script to the sequential scan's model while byte budgets kill nodes.
//!
//! Each of the hub's behaviours is held once. Its core — batcher, shed,
//! fault, oversized frame, close and drain, the error frames' payloads
//! included — is `hub::tests::the_hub_core_scripts_enumerated`, scripted
//! events with no thread; the threaded hub is the oracle matrix's `hub-tcp`,
//! `hub-memory` and `chaos[…]` rows (`tests/oracle_matrix.rs`). This crate's
//! own threaded tests keep only what no script reaches: the reader shell's
//! idle close (a client owed a reply is not idle), and a budget slot given
//! back before its reply is written.

#![forbid(unsafe_code)]

pub mod client;
pub mod coordinator;
pub mod fault;
pub mod hub;
pub mod node;
pub mod resilient;

pub use client::{ClientError, NetClient};
pub use coordinator::{Coordinator, FleetConfig};
pub use fault::{FaultEvent, FaultHandle, FaultPlan, FaultyLink, FaultyReader, FaultyWriter};
pub use hub::{Hub, HubConfig, HubHandle, HubReport, JournalEntry, MemoryDialer};
pub use link::{memory_duplex, LinkReader, LinkWriter, MemoryLink, MemoryReader, MemoryWriter};
pub use mkse_protocol::{link, FrameBuffer};
pub use node::{NodeConfig, NodeRunner};
pub use resilient::{Connector, InFlight, ResilienceStats, ResilientClient, RetryPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_core::bitindex::BitIndex;
    use mkse_protocol::messages::{CacheReport, SearchReply};
    use mkse_protocol::{ProtocolError, TransportError};
    use mkse_protocol::{QueryMessage, Request, Response, Service};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{self, Receiver};
    use std::sync::Arc;
    use std::time::Duration;

    /// A stand-in service for the threaded shells the core's scripts do not
    /// reach (`hub::tests` holds the core): an empty search reply for every
    /// query, an ack for the rest, and a count of its calls.
    struct EchoService {
        calls: Arc<AtomicU64>,
        /// When set, the first call blocks until the sender signals or drops.
        hold: Option<Receiver<()>>,
    }

    impl EchoService {
        fn new() -> (EchoService, Arc<AtomicU64>) {
            let calls = Arc::new(AtomicU64::new(0));
            let service = EchoService {
                calls: calls.clone(),
                hold: None,
            };
            (service, calls)
        }
    }

    impl Service for EchoService {
        fn call(&mut self, request: Request) -> Response {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if let Some(hold) = self.hold.take() {
                let _ = hold.recv();
            }
            match request {
                Request::Query(_) => Response::Search(SearchReply {
                    matches: Vec::new(),
                    cache: CacheReport::default(),
                }),
                _ => Response::Ack,
            }
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

    #[test]
    fn idle_connection_is_reaped_with_typed_error() {
        let (service, _) = EchoService::new();
        let config = HubConfig {
            idle_timeout: Duration::from_millis(30),
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
    fn a_client_owed_a_reply_is_not_idle() {
        let (mut service, calls) = EchoService::new();
        let (release, hold) = mpsc::channel();
        service.hold = Some(hold);
        let idle = Duration::from_millis(30);
        let config = HubConfig {
            idle_timeout: idle,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        let mut client = NetClient::from_memory(hub.connect_memory());
        let id = client.submit(&query(1, 16));
        client.flush().unwrap();
        while calls.load(Ordering::SeqCst) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The service holds the query for several idle timeouts while the
        // reader polls: a client waiting on its reply is not idle.
        std::thread::sleep(4 * idle);
        release.send(()).unwrap();
        let reply = client.wait_take(id, WAIT).unwrap();
        assert!(matches!(reply, Response::Search(_)), "{reply:?}");
        // The connection is still open: the next query is answered, and no
        // idle-timeout error frame came first.
        let reply = client.call(&query(2, 16), WAIT).unwrap();
        assert!(matches!(reply, Response::Search(_)), "{reply:?}");
        assert_eq!(hub.shutdown().requests, 2);
    }

    #[test]
    fn a_sequential_client_is_never_shed_by_its_own_last_reply() {
        let (service, _) = EchoService::new();
        let config = HubConfig {
            max_hub_in_flight: 1,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(service, config);
        // The batcher gives a group's budget slots back before it writes the
        // replies: the next request, sent the moment the reply is read,
        // always finds the slot free.
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
}
