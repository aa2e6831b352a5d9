//! The fleet oracle: a coordinator scatter-gathering over shard-server nodes
//! whose links die on **deterministic seeded byte budgets** — mid-query,
//! mid-failover, even during registration — and every reply a client
//! *completed* must still be byte-identical to a single sequential
//! `CloudServer` holding the whole corpus, replayed from the coordinator
//! hub's execution journal. Failover may cost retries and shard shipping; it
//! must never change an answer.
//!
//! On top of the equivalence oracle:
//!
//! - **Conservation** per client: `attempts == successes + sheds + link_faults`.
//! - **Corpus pinning**: after every failover, the *nodes'* summed document
//!   counts (`ServerInfo`) still equal the twin's — shard re-assignment
//!   restores the full corpus or the test fails.
//! - **At-most-once writes**: a forward that dies mid-flight fails the node
//!   over and re-ships from the mirror; the final document count proves no
//!   write ever applied twice.
//! - **Replayability**: the same seed reproduces the same kill schedule, the
//!   same failover accounting, and the same replies.

mod common;

use common::{assert_conservation, assert_replies_match_replay, counter, gauge, replay_journal};
use mkse::core::{serialize_store, QueryBuilder, RankedDocumentIndex, SystemParams};
use mkse::net::{
    Connector, Coordinator, FaultHandle, FaultPlan, FaultyLink, FleetConfig, Hub, HubConfig,
    MemoryDialer, NodeConfig, NodeError, NodeRunner, ResilienceStats, ResilientClient, RetryPolicy,
};
use mkse::protocol::{
    wire, BatchQueryMessage, CloudServer, DataOwner, DocumentRequest, NodeCapabilities,
    OwnerConfig, ProtocolError, QueryMessage, Request, Response, UploadMessage,
};
use mkse::textproc::Document;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const GLOBAL_SHARDS: usize = 4;

struct Fixture {
    owner: DataOwner,
    queries: Vec<QueryMessage>,
    seed_upload: UploadMessage,
    /// A single-document upload (id 1000), never part of the seed corpus —
    /// the fleet-wide at-most-once probe.
    extra_upload: UploadMessage,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(31_812);
    let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
    let texts = [
        "cloud privacy search encryption audit trail",
        "weather forecast rain and wind patterns",
        "cloud storage pricing enterprise tiers",
        "encrypted archive migration cloud plan",
        "audit of encryption key management duty",
        "privacy impact assessment cloud data flows",
        "searchable encryption design notes draft",
        "cloud audit logging pipeline review",
        "key rotation schedule audit findings",
        "cloud migration runbook and checklist",
        "privacy review of search telemetry",
        "encryption at rest for cloud archives",
        "audit report on storage access paths",
        "cloud capacity forecast for search",
        "privacy preserving ranked retrieval",
        "encrypted index maintenance procedures",
    ];
    let docs: Vec<Document> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| Document::from_text(i as u64, t))
        .collect();
    let (indices, encrypted) = owner.prepare_documents(&docs, &mut rng);
    let seed_upload = UploadMessage {
        indices,
        documents: encrypted,
    };
    let extra = Document::from_text(1000, "late arriving cloud audit notes under failover");
    let (indices, documents) = owner.prepare_documents(&[extra], &mut rng);
    let extra_upload = UploadMessage { indices, documents };

    let pool = owner.random_pool_trapdoors();
    let keyword_sets: [&[&str]; 4] = [&["cloud"], &["audit"], &["cloud", "audit"], &["privacy"]];
    let queries = keyword_sets
        .iter()
        .map(|kws| {
            let trapdoors = owner.scheme_keys().trapdoors_for(owner.params(), kws);
            let q = QueryBuilder::new(owner.params())
                .add_trapdoors(&trapdoors)
                .with_randomization(&pool)
                .build(&mut rng);
            QueryMessage {
                query: q.bits().clone(),
                top: None,
            }
        })
        .collect();
    Fixture {
        owner,
        queries,
        seed_upload,
        extra_upload,
    }
}

fn frame_len(request: &Request) -> u64 {
    wire::encode_request(1, request).len() as u64
}

/// The frame a client's lone query puts on a node's link: the coordinator
/// forwards it as a one-member `BatchQuery`.
fn forwarded_query_len(query: &QueryMessage) -> u64 {
    frame_len(&Request::BatchQuery(BatchQueryMessage {
        queries: vec![query.query.clone()],
        top: query.top,
    }))
}

/// The sequential single-server twin a coordinator hub's journal replays on.
fn twin(params: &SystemParams) -> CloudServer {
    CloudServer::with_shards(params.clone(), GLOBAL_SHARDS)
}

/// The indices that land on the given global shards: round-robin placement
/// assigns upload position `i` to shard `i % GLOBAL_SHARDS`, so the
/// coordinator's per-node forward (and its failover ship of one shard)
/// carries exactly these — which makes kill budgets computable to the byte.
fn shard_slice(indices: &[RankedDocumentIndex], shards: &[usize]) -> Vec<RankedDocumentIndex> {
    indices
        .iter()
        .enumerate()
        .filter(|(i, _)| shards.contains(&(i % GLOBAL_SHARDS)))
        .map(|(_, idx)| idx.clone())
        .collect()
}

fn forward_len(indices: &[RankedDocumentIndex], shards: &[usize]) -> u64 {
    frame_len(&Request::Upload(UploadMessage {
        indices: shard_slice(indices, shards),
        documents: vec![],
    }))
}

/// The one frame a ship of `shard` puts on the wire: the shard's documents,
/// in slot order, as a `RestoreIndex` of their snapshot bytes.
fn ship_len(params: &SystemParams, indices: &[RankedDocumentIndex], shard: usize) -> u64 {
    let snapshot = serialize_store(params, &shard_slice(indices, &[shard]));
    frame_len(&Request::RestoreIndex(snapshot))
}

/// Data-plane connector whose ordinal-0 link dies after `budget` written
/// bytes and whose every later link is dead on arrival — once the budget
/// fires, the node is gone for good (the "machine lost" model).
fn doomed_connector(
    dialer: MemoryDialer,
    budget: Option<u64>,
    seed: u64,
    handles: Arc<Mutex<Vec<FaultHandle>>>,
) -> Connector {
    Box::new(move |ordinal| {
        let (reader, writer) = dialer.connect().split();
        let Some(budget) = budget else {
            return Ok((Box::new(reader) as _, Box::new(writer) as _));
        };
        let plan = FaultPlan {
            kill_after_bytes: Some(if ordinal == 0 { budget } else { 0 }),
            ..FaultPlan::healthy(seed.wrapping_add(ordinal))
        };
        let (r, w, h) = FaultyLink::wrap(Box::new(reader), Box::new(writer), plan);
        handles.lock().unwrap().push(h);
        Ok((Box::new(r) as _, Box::new(w) as _))
    })
}

/// Connector that resolves the coordinator hub's dialer on first use, so
/// node runners can be spawned before the coordinator hub exists.
fn late_connector(slot: Arc<Mutex<Option<MemoryDialer>>>) -> Connector {
    Box::new(move |_ordinal| {
        let guard = slot.lock().unwrap();
        let dialer = guard
            .as_ref()
            .ok_or_else(|| std::io::Error::other("coordinator hub not up yet"))?;
        let (reader, writer) = dialer.connect().split();
        Ok((Box::new(reader) as _, Box::new(writer) as _))
    })
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        num_global_shards: GLOBAL_SHARDS,
        heartbeat_interval: Duration::from_millis(50),
        // Deaths in these tests come from dead links, never from the clock.
        failure_deadline: Duration::from_secs(120),
        node_policy: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(2),
            attempt_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            retry_non_idempotent: false,
            jitter_per_mille: 250,
            jitter_seed: 0xF1EE7,
        },
    }
}

fn client_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 24,
        base_backoff: Duration::from_micros(500),
        backoff_cap: Duration::from_millis(10),
        attempt_timeout: Duration::from_secs(10),
        request_deadline: Duration::from_secs(60),
        retry_non_idempotent: false,
        jitter_per_mille: 250,
        jitter_seed: 31_812,
    }
}

/// A running fleet: coordinator behind a journaling hub, node runners
/// registered through the wire, data links optionally doomed.
struct Fleet {
    hub: mkse::net::HubHandle,
    runners: Vec<NodeRunner>,
    telemetry: mkse::core::Telemetry,
    handles: Arc<Mutex<Vec<FaultHandle>>>,
}

/// `(node_id, shard_slots, kill_budget)` per node; `None` = clean link.
fn spawn_fleet(params: &SystemParams, nodes: &[(u64, u32, Option<u64>)], seed: u64) -> Fleet {
    spawn_fleet_with_window(params, nodes, seed, HubConfig::default().batch_window)
}

/// [`spawn_fleet`] with the coordinator hub's batch window chosen by the
/// caller (a long one makes concurrent clients' queries coalesce for sure).
fn spawn_fleet_with_window(
    params: &SystemParams,
    nodes: &[(u64, u32, Option<u64>)],
    seed: u64,
    batch_window: Duration,
) -> Fleet {
    let slot: Arc<Mutex<Option<MemoryDialer>>> = Arc::new(Mutex::new(None));
    let handles: Arc<Mutex<Vec<FaultHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let runners: Vec<NodeRunner> = nodes
        .iter()
        .map(|&(node_id, shard_slots, _)| {
            NodeRunner::spawn(
                params.clone(),
                NodeConfig {
                    node_id,
                    local_shards: 2,
                    capabilities: NodeCapabilities {
                        shard_slots,
                        scan_lanes: 2,
                        cache_capacity: 0,
                    },
                    ..NodeConfig::default()
                },
                late_connector(slot.clone()),
            )
        })
        .collect();
    let mut coordinator = Coordinator::new(params.clone(), fleet_config());
    for (runner, &(node_id, _, budget)) in runners.iter().zip(nodes) {
        coordinator.add_node(
            node_id,
            doomed_connector(
                runner.dialer(),
                budget,
                seed.wrapping_add(node_id.wrapping_mul(0x9e37)),
                handles.clone(),
            ),
        );
    }
    let telemetry = coordinator.telemetry_handle();
    let hub = Hub::spawn(
        coordinator,
        HubConfig {
            journal: true,
            batch_window,
            ..HubConfig::default()
        },
    );
    *slot.lock().unwrap() = Some(hub.memory_dialer());
    Fleet {
        hub,
        runners,
        telemetry,
        handles,
    }
}

/// A node killed by its seeded byte budget mid-workload: two concurrent
/// clients complete 100% of their idempotent requests — queries, a late
/// non-idempotent upload, a document fetch — and every completed reply is
/// byte-identical to the sequential twin. The summed node document counts pin
/// the corpus after failover, proving re-assignment restored every shard.
#[test]
fn node_killed_mid_workload_completes_everything_twin_identical() {
    const CLIENTS: usize = 2;
    const ROUNDS: usize = 3;
    let fx = Arc::new(fixture());
    let params = fx.owner.params().clone();
    let q = forwarded_query_len(&fx.queries[0]);
    // Node 1 serves shards {0,1}: its data link survives the seed-upload
    // forward plus six query frames, then the machine is lost.
    let budget1 = forward_len(&fx.seed_upload.indices, &[0, 1]) + 6 * q + q / 2;
    let fleet = spawn_fleet(
        &params,
        &[(1, 2, Some(budget1)), (2, 1, None), (3, 0, None)],
        0xC0FFEE,
    );
    let mut runners = fleet.runners;
    assert_eq!(runners[0].register().expect("node 1").shards, vec![0, 1]);
    assert_eq!(runners[1].register().expect("node 2").shards, vec![2]);
    assert_eq!(runners[2].register().expect("node 3").shards, vec![3]);

    // Seed the corpus through the coordinator (forwards fan out per node).
    let mut seeder = ResilientClient::new(fleet.hub.memory_dialer().connector(), client_policy())
        .with_first_request_id(9_000_001);
    let uploaded = seeder
        .call(&Request::Upload(fx.seed_upload.clone()))
        .expect("seed upload");
    assert!(matches!(uploaded, Response::Uploaded { .. }));

    let mut workers = Vec::new();
    for k in 0..CLIENTS {
        let dialer = fleet.hub.memory_dialer();
        let fx = fx.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = ResilientClient::new(dialer.connector(), client_policy())
                .with_first_request_id(k as u64 * 1_000_000 + 1);
            let mut received = Vec::new();
            for round in 0..ROUNDS {
                for query in fx.queries.iter() {
                    let (id, reply) = client
                        .call_traced(&Request::Query(query.clone()))
                        .expect("queries are idempotent and must survive failover");
                    assert!(matches!(reply, Response::Search(_)), "got {reply:?}");
                    received.push((id, reply));
                }
                if k == 0 && round == 0 {
                    // The at-most-once probe: a non-idempotent write lands
                    // exactly once even if its internal forward dies.
                    let (id, reply) = client
                        .call_traced(&Request::Upload(fx.extra_upload.clone()))
                        .expect("the client-side link is clean");
                    received.push((id, reply));
                }
                if k == 0 && round == 1 {
                    let (id, reply) = client
                        .call_traced(&Request::Documents(DocumentRequest {
                            document_ids: vec![0, 5, 1000],
                        }))
                        .expect("documents are served by the coordinator");
                    assert!(matches!(reply, Response::Documents(_)), "got {reply:?}");
                    received.push((id, reply));
                }
            }
            (received, client.stats())
        }));
    }
    let mut all_received = Vec::new();
    for (k, worker) in workers.into_iter().enumerate() {
        let (received, stats) = worker.join().expect("client thread");
        assert_conservation(&stats, &format!("client {k}"));
        assert_eq!(stats.link_faults, 0, "client links are clean");
        all_received.extend(received);
    }

    // Node 1 is gone; the survivors carry its shards and the whole corpus.
    let (id, info) = seeder
        .call_traced(&Request::ServerInfo)
        .expect("server info");
    match &info {
        Response::Info(i) => assert_eq!(
            i.documents,
            fx.seed_upload.indices.len() as u64 + 1,
            "corpus pinned: nodes' summed documents match seed + probe"
        ),
        other => panic!("unexpected reply {other:?}"),
    }
    all_received.push((id, info));
    assert_conservation(&seeder.stats(), "seeder");

    assert_eq!(counter(&fleet.telemetry, "failovers"), 1);
    assert_eq!(counter(&fleet.telemetry, "shards_reassigned"), 2);
    assert_eq!(counter(&fleet.telemetry, "heartbeats_missed"), 0);
    assert_eq!(gauge(&fleet.telemetry, "nodes_live"), 2);
    assert_eq!(gauge(&fleet.telemetry, "nodes_registered"), 3);
    let faults: u64 = fleet
        .handles
        .lock()
        .unwrap()
        .iter()
        .map(|h| h.faults())
        .sum();
    assert!(faults >= 1, "the kill budget must actually fire");

    // Live nodes still beat; the dead one is told to re-register.
    assert!(runners[1].heartbeat().is_ok());
    assert!(runners[2].heartbeat().is_ok());
    assert!(matches!(
        runners[0].heartbeat(),
        Err(NodeError::Refused(ProtocolError::Unsupported(_)))
    ));

    let report = fleet.hub.shutdown();
    assert_eq!(report.sheds, 0);
    let expected = replay_journal(&mut twin(&params), &report.journal);
    assert_replies_match_replay(&all_received, &expected, "mid-workload kill");
    for runner in runners {
        runner.shutdown();
    }
}

/// Invariants 8 and 10 together: two clients released in lockstep into a
/// coordinator hub with a long batch window, so their queries coalesce and
/// the coordinator forwards each pair as one fused `BatchQuery` — with mixed
/// `top` limits, and with node 1 killed on its byte budget partway through.
/// Replaying the coordinator hub's journal one `Service::call` at a time on
/// the single-node twin must reproduce every reply byte for byte.
#[test]
fn coalesced_groups_through_the_coordinator_hub_replay_twin_identical() {
    const CLIENTS: usize = 2;
    const ROUNDS: usize = 4;
    let fx = Arc::new(fixture());
    let params = fx.owner.params().clone();
    let q = forwarded_query_len(&fx.queries[0]);
    // Node 1 dies somewhere inside the run: fused forwards are wider than
    // `q`, so the budget lands mid-frame a few groups in.
    let budget1 = forward_len(&fx.seed_upload.indices, &[0, 1]) + 9 * q + q / 2;
    let fleet = spawn_fleet_with_window(
        &params,
        &[(1, 2, Some(budget1)), (2, 1, None), (3, 0, None)],
        0xF00D,
        Duration::from_millis(40),
    );
    let mut runners = fleet.runners;
    for runner in runners.iter_mut() {
        runner.register().expect("registration");
    }
    let mut seeder = ResilientClient::new(fleet.hub.memory_dialer().connector(), client_policy())
        .with_first_request_id(9_000_001);
    let uploaded = seeder
        .call(&Request::Upload(fx.seed_upload.clone()))
        .expect("seed upload");
    assert!(matches!(uploaded, Response::Uploaded { .. }));

    let start = Arc::new(std::sync::Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let dialer = fleet.hub.memory_dialer();
            let (fx, start) = (fx.clone(), start.clone());
            std::thread::spawn(move || {
                let mut client = ResilientClient::new(dialer.connector(), client_policy())
                    .with_first_request_id(k as u64 * 1_000_000 + 1);
                let tops = [None, Some(2), Some(5)];
                let mut received = Vec::new();
                for round in 0..ROUNDS {
                    for (i, query) in fx.queries.iter().enumerate() {
                        let message = QueryMessage {
                            top: tops[(round + i + k) % tops.len()],
                            ..query.clone()
                        };
                        // Lockstep: both frames reach the hub well inside
                        // one batch window.
                        start.wait();
                        received.push(
                            client
                                .call_traced(&Request::Query(message))
                                .expect("queries survive the failover"),
                        );
                    }
                }
                (received, client.stats())
            })
        })
        .collect();
    let mut all_received = Vec::new();
    for (k, worker) in workers.into_iter().enumerate() {
        let (received, stats) = worker.join().expect("client thread");
        assert_conservation(&stats, &format!("client {k}"));
        all_received.extend(received);
    }
    let (id, info) = seeder
        .call_traced(&Request::ServerInfo)
        .expect("server info");
    match &info {
        Response::Info(i) => assert_eq!(i.documents, fx.seed_upload.indices.len() as u64),
        other => panic!("unexpected reply {other:?}"),
    }
    all_received.push((id, info));

    // Groups of two really formed at the coordinator hub (its registry now
    // carries the hub's batcher series), and the kill really fired.
    let occupancy = fleet
        .telemetry
        .snapshot()
        .values
        .into_iter()
        .find(|v| v.series == "batch_occupancy")
        .expect("the coordinator hub records batch occupancy");
    assert!(
        occupancy.sum > occupancy.count,
        "no flush held two queries: {occupancy:?}"
    );
    assert_eq!(counter(&fleet.telemetry, "failovers"), 1);
    assert_eq!(counter(&fleet.telemetry, "shards_reassigned"), 2);

    let report = fleet.hub.shutdown();
    let expected = replay_journal(&mut twin(&params), &report.journal);
    assert_replies_match_replay(&all_received, &expected, "coalesced groups");
    for runner in runners {
        runner.shutdown();
    }
}

/// A survivor that dies *while receiving the failover shipment*: node 1's
/// budget fires mid-query and its shards must re-home. The first pick is
/// node 3 — registered last, granted nothing, so the shipment is the first
/// byte it ever receives and its budget (half the ship frame) kills it
/// mid-shipment. The cascade retries onto node 2, which ends up holding
/// everything. Two failovers, one of them mid-failover, and every completed
/// reply still matches the twin.
#[test]
fn survivor_killed_mid_failover_cascades_to_the_last_node() {
    const ROUNDS: usize = 2;
    let fx = fixture();
    let params = fx.owner.params().clone();
    let q = forwarded_query_len(&fx.queries[0]);
    // Node 1 ({0,1}): dies on its third query frame.
    let budget1 = forward_len(&fx.seed_upload.indices, &[0, 1]) + 2 * q + q / 2;
    // Node 3 (empty): the failover ship of shard 0 — one restore frame — is
    // the first traffic on its link; half of it is a mid-frame kill by
    // construction.
    let ship0 = ship_len(&params, &fx.seed_upload.indices, 0);
    let fleet = spawn_fleet(
        &params,
        &[(1, 2, Some(budget1)), (2, 0, None), (3, 0, Some(ship0 / 2))],
        0xDEAD,
    );
    let mut runners = fleet.runners;
    assert_eq!(runners[0].register().expect("node 1").shards, vec![0, 1]);
    assert_eq!(runners[1].register().expect("node 2").shards, vec![2, 3]);
    assert_eq!(
        runners[2].register().expect("node 3").shards,
        Vec::<u32>::new(),
        "node 3 joins after every shard is owned: the fewest-shards failover \
         target by construction"
    );

    let mut client = ResilientClient::new(fleet.hub.memory_dialer().connector(), client_policy())
        .with_first_request_id(1);
    let mut received = Vec::new();
    let (id, reply) = client
        .call_traced(&Request::Upload(fx.seed_upload.clone()))
        .expect("seed upload");
    assert!(matches!(reply, Response::Uploaded { .. }));
    received.push((id, reply));
    for _ in 0..ROUNDS {
        for query in fx.queries.iter() {
            let (id, reply) = client
                .call_traced(&Request::Query(query.clone()))
                .expect("queries survive the cascade");
            received.push((id, reply));
        }
    }
    let (id, info) = client.call_traced(&Request::ServerInfo).expect("info");
    match &info {
        Response::Info(i) => assert_eq!(i.documents, fx.seed_upload.indices.len() as u64),
        other => panic!("unexpected reply {other:?}"),
    }
    received.push((id, info));
    assert_conservation(&client.stats(), "client");

    assert_eq!(
        counter(&fleet.telemetry, "failovers"),
        2,
        "node 1's death plus node 3's death mid-shipment"
    );
    assert_eq!(
        counter(&fleet.telemetry, "shards_reassigned"),
        2,
        "shards 0 and 1 re-homed onto node 2 after the cascade (node 3 died \
         holding nothing)"
    );
    assert_eq!(gauge(&fleet.telemetry, "nodes_live"), 1);
    assert_eq!(
        runners[1].heartbeat().expect("last node standing").shards,
        vec![0, 1, 2, 3]
    );

    let report = fleet.hub.shutdown();
    let expected = replay_journal(&mut twin(&params), &report.journal);
    assert_replies_match_replay(&received, &expected, "mid-failover cascade");
    for runner in runners {
        runner.shutdown();
    }
}

/// A node whose data link is dead on arrival fails *during registration*:
/// the shard shipment is refused, the registration answers a typed error,
/// and the rest of the fleet serves the full corpus untouched.
#[test]
fn node_killed_during_registration_is_refused_and_fleet_serves_on() {
    let fx = fixture();
    let params = fx.owner.params().clone();
    let fleet = spawn_fleet(&params, &[(1, 0, Some(0)), (2, 0, None)], 0xBEEF);
    let mut runners = fleet.runners;

    // The corpus arrives before any node: it lives in the coordinator's
    // mirror and ships at registration time — straight into the dead link.
    let mut client = ResilientClient::new(fleet.hub.memory_dialer().connector(), client_policy())
        .with_first_request_id(1);
    let mut received = Vec::new();
    let (id, reply) = client
        .call_traced(&Request::Upload(fx.seed_upload.clone()))
        .expect("seed upload");
    assert!(matches!(reply, Response::Uploaded { .. }));
    received.push((id, reply));

    assert!(
        matches!(
            runners[0].register(),
            Err(NodeError::Refused(ProtocolError::Unsupported(_)))
        ),
        "registration over a dead data link must fail visibly"
    );
    assert_eq!(
        runners[1].register().expect("healthy node").shards,
        vec![0, 1, 2, 3]
    );
    for query in fx.queries.iter() {
        let (id, reply) = client
            .call_traced(&Request::Query(query.clone()))
            .expect("the healthy node serves everything");
        received.push((id, reply));
    }
    let (id, info) = client.call_traced(&Request::ServerInfo).expect("info");
    match &info {
        Response::Info(i) => assert_eq!(i.documents, fx.seed_upload.indices.len() as u64),
        other => panic!("unexpected reply {other:?}"),
    }
    received.push((id, info));

    assert_eq!(counter(&fleet.telemetry, "failovers"), 1);
    assert_eq!(counter(&fleet.telemetry, "shards_reassigned"), 0);
    assert_eq!(gauge(&fleet.telemetry, "nodes_live"), 1);

    let report = fleet.hub.shutdown();
    let expected = replay_journal(&mut twin(&params), &report.journal);
    assert_replies_match_replay(&received, &expected, "registration kill");
    for runner in runners {
        runner.shutdown();
    }
}

/// The same seed reproduces the same fleet run: identical kill schedule,
/// identical failover accounting (the full coordinator metrics snapshot),
/// identical client stats, identical replies.
#[test]
fn same_seed_reproduces_the_same_failover_schedule() {
    let fx = Arc::new(fixture());
    let params = fx.owner.params().clone();

    let run = |seed: u64| -> (
        ResilienceStats,
        Vec<Response>,
        mkse::core::MetricsSnapshot,
        Vec<Vec<mkse::net::FaultEvent>>,
    ) {
        let q = forwarded_query_len(&fx.queries[0]);
        let budget1 = forward_len(&fx.seed_upload.indices, &[0, 1]) + 2 * q + q / 2;
        let fleet = spawn_fleet(
            &params,
            &[(1, 2, Some(budget1)), (2, 1, None), (3, 0, None)],
            seed,
        );
        let mut runners = fleet.runners;
        for runner in runners.iter_mut() {
            runner.register().expect("registration");
        }
        let mut client =
            ResilientClient::new(fleet.hub.memory_dialer().connector(), client_policy())
                .with_first_request_id(1);
        let mut replies = Vec::new();
        replies.push(
            client
                .call(&Request::Upload(fx.seed_upload.clone()))
                .expect("seed upload"),
        );
        for _ in 0..2 {
            for query in fx.queries.iter() {
                replies.push(
                    client
                        .call(&Request::Query(query.clone()))
                        .expect("completes"),
                );
            }
        }
        replies.push(client.call(&Request::ServerInfo).expect("info"));
        let stats = client.stats();
        drop(client);
        fleet.hub.shutdown();
        // Read the registry once the hub is quiet: it now carries the hub's
        // wire counters too, which trail each reply by a few instructions.
        let snapshot = fleet.telemetry.snapshot();
        for runner in runners {
            runner.shutdown();
        }
        let logs = fleet
            .handles
            .lock()
            .unwrap()
            .iter()
            .map(|h| h.log())
            .collect();
        (stats, replies, snapshot, logs)
    };

    let (stats_a, replies_a, metrics_a, logs_a) = run(0xA11CE);
    let (stats_b, replies_b, metrics_b, logs_b) = run(0xA11CE);
    assert!(
        logs_a
            .iter()
            .any(|log: &Vec<mkse::net::FaultEvent>| !log.is_empty()),
        "the kill schedule must actually fire"
    );
    assert_eq!(stats_a, stats_b, "same seed, same client accounting");
    assert_eq!(replies_a, replies_b, "same seed, same replies");
    assert_eq!(
        metrics_a, metrics_b,
        "same seed, same failover stats (counters, gauges)"
    );
    assert_eq!(logs_a, logs_b, "same seed, same fault schedule");

    let (_, replies_c, metrics_c, _) = run(0xB0B);
    assert_eq!(
        replies_a, replies_c,
        "a different seed may change the schedule, never an answer"
    );
    assert_eq!(
        metrics_c.counter("failovers"),
        metrics_a.counter("failovers"),
        "the byte budget, not the seed, decides the kill"
    );
}
