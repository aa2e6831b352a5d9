//! The shard fleet end to end: three shard-server nodes register with a
//! coordinator over the framed codec, a corpus uploads through the
//! coordinator (fanning out per node), and a seeded byte budget kills one
//! node's data link **mid-workload** — the coordinator fails it over by
//! re-shipping its shards from its mirror, and every completed reply
//! is still byte-identical to a sequential single-server twin replaying the
//! coordinator hub's journal.
//!
//! The report at the bottom prints the failover accounting and renders the
//! fleet telemetry (`nodes_registered`/`nodes_live` gauges, `failovers`,
//! `heartbeats_missed`, `shards_reassigned` counters) in both Prometheus text
//! and JSON.
//!
//! Run with: `cargo run --release --example fleet_session`

use mkse::core::{DocumentIndexer, QueryBuilder, RankedDocumentIndex, SchemeKeys, SystemParams};
use mkse::net::{
    Connector, Coordinator, FaultPlan, FaultyLink, FleetConfig, Hub, HubConfig, JournalEntry,
    MemoryDialer, NodeConfig, NodeRunner, ResilientClient, RetryPolicy,
};
use mkse::protocol::{
    render_json, render_prometheus, wire, BatchQueryMessage, CloudServer, NodeCapabilities,
    QueryMessage, Request, Response, Service, UploadMessage,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const GLOBAL_SHARDS: usize = 4;
const ROUNDS: usize = 3;

/// Ordinal 0 dies after `budget` written bytes; every reconnect is dead on
/// arrival — the machine is gone, not flaky.
fn doomed_connector(dialer: MemoryDialer, budget: u64) -> Connector {
    Box::new(move |ordinal| {
        let (reader, writer) = dialer.connect().split();
        let plan = FaultPlan {
            kill_after_bytes: Some(if ordinal == 0 { budget } else { 0 }),
            ..FaultPlan::healthy(0xF1EE7 + ordinal)
        };
        let (r, w, _) = FaultyLink::wrap(Box::new(reader), Box::new(writer), plan);
        Ok((Box::new(r) as _, Box::new(w) as _))
    })
}

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

/// Round-robin placement assigns upload position `i` to shard
/// `i % GLOBAL_SHARDS`; the coordinator's per-node forward carries exactly
/// the slices below, which makes the kill budget computable to the byte.
fn forward_len(indices: &[RankedDocumentIndex], shards: &[usize]) -> u64 {
    let slice: Vec<RankedDocumentIndex> = indices
        .iter()
        .enumerate()
        .filter(|(i, _)| shards.contains(&(i % GLOBAL_SHARDS)))
        .map(|(_, idx)| idx.clone())
        .collect();
    wire::encode_request(
        1,
        &Request::Upload(UploadMessage {
            indices: slice,
            documents: vec![],
        }),
    )
    .len() as u64
}

/// Replay the coordinator hub's journal on a sequential twin; fleet-control
/// traffic (registration, heartbeats, metrics) has no twin counterpart.
fn replay_journal(params: &SystemParams, journal: &[JournalEntry]) -> BTreeMap<u64, Response> {
    let mut twin = CloudServer::with_shards(params.clone(), GLOBAL_SHARDS);
    let mut expected = BTreeMap::new();
    for entry in journal {
        if matches!(
            entry.request,
            Request::RegisterNode(_) | Request::NodeHeartbeat(_) | Request::MetricsSnapshot
        ) {
            continue;
        }
        expected.insert(entry.request_id, twin.call(entry.request.clone()));
    }
    expected
}

fn main() {
    let params = SystemParams::default();
    let mut rng = StdRng::seed_from_u64(11);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let indexer = DocumentIndexer::new(&params, &keys);
    let pool = keys.random_pool_trapdoors(&params);
    let topics = [
        "alert",
        "invoice",
        "intrusion",
        "revenue",
        "backup",
        "audit",
        "phishing",
        "forecast",
    ];
    let indices: Vec<RankedDocumentIndex> = (0..32u64)
        .map(|id| {
            let topic = topics[id as usize % topics.len()];
            indexer.index_keywords(id, &[topic, "common", "filler"])
        })
        .collect();
    let queries: Vec<QueryMessage> = topics
        .iter()
        .map(|topic| {
            let query = QueryBuilder::new(&params)
                .add_trapdoors(&keys.trapdoors_for(&params, &[topic]))
                .with_randomization(&pool)
                .build(&mut rng);
            QueryMessage {
                query: query.bits().clone(),
                top: None,
            }
        })
        .collect();

    // ── Spawn the fleet: three nodes, one with a doomed data link ──────────
    let slot: Arc<Mutex<Option<MemoryDialer>>> = Arc::new(Mutex::new(None));
    let mut runners: Vec<NodeRunner> = [(1u64, 2u32), (2, 1), (3, 0)]
        .into_iter()
        .map(|(node_id, shard_slots)| {
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

    let mut coordinator = Coordinator::new(
        params.clone(),
        FleetConfig {
            num_global_shards: GLOBAL_SHARDS,
            heartbeat_interval: Duration::from_millis(50),
            failure_deadline: Duration::from_secs(120),
            node_policy: RetryPolicy {
                max_attempts: 3,
                retry_non_idempotent: false,
                jitter_per_mille: 250,
                jitter_seed: 0xF1EE7,
                ..RetryPolicy::default()
            },
        },
    );
    // Node 1 serves shards {0,1}: its link survives the seed-upload forward
    // plus five query forwards (each a one-member `BatchQuery`), then the
    // machine is lost mid-workload.
    let lone = Request::BatchQuery(BatchQueryMessage {
        queries: vec![queries[0].query.clone()],
        top: queries[0].top,
    });
    let q = wire::encode_request(1, &lone).len() as u64;
    let budget = forward_len(&indices, &[0, 1]) + 5 * q + q / 2;
    for runner in &runners {
        let connector = if runner.node_id() == 1 {
            doomed_connector(runner.dialer(), budget)
        } else {
            runner.dialer().connector()
        };
        coordinator.add_node(runner.node_id(), connector);
    }
    let telemetry = coordinator.telemetry_handle();
    let hub = Hub::spawn(
        coordinator,
        HubConfig {
            journal: true,
            ..HubConfig::default()
        },
    );
    *slot.lock().unwrap() = Some(hub.memory_dialer());

    println!("=== registration ===");
    for runner in runners.iter_mut() {
        let assignment = runner.register().expect("registration");
        println!(
            "node {} registered: shards {:?}, deadline {} ms",
            runner.node_id(),
            assignment.shards,
            assignment.failure_deadline_ms
        );
    }

    // ── The workload: upload through the coordinator, query until the kill ─
    let mut client = ResilientClient::new(
        hub.memory_dialer().connector(),
        RetryPolicy {
            max_attempts: 24,
            retry_non_idempotent: false,
            jitter_per_mille: 250,
            jitter_seed: 11,
            ..RetryPolicy::default()
        },
    )
    .with_first_request_id(1);
    let mut received = Vec::new();
    let (id, reply) = client
        .call_traced(&Request::Upload(UploadMessage {
            indices: indices.clone(),
            documents: vec![],
        }))
        .expect("seed upload");
    assert!(matches!(reply, Response::Uploaded { .. }));
    received.push((id, reply));

    let mut matches = 0usize;
    for round in 0..ROUNDS {
        for query in &queries {
            let (id, reply) = client
                .call_traced(&Request::Query(query.clone()))
                .expect("queries are idempotent and survive failover");
            if let Response::Search(r) = &reply {
                matches += r.matches.len();
            }
            received.push((id, reply));
        }
        // Survivors keep beating between rounds; the dead node is refused.
        for runner in runners.iter_mut() {
            match runner.heartbeat() {
                Ok(a) => println!(
                    "round {round}: node {} beats, shards {:?}",
                    runner.node_id(),
                    a.shards
                ),
                Err(e) => println!("round {round}: node {} refused: {e}", runner.node_id()),
            }
        }
    }
    let (id, info) = client.call_traced(&Request::ServerInfo).expect("info");
    if let Response::Info(i) = &info {
        assert_eq!(i.documents, indices.len() as u64, "corpus pinned");
        println!(
            "\ncorpus pinned after failover: {} documents across {} global shards",
            i.documents, i.shards
        );
    }
    received.push((id, info));
    let stats = client.stats();
    assert_eq!(
        stats.attempts,
        stats.successes + stats.sheds + stats.link_faults,
        "conservation law"
    );
    assert!(matches > 0, "the workload must find documents");

    // ── The oracle: twin replay of the coordinator hub's journal ───────────
    let report = hub.shutdown();
    let expected = replay_journal(&params, &report.journal);
    for (id, reply) in &received {
        let want = &expected[id];
        assert_eq!(reply, want, "reply #{id} diverged from the twin");
        assert_eq!(
            wire::encode_response(*id, reply),
            wire::encode_response(*id, want),
            "frame bytes #{id} diverged from the twin"
        );
    }
    for runner in runners {
        runner.shutdown();
    }

    // ── The fleet telemetry report ─────────────────────────────────────────
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counter("failovers"), 1, "one node lost");
    assert_eq!(snapshot.counter("shards_reassigned"), 2);
    println!("\n=== fleet registry (Prometheus) ===");
    let prom = render_prometheus(&snapshot);
    for line in prom.lines().filter(|l| {
        l.contains("nodes_") || l.contains("failover") || l.contains("shards_reassigned")
    }) {
        println!("{line}");
    }
    println!("\n=== fleet registry (JSON) ===");
    println!("{}", render_json(&snapshot));
    for series in [
        "nodes_registered",
        "nodes_live",
        "failovers",
        "heartbeats_missed",
        "shards_reassigned",
    ] {
        assert!(
            prom.contains(series),
            "Prometheus render must carry {series}"
        );
    }

    println!(
        "\nfleet: {} replies completed and twin-verified, {} matches, \
         1 node killed mid-workload, {} shards re-homed — all replies intact",
        received.len(),
        matches,
        snapshot.counter("shards_reassigned"),
    );
}
