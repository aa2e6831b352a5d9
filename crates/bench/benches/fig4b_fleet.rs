//! Fleet-cost sweep (`fig4b_fleet`), recorded in `BENCH_fleet.json`.
//!
//! A coordinator scatter-gathers a sequential top-10 query workload across
//! 1/2/3 registered shard-server nodes, with and without a **deterministic
//! seeded kill** of one node mid-workload. The sweep prices the fleet layer:
//! the coordination overhead of scatter-gather over one node (nodes=1 vs a
//! plain hub), how merge cost scales with fleet width, and what a failover
//! costs end to end — the killed node's shards re-ship from the coordinator's
//! mirror while the workload keeps completing.
//!
//! Before any configuration is timed, the same workload runs once with the
//! coordinator hub's journal on and every *completed* reply is asserted
//! identical to a sequential single-server twin replaying that journal
//! (fleet-control traffic skipped) — failover may cost retries and shipping,
//! it must never change an answer. The per-client conservation law and the
//! failover counters are asserted in the same pass. Smoke runs (`--test`)
//! never overwrite the committed record.

use criterion::{criterion_group, criterion_main, Criterion};
use mkse_bench::BenchFixture;
use mkse_core::{QueryBuilder, QueryIndex, RankedDocumentIndex, Telemetry};
use mkse_net::{
    Connector, Coordinator, FaultPlan, FaultyLink, FleetConfig, Hub, HubConfig, HubHandle,
    MemoryDialer, NodeConfig, NodeRunner, ResilienceStats, ResilientClient, RetryPolicy,
};
use mkse_protocol::{
    wire, BatchQueryMessage, CloudServer, NodeCapabilities, QueryMessage, Request, Response,
    Service, UploadMessage,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const FLEET_DOCS: usize = 8_000;
const POOL: usize = 8;
const GLOBAL_SHARDS: usize = 4;
const PER_RUN_CHECK: usize = 16;
const PER_RUN_TIMED: usize = 48;

/// One fleet shape: node count and whether node 1 is killed mid-workload.
/// Shard slots are fixed so node 1 always owns shards {0,1} when it has
/// company (and everything when alone).
#[derive(Clone, Copy)]
struct FleetShape {
    nodes: usize,
    failover: bool,
}

const SHAPES: [FleetShape; 5] = [
    FleetShape {
        nodes: 1,
        failover: false,
    },
    FleetShape {
        nodes: 2,
        failover: false,
    },
    FleetShape {
        nodes: 2,
        failover: true,
    },
    FleetShape {
        nodes: 3,
        failover: false,
    },
    FleetShape {
        nodes: 3,
        failover: true,
    },
];

/// Slots per node id for a fleet of `nodes`: node 1 capped at 2 shards when
/// it has survivors to fail over to, the last node unlimited.
fn slots_for(nodes: usize) -> Vec<(u64, u32)> {
    match nodes {
        1 => vec![(1, 0)],
        2 => vec![(1, 2), (2, 0)],
        _ => vec![(1, 2), (2, 1), (3, 0)],
    }
}

/// Ordinal 0 dies after `budget` written bytes, every reconnect is dead on
/// arrival: a machine lost for good, deterministically.
fn doomed_connector(dialer: MemoryDialer, budget: u64, seed: u64) -> Connector {
    Box::new(move |ordinal| {
        let (reader, writer) = dialer.connect().split();
        let plan = FaultPlan {
            kill_after_bytes: Some(if ordinal == 0 { budget } else { 0 }),
            ..FaultPlan::healthy(seed.wrapping_add(ordinal))
        };
        let (r, w, _handle) = FaultyLink::wrap(Box::new(reader), Box::new(writer), plan);
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

/// Round-robin placement: upload position `i` lands on shard
/// `i % GLOBAL_SHARDS`, so the per-node forward frame is computable exactly.
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

struct RunningFleet {
    hub: HubHandle,
    runners: Vec<NodeRunner>,
    telemetry: Telemetry,
}

/// Spawn the fleet, register every node, upload the corpus through the
/// coordinator. When `kill_budget` is set, node 1's data link dies after
/// that many bytes.
fn spawn_fleet(
    fixture: &BenchFixture,
    indices: &[RankedDocumentIndex],
    shape: FleetShape,
    kill_budget: Option<u64>,
    journal: bool,
    seed: u64,
) -> RunningFleet {
    let slot: Arc<Mutex<Option<MemoryDialer>>> = Arc::new(Mutex::new(None));
    let mut runners: Vec<NodeRunner> = slots_for(shape.nodes)
        .into_iter()
        .map(|(node_id, shard_slots)| {
            NodeRunner::spawn(
                fixture.params.clone(),
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
        fixture.params.clone(),
        FleetConfig {
            num_global_shards: GLOBAL_SHARDS,
            heartbeat_interval: Duration::from_millis(50),
            failure_deadline: Duration::from_secs(120),
            node_policy: RetryPolicy {
                max_attempts: 3,
                retry_non_idempotent: false,
                jitter_per_mille: 250,
                jitter_seed: seed,
                ..RetryPolicy::default()
            },
        },
    );
    for runner in &runners {
        let connector = match kill_budget {
            Some(budget) if runner.node_id() == 1 => {
                doomed_connector(runner.dialer(), budget, seed)
            }
            _ => runner.dialer().connector(),
        };
        coordinator.add_node(runner.node_id(), connector);
    }
    let telemetry = coordinator.telemetry_handle();
    let hub = Hub::spawn(
        coordinator,
        HubConfig {
            batch_window: Duration::from_micros(200),
            batch_depth: 16,
            journal,
            ..HubConfig::default()
        },
    );
    *slot.lock().unwrap() = Some(hub.memory_dialer());
    for runner in runners.iter_mut() {
        runner.register().expect("registration");
    }
    let mut uploader =
        ResilientClient::new(hub.memory_dialer().connector(), RetryPolicy::default())
            .with_first_request_id(9_000_001);
    let reply = uploader
        .call(&Request::Upload(UploadMessage {
            indices: indices.to_vec(),
            documents: vec![],
        }))
        .expect("seed upload");
    assert!(matches!(reply, Response::Uploaded { .. }));
    RunningFleet {
        hub,
        runners,
        telemetry,
    }
}

struct DriveOutcome {
    received: Vec<(u64, Response)>,
    stats: ResilienceStats,
    completed: u64,
}

/// One sequential client driving `per_run` queries through the coordinator.
fn drive(hub: &HubHandle, pool: &[QueryMessage], per_run: usize) -> DriveOutcome {
    let mut client = ResilientClient::new(
        hub.memory_dialer().connector(),
        RetryPolicy {
            max_attempts: 24,
            retry_non_idempotent: false,
            jitter_per_mille: 250,
            jitter_seed: 0xF1EE7,
            ..RetryPolicy::default()
        },
    )
    .with_first_request_id(1_000_001);
    let mut received = Vec::with_capacity(per_run);
    for i in 0..per_run {
        let q = &pool[i % pool.len()];
        let (id, reply) = client
            .call_traced(&Request::Query(q.clone()))
            .expect("queries are idempotent and survive failover");
        received.push((id, reply));
    }
    let stats = client.stats();
    assert_eq!(
        stats.attempts,
        stats.successes + stats.sheds + stats.link_faults,
        "conservation law violated: {stats:?}"
    );
    DriveOutcome {
        completed: received.len() as u64,
        received,
        stats,
    }
}

fn bench_fleet(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    let filtered_out = std::env::args()
        .skip(1)
        .any(|a| !a.starts_with('-') && !"fig4b_fleet".contains(a.as_str()));
    if filtered_out {
        return;
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = |id: &str, ns: f64| {
        if quick {
            println!("fig4b_fleet/{id}  ok (smoke run)");
        } else {
            println!("fig4b_fleet/{id}  time: {:.3} µs/completed query", ns / 1e3);
        }
    };

    let fixture = BenchFixture::new(FLEET_DOCS, 3, 11);
    let indexer = fixture.indexer();
    let indices = indexer.index_documents(&fixture.corpus.documents);
    let r = fixture.params.index_bits;
    let random_pool = fixture.keys.random_pool_trapdoors(&fixture.params);
    let mut rng = StdRng::seed_from_u64(41);
    let pool: Vec<QueryMessage> = fixture
        .query_keyword_pool(POOL)
        .iter()
        .map(|kws| {
            let kw_refs: Vec<&str> = kws.iter().map(|s| s.as_str()).collect();
            let trapdoors = fixture.keys.trapdoors_for(&fixture.params, &kw_refs);
            let q: QueryIndex = QueryBuilder::new(&fixture.params)
                .add_trapdoors(&trapdoors)
                .with_randomization(&random_pool)
                .build(&mut rng);
            QueryMessage {
                query: q.bits().clone(),
                top: Some(10),
            }
        })
        .collect();
    // The coordinator forwards a lone query as a one-member `BatchQuery`.
    let lone = Request::BatchQuery(BatchQueryMessage {
        queries: vec![pool[0].query.clone()],
        top: pool[0].top,
    });
    let q_len = wire::encode_request(1, &lone).len() as u64;
    // Node 1's kill budget: the seed-upload forward of its shards plus a
    // quarter of the workload's query forwards, then mid-frame death.
    let budget_for = |per_run: usize, nodes: usize| {
        let shards: &[usize] = if nodes == 1 { &[0, 1, 2, 3] } else { &[0, 1] };
        forward_len(&indices, shards) + (per_run as u64 / 4) * q_len + q_len / 2
    };

    let mut entries: Vec<String> = Vec::new();
    for shape in SHAPES {
        // Equivalence before timing: journal the run, replay it sequentially
        // on a single-server twin, compare every completed reply.
        let kill = shape
            .failover
            .then(|| budget_for(PER_RUN_CHECK, shape.nodes));
        let fleet = spawn_fleet(&fixture, &indices, shape, kill, true, 0xA5);
        let checked = drive(&fleet.hub, &pool, PER_RUN_CHECK);
        assert_eq!(
            checked.completed, PER_RUN_CHECK as u64,
            "nodes={} failover={}: failover may cost attempts, never answers",
            shape.nodes, shape.failover
        );
        let snapshot = fleet.telemetry.snapshot();
        assert_eq!(
            snapshot.counter("failovers"),
            u64::from(shape.failover),
            "nodes={} failover={}: failover accounting",
            shape.nodes,
            shape.failover
        );
        let hub_report = fleet.hub.shutdown();
        assert_eq!(hub_report.sheds, 0, "no budget pressure in this sweep");
        let mut twin = CloudServer::with_shards(fixture.params.clone(), GLOBAL_SHARDS);
        let mut expected = BTreeMap::new();
        for entry in &hub_report.journal {
            if matches!(
                entry.request,
                Request::RegisterNode(_) | Request::NodeHeartbeat(_) | Request::MetricsSnapshot
            ) {
                continue;
            }
            expected.insert(entry.request_id, twin.call(entry.request.clone()));
        }
        for (id, reply) in &checked.received {
            assert_eq!(
                Some(reply),
                expected.get(id),
                "nodes={} failover={}: completed reply #{id} diverged from \
                 sequential Service::call",
                shape.nodes,
                shape.failover
            );
        }
        for runner in fleet.runners {
            runner.shutdown();
        }

        // Timed rounds: whole runs against fresh fleets (registration and
        // upload excluded), best round kept; cost is per completed query.
        let rounds = if quick { 1 } else { 5 };
        let per_run = if quick { 2 } else { PER_RUN_TIMED };
        let mut best = f64::MAX;
        let mut last_stats = ResilienceStats::default();
        let mut last_snapshot = None;
        for round in 0..rounds {
            let kill = shape.failover.then(|| budget_for(per_run, shape.nodes));
            let fleet = spawn_fleet(
                &fixture,
                &indices,
                shape,
                kill,
                false,
                0xBEEF + round as u64,
            );
            let start = Instant::now();
            let outcome = drive(&fleet.hub, &pool, per_run);
            let elapsed = start.elapsed().as_nanos() as f64;
            best = best.min(elapsed / outcome.completed.max(1) as f64);
            last_stats = outcome.stats;
            last_snapshot = Some(fleet.telemetry.snapshot());
            fleet.hub.shutdown();
            for runner in fleet.runners {
                runner.shutdown();
            }
        }
        let snapshot = last_snapshot.expect("at least one round");
        let ns = if quick { 0.0 } else { best };
        let mode = if shape.failover { "failover" } else { "steady" };
        report(&format!("{mode}/nodes_{}", shape.nodes), ns);
        entries.push(format!(
            "    {{\"nodes\": {}, \"failover\": {}, \"ns_per_completed\": {ns:.1}, \
             \"completed\": {per_run}, \"attempts\": {}, \"retries\": {}, \
             \"reconnects\": {}, \"link_faults\": {}, \"failovers\": {}, \
             \"shards_reassigned\": {}}}",
            shape.nodes,
            shape.failover,
            last_stats.attempts,
            last_stats.retries,
            last_stats.reconnects,
            last_stats.link_faults,
            snapshot.counter("failovers"),
            snapshot.counter("shards_reassigned"),
        ));
    }
    println!();

    if quick {
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"fig4b_fleet\",\n  \"docs\": {FLEET_DOCS},\n  \"r\": {r},\n  \
         \"eta\": {},\n  \"host_cores\": {host_cores},\n  \"global_shards\": {GLOBAL_SHARDS},\n  \
         \"queries_per_run\": {PER_RUN_TIMED},\n  \"query_frame_bytes\": {q_len},\n  \
         \"entries\": [\n{}\n  ]\n}}\n",
        fixture.params.rank_levels(),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("fig4b_fleet: wrote {path}"),
        Err(e) => eprintln!("fig4b_fleet: could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
