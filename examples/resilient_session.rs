//! The resilience layer end to end: resilient clients over **deterministic,
//! seeded faulty links** (connections that die after a byte budget, tear
//! writes, inject delays) complete a full query workload against one hub —
//! retrying and reconnecting transparently — and a second, budget-starved hub
//! demonstrates overload shedding with a typed `Overloaded` reply the client
//! honors as backoff.
//!
//! The report at the bottom prints the attempt-level accounting and renders
//! the new resilience telemetry (`retries`, `reconnects`, `sheds`,
//! `faults_injected` counters and the `backoff_wait` histogram) in both
//! Prometheus text and JSON, then asserts the conservation laws that make the
//! layer honest:
//!
//! - per client: `attempts == successes + sheds + link_faults`
//! - registry ↔ client: the shared telemetry registry agrees with the
//!   per-client stats (`retries`, `reconnects`, backoff samples)
//! - hub ↔ client: every shed the hub reports was observed by the client
//!
//! Run with: `cargo run --release --example resilient_session`

use mkse::core::{
    DocumentIndexer, QueryBuilder, SchemeKeys, SystemParams, Telemetry, TelemetryLevel,
};
use mkse::net::{
    Connector, FaultHandle, FaultPlan, FaultyLink, Hub, HubConfig, MemoryDialer, NetClient,
    ResilientClient, RetryPolicy,
};
use mkse::protocol::{
    render_json, render_prometheus, wire, CloudServer, QueryMessage, Request, Response,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 3;
const ROUNDS: usize = 4;

fn seeded_server(params: &SystemParams, indexer: &DocumentIndexer) -> CloudServer {
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
    let indices = (0..32u64)
        .map(|id| {
            let topic = topics[id as usize % topics.len()];
            indexer.index_keywords(id, &[topic, "common", "filler"])
        })
        .collect();
    let mut server = CloudServer::with_shards(params.clone(), 2);
    server.set_telemetry_level(TelemetryLevel::Counters);
    server.upload(indices, vec![]).expect("seed upload");
    server
}

/// A connector that wraps every fresh in-process connection in a seeded
/// [`FaultyLink`], mirroring injected faults into `registry`.
fn faulty_connector(
    dialer: MemoryDialer,
    base_seed: u64,
    kill_budget: u64,
    registry: Telemetry,
    handles: Arc<Mutex<Vec<FaultHandle>>>,
) -> Connector {
    Box::new(move |ordinal| {
        let (reader, writer) = dialer.connect().split();
        let plan = FaultPlan {
            kill_after_bytes: Some(kill_budget),
            torn_write_per_mille: 60,
            delay_per_mille: 100,
            max_delay_micros: 150,
            ..FaultPlan::healthy(base_seed.wrapping_add(ordinal))
        };
        let (r, w, h) = FaultyLink::wrap_with_telemetry(
            Box::new(reader),
            Box::new(writer),
            plan,
            Some(registry.clone()),
        );
        handles.lock().unwrap().push(h);
        Ok((Box::new(r), Box::new(w)))
    })
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

    // The client-side resilience registry, shared by every resilient client
    // and every faulty link: retries, reconnects, injected faults, backoff.
    let resilience = Telemetry::new();
    resilience.set_level(TelemetryLevel::Spans);

    // ── Phase 1: chaos — every link dies after ~3 query frames ─────────────
    let hub = Hub::spawn(
        seeded_server(&params, &indexer),
        HubConfig {
            batch_window: Duration::from_millis(2),
            batch_depth: 8,
            ..HubConfig::default()
        },
    );
    let frame_len = wire::encode_request(1, &Request::Query(queries[0].clone())).len() as u64;
    let kill_budget = frame_len * 3 + frame_len / 2;

    let workers: Vec<_> = (0..CLIENTS)
        .map(|k| {
            let handles = Arc::new(Mutex::new(Vec::new()));
            let connector = faulty_connector(
                hub.memory_dialer(),
                0xFEED + k as u64 * 997,
                kill_budget,
                resilience.clone(),
                handles.clone(),
            );
            let queries = queries.clone();
            let registry = resilience.clone();
            std::thread::spawn(move || {
                let mut client = ResilientClient::new(connector, RetryPolicy::default())
                    .with_first_request_id(k as u64 * 1_000_000 + 1)
                    .with_telemetry(registry);
                let mut matches = 0usize;
                for round in 0..ROUNDS {
                    for i in 0..queries.len() {
                        let q = &queries[(k + round + i) % queries.len()];
                        match client
                            .call(&Request::Query(q.clone()))
                            .expect("idempotent query survives chaos")
                        {
                            Response::Search(reply) => matches += reply.matches.len(),
                            other => panic!("expected Search, got {}", other.name()),
                        }
                    }
                }
                let faults: u64 = handles.lock().unwrap().iter().map(|h| h.faults()).sum();
                (client.stats(), client.wire_stats(), matches, faults)
            })
        })
        .collect();

    println!("=== chaos phase (kill budget {kill_budget} bytes/connection) ===");
    let mut totals = mkse::net::ResilienceStats::default();
    let mut faults_total = 0u64;
    let mut matches_total = 0usize;
    for (k, worker) in workers.into_iter().enumerate() {
        let (stats, wire_stats, matches, faults) = worker.join().expect("client thread");
        println!(
            "client {k}: {} attempts = {} completed + {} shed + {} link faults | \
             {} retries, {} reconnects, {} backoff sleeps ({} µs), {} µs blocked on replies",
            stats.attempts,
            stats.successes,
            stats.sheds,
            stats.link_faults,
            stats.retries,
            stats.reconnects,
            stats.backoff_waits,
            stats.backoff_ns / 1_000,
            wire_stats.wait_ns / 1_000,
        );
        assert_eq!(
            stats.attempts,
            stats.successes + stats.sheds + stats.link_faults,
            "client {k}: conservation law violated"
        );
        assert!(stats.reconnects >= 1, "the kill budget must have fired");
        assert_eq!(
            stats.successes,
            (ROUNDS * queries.len()) as u64,
            "client {k}: whole workload completed"
        );
        totals.attempts += stats.attempts;
        totals.successes += stats.successes;
        totals.sheds += stats.sheds;
        totals.link_faults += stats.link_faults;
        totals.retries += stats.retries;
        totals.reconnects += stats.reconnects;
        totals.backoff_waits += stats.backoff_waits;
        faults_total += faults;
        matches_total += matches;
    }
    assert!(matches_total > 0, "the workload must find documents");
    let chaos_report = hub.shutdown();
    assert_eq!(chaos_report.sheds, 0, "no budget pressure in this phase");
    assert_eq!(chaos_report.requests, totals.successes);

    // ── Phase 2: deterministic overload shed on a budget-starved hub ───────
    let pressure = Hub::spawn(
        seeded_server(&params, &indexer),
        HubConfig {
            max_hub_in_flight: 1,
            shed_retry_after: Duration::from_millis(2),
            batch_window: Duration::from_millis(300),
            batch_depth: 64,
            ..HubConfig::default()
        },
    );
    let shed_telemetry = {
        // Park one plain client's query in the batcher: it holds the only
        // budget slot for the whole 300 ms window. The batcher only holds a
        // group back for a connection that has been querying through it, so
        // with both connections open a bystander completes one query first
        // and then goes quiet — the occupant's query waits the window out
        // for it.
        let mut occupant = NetClient::from_memory(pressure.connect_memory());
        let mut bystander =
            NetClient::from_memory(pressure.connect_memory()).with_first_request_id(4_000_001);
        let warm = bystander
            .call(&Request::Query(queries[2].clone()), Duration::from_secs(30))
            .expect("bystander reply");
        assert!(matches!(warm, Response::Search(_)));
        let occupant_id = occupant.submit(&Request::Query(queries[0].clone()));
        occupant.flush().expect("flush occupant");
        while pressure.frames_accepted() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The resilient client's first attempt is guaranteed to shed; it
        // backs off (honoring retry_after) until the window flushes.
        let mut resilient = ResilientClient::new(
            Box::new({
                let dialer = pressure.memory_dialer();
                move |_| {
                    let (r, w) = dialer.connect().split();
                    Ok((
                        Box::new(r) as Box<dyn mkse::net::LinkReader>,
                        Box::new(w) as Box<dyn mkse::net::LinkWriter>,
                    ))
                }
            }),
            RetryPolicy {
                max_attempts: 200,
                ..RetryPolicy::default()
            },
        )
        .with_first_request_id(5_000_001)
        .with_telemetry(resilience.clone());
        let reply = resilient
            .call(&Request::Query(queries[1].clone()))
            .expect("shed query completes after backoff");
        assert!(matches!(reply, Response::Search(_)));
        let shed_stats = resilient.stats();
        assert!(shed_stats.sheds >= 1, "the stampede must have shed");
        assert_eq!(
            shed_stats.attempts,
            shed_stats.successes + shed_stats.sheds + shed_stats.link_faults
        );
        totals.attempts += shed_stats.attempts;
        totals.successes += shed_stats.successes;
        totals.sheds += shed_stats.sheds;
        totals.link_faults += shed_stats.link_faults;
        totals.retries += shed_stats.retries;
        totals.reconnects += shed_stats.reconnects;
        totals.backoff_waits += shed_stats.backoff_waits;
        occupant
            .wait_take(occupant_id, Duration::from_secs(30))
            .expect("occupant reply");
        println!(
            "\n=== shed phase ===\nresilient client: {} attempts, {} shed with retry-after hints, \
             then completed",
            shed_stats.attempts, shed_stats.sheds
        );
        let report = pressure.shutdown();
        assert_eq!(report.sheds, shed_stats.sheds, "hub and client agree");
        report
    };

    // ── The resilience report: Prometheus + JSON off the shared registry ───
    let snapshot = resilience.snapshot();
    println!("\n=== resilience registry (Prometheus) ===");
    let prom = render_prometheus(&snapshot);
    for line in prom.lines().filter(|l| {
        l.contains("retries")
            || l.contains("reconnects")
            || l.contains("sheds")
            || l.contains("faults_injected")
            || l.contains("backoff_wait")
    }) {
        println!("{line}");
    }
    println!("\n=== resilience registry (JSON) ===");
    println!("{}", render_json(&snapshot));

    // Registry ↔ client conservation: the shared registry agrees with the
    // per-client accounting, and the rendered text carries the new series.
    assert_eq!(snapshot.counter("retries"), totals.retries);
    assert_eq!(snapshot.counter("reconnects"), totals.reconnects);
    assert_eq!(snapshot.counter("faults_injected"), faults_total);
    let backoff = snapshot
        .histograms
        .iter()
        .find(|h| h.stage == "backoff_wait")
        .expect("backoff_wait histogram present");
    assert_eq!(backoff.count, totals.backoff_waits);
    for series in ["retries", "reconnects", "faults_injected"] {
        assert!(
            prom.contains(series),
            "Prometheus render must carry {series}"
        );
    }
    assert!(prom.contains("backoff_wait"));
    let json = render_json(&snapshot);
    for series in ["retries", "reconnects", "faults_injected", "backoff_wait"] {
        assert!(json.contains(series), "JSON render must carry {series}");
    }
    // Hub-side sheds land in the *server's* registry (phase 2 hub) and in its
    // report — already asserted equal to the client's count above.
    assert_eq!(
        shed_telemetry.requests, 3,
        "bystander + occupant + resilient query"
    );

    println!(
        "\nresilience: {} attempts = {} completed + {} shed + {} link faults \
         ({} faults injected, {} retries, {} reconnects) — all replies intact",
        totals.attempts,
        totals.successes,
        totals.sheds,
        totals.link_faults,
        faults_total,
        totals.retries,
        totals.reconnects,
    );
}
