//! The resilience oracle: N `ResilientClient`s drive one hub through
//! **deterministic seeded fault plans** — links that die after a byte budget,
//! tear writes into prefixes, delay deliveries, flip bits — and everything a
//! client *completed* must still be byte-identical to the sequential twin
//! replaying the hub's execution journal. Chaos may cost retries and
//! reconnects; it must never change an answer.
//!
//! Three more laws are asserted on top of the equivalence oracle:
//!
//! - **Conservation**: per client, `attempts == successes + sheds +
//!   link_faults` — every attempt is accounted to exactly one outcome.
//! - **At-most-once**: a non-idempotent request that dies mid-flight is
//!   *never* silently resubmitted; server-side document counts prove the
//!   upload executed zero times (refused, typed `RetryUnsafe`) or, sent over
//!   a clean link, exactly once, and duplicates are *visible* server-side
//!   errors, never silent double-applies.
//! - **Replayability**: the same fault seed reproduces the same fault
//!   schedule, the same attempt accounting, and the same replies.

use mkse::core::{Telemetry, TelemetryLevel};
use mkse::net::{
    ClientError, FaultEvent, FaultPlan, Hub, HubConfig, HubHandle, ResilienceStats,
    ResilientClient, RetryPolicy,
};
use mkse::protocol::{
    render_json, render_prometheus, ProtocolError, Request, Response, TypedCalls,
};
use mkse_testkit::{
    assert_conservation, assert_replies_match_replay, chaos_connector, fixture, frame_len,
    replay_journal, Fixture,
};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

/// The seed corpus, its queries, and one extra single-document upload
/// (document id 1000), never part of the seed corpus — the at-most-once
/// probe.
fn corpus() -> Fixture {
    let texts = [
        "cloud privacy search encryption audit",
        "weather forecast rain and wind",
        "cloud storage pricing enterprise",
        "encrypted archive migration cloud",
        "audit of encryption key management",
        "privacy impact assessment cloud data",
        "searchable encryption design notes",
        "cloud audit logging pipeline",
    ];
    let keyword_sets: [&[&str]; 4] = [&["cloud"], &["audit"], &["cloud", "audit"], &["privacy"]];
    let extra = (1000, "late arriving cloud audit notes under chaos");
    fixture(20812, &texts, &keyword_sets, &[extra])
}

fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 24,
        base_backoff: Duration::from_micros(500),
        backoff_cap: Duration::from_millis(10),
        attempt_timeout: Duration::from_secs(3),
        request_deadline: Duration::from_secs(60),
        // Seeded jitter: deterministic per seed, so the same-seed
        // reproducibility oracle below still holds bit-for-bit.
        jitter_seed: 20812,
    }
}

/// Config A — kills, tears, delays (no corruption), cache off. Every client
/// completes its whole workload despite dying links, and every completed
/// reply is byte-identical to the sequential twin. Since a torn write is a
/// strict prefix and a kill truncates, no fault can manufacture a *different
/// valid* request — so the replies are also identical across clients and
/// rounds, and every query executed exactly once. The clients and their
/// links share one registry, which must agree with the clients' own
/// accounting and carry the resilience series into both renders.
#[test]
fn killed_and_torn_links_never_change_completed_replies() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    let fx = Arc::new(corpus());
    let config = HubConfig {
        batch_window: Duration::from_millis(2),
        batch_depth: 4,
        journal: true,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(fx.server(2, false), config);
    // Kill each connection after roughly three query frames, so every client
    // is guaranteed to lose links mid-run and reconnect.
    let frame = frame_len(&Request::Query(fx.queries[0].clone()));
    let kill_budget = frame * 3 + frame / 2;
    let registry = Telemetry::new();
    registry.set_level(TelemetryLevel::Spans);

    let mut workers = Vec::new();
    for k in 0..CLIENTS {
        let dialer = hub.memory_dialer();
        let fx = fx.clone();
        let registry = registry.clone();
        let handles = Arc::new(Mutex::new(Vec::new()));
        let sink = handles.clone();
        workers.push(std::thread::spawn(move || {
            let connector = chaos_connector(
                dialer,
                move |ordinal| FaultPlan {
                    kill_after_bytes: Some(kill_budget),
                    torn_write_per_mille: 60,
                    delay_per_mille: 80,
                    max_delay_micros: 200,
                    ..FaultPlan::healthy(0xC0FFEE + k as u64 * 1013 + ordinal)
                },
                Some(registry.clone()),
                sink,
            );
            let mut client = ResilientClient::new(connector, chaos_policy())
                .with_first_request_id(k as u64 * 1_000_000 + 1)
                .with_telemetry(registry);
            let mut received = Vec::new();
            for _ in 0..ROUNDS {
                for q in fx.queries.iter() {
                    let (id, reply) = client
                        .call_traced(&Request::Query(q.clone()))
                        .expect("idempotent query must survive chaos");
                    received.push((id, reply));
                }
            }
            let faults: u64 = handles.lock().unwrap().iter().map(|h| h.faults()).sum();
            (received, client.stats(), faults)
        }));
    }

    let mut all_received = Vec::new();
    let mut per_client: Vec<Vec<Response>> = Vec::new();
    let mut totals = ResilienceStats::default();
    let mut faults_total = 0;
    for (k, worker) in workers.into_iter().enumerate() {
        let (received, stats, faults) = worker.join().expect("client thread");
        assert_conservation(&stats, &format!("client {k}"));
        assert_eq!(stats.sheds, 0, "no budget pressure in this scenario");
        assert!(
            stats.reconnects >= 1,
            "client {k}: the kill budget must have fired at least once: {stats:?}"
        );
        assert!(faults >= 1, "client {k}: no fault ever injected");
        assert_eq!(
            received.len(),
            ROUNDS * fx.queries.len(),
            "client {k} completed its whole workload"
        );
        per_client.push(received.iter().map(|(_, r)| r.clone()).collect());
        all_received.extend(received);
        totals.successes += stats.successes;
        totals.retries += stats.retries;
        totals.reconnects += stats.reconnects;
        totals.backoff_waits += stats.backoff_waits;
        faults_total += faults;
    }

    let report = hub.shutdown();
    assert_eq!(report.sheds, 0);
    assert_eq!(
        report.requests, totals.successes,
        "a killed or torn request never arrives whole: each query ran once"
    );
    let expected = replay_journal(&mut fx.server(2, false), &report.journal);
    assert_replies_match_replay(&all_received, &expected, "config A");

    // Queries-only workload over constant state: every client, every round,
    // must see the *same* reply for the same query.
    for client_replies in per_client.iter().skip(1) {
        assert_eq!(
            client_replies, &per_client[0],
            "clients diverged on identical queries"
        );
    }
    let found = (per_client[0].iter())
        .filter_map(|reply| reply.clone().into_search().ok())
        .any(|reply| !reply.matches.is_empty());
    assert!(found, "the workload must find documents");

    // Registry ↔ client conservation, and the series reach both renders.
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("retries"), totals.retries);
    assert_eq!(snapshot.counter("reconnects"), totals.reconnects);
    assert_eq!(snapshot.counter("faults_injected"), faults_total);
    let backoff = (snapshot.histograms.iter())
        .find(|h| h.stage == "backoff_wait")
        .expect("backoff_wait histogram present");
    assert_eq!(backoff.count, totals.backoff_waits);
    let (prometheus, json) = (render_prometheus(&snapshot), render_json(&snapshot));
    for series in ["retries", "reconnects", "faults_injected", "backoff_wait"] {
        assert!(
            prometheus.contains(series),
            "Prometheus render lacks {series}"
        );
        assert!(json.contains(series), "JSON render lacks {series}");
    }
}

/// Config B — adds write-path bit corruption, with the result cache on. A
/// corrupted frame may decode as garbage (typed codec error, connection
/// poisoned) or even as a *different valid request* (which then executes and
/// is journaled as what actually ran) — either way, every reply a client
/// completed must match the sequential twin replaying the journal.
#[test]
fn corrupting_links_with_cache_keep_journal_equivalence() {
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 3;
    let fx = Arc::new(corpus());
    let config = HubConfig {
        batch_window: Duration::from_millis(2),
        batch_depth: 4,
        journal: true,
        // A corrupted length prefix can leave the reader waiting for bytes
        // that will never come; reap it quickly.
        idle_timeout: Duration::from_millis(300),
        ..HubConfig::default()
    };
    let hub = Hub::spawn(fx.server(2, true), config);

    let mut workers = Vec::new();
    for k in 0..CLIENTS {
        let dialer = hub.memory_dialer();
        let fx = fx.clone();
        let handles = Arc::new(Mutex::new(Vec::new()));
        let sink = handles.clone();
        workers.push(std::thread::spawn(move || {
            let connector = chaos_connector(
                dialer,
                move |ordinal| FaultPlan {
                    corrupt_write_per_mille: 40,
                    torn_write_per_mille: 30,
                    ..FaultPlan::healthy(0xBADC0DE + k as u64 * 733 + ordinal)
                },
                None,
                sink,
            );
            let policy = RetryPolicy {
                // Lost replies (corrupted request ids) should be declared
                // dead quickly, not after seconds.
                attempt_timeout: Duration::from_millis(700),
                ..chaos_policy()
            };
            let mut client = ResilientClient::new(connector, policy)
                .with_first_request_id(k as u64 * 1_000_000 + 1);
            let mut received = Vec::new();
            let mut give_ups = 0u64;
            for _ in 0..ROUNDS {
                for q in fx.queries.iter() {
                    match client.call_traced(&Request::Query(q.clone())) {
                        Ok((id, reply)) => received.push((id, reply)),
                        // A query can exhaust its (generous) budget under
                        // sustained corruption; that is a visible failure,
                        // never a wrong answer.
                        Err(_) => give_ups += 1,
                    }
                }
            }
            (received, client.stats(), give_ups)
        }));
    }

    let mut all_received = Vec::new();
    let mut completed = 0u64;
    for (k, worker) in workers.into_iter().enumerate() {
        let (received, stats, give_ups) = worker.join().expect("client thread");
        assert_conservation(&stats, &format!("client {k}"));
        assert_eq!(
            received.len() as u64 + give_ups,
            (ROUNDS * fx.queries.len()) as u64
        );
        completed += received.len() as u64;
        all_received.extend(received);
    }
    assert!(
        completed > 0,
        "corruption rate is mild; most calls complete"
    );

    let report = hub.shutdown();
    let expected = replay_journal(&mut fx.server(2, true), &report.journal);
    assert_replies_match_replay(&all_received, &expected, "config B");
}

/// The same fault seed reproduces the same chaos run: identical fault event
/// schedule, identical attempt accounting, identical replies.
#[test]
fn same_seed_reproduces_the_same_fault_schedule() {
    let fx = Arc::new(corpus());

    let run = |fx: &Fixture| -> (ResilienceStats, Vec<Vec<FaultEvent>>, Vec<Response>) {
        let config = HubConfig {
            batch_window: Duration::from_millis(2),
            journal: false,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(fx.server(2, false), config);
        let frame = frame_len(&Request::Query(fx.queries[0].clone()));
        let handles = Arc::new(Mutex::new(Vec::new()));
        let connector = chaos_connector(
            hub.memory_dialer(),
            // No delays: the write-path schedule depends only on the op
            // sequence, which this single-threaded workload fixes exactly.
            move |ordinal| FaultPlan {
                kill_after_bytes: Some(frame * 2 + 7),
                torn_write_per_mille: 150,
                ..FaultPlan::healthy(7u64.wrapping_mul(0x9e37_79b9).wrapping_add(ordinal))
            },
            None,
            handles.clone(),
        );
        let mut client = ResilientClient::new(connector, chaos_policy());
        let mut replies = Vec::new();
        for _ in 0..3 {
            for q in fx.queries.iter() {
                replies.push(client.call(&Request::Query(q.clone())).expect("completes"));
            }
        }
        let stats = client.stats();
        drop(client);
        drop(hub.shutdown());
        let logs = handles.lock().unwrap().iter().map(|h| h.log()).collect();
        (stats, logs, replies)
    };

    let (stats_a, logs_a, replies_a) = run(&fx);
    let (stats_b, logs_b, replies_b) = run(&fx);
    assert!(
        logs_a.iter().any(|log| !log.is_empty()),
        "the plan must actually fire"
    );
    assert_eq!(stats_a, stats_b, "same seed, same attempt accounting");
    assert_eq!(logs_a, logs_b, "same seed, same fault schedule");
    assert_eq!(replies_a, replies_b, "same seed, same replies");
}

/// At-most-once, proven server-side: an upload whose link dies mid-flight is
/// refused (`RetryUnsafe`) and the document count shows it never executed;
/// sent over a clean link it executes exactly once; and a genuine duplicate
/// is a *visible* server-side rejection, never a silent double-apply.
#[test]
fn non_idempotent_requests_are_never_silently_duplicated() {
    let fx = corpus();
    let seed_docs = fx.seed_upload.indices.len() as u64;
    let config = HubConfig {
        journal: true,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(fx.server(2, false), config);

    let documents_on_server = |hub: &HubHandle| -> u64 {
        let mut probe =
            ResilientClient::new(hub.memory_dialer().connector(), RetryPolicy::default())
                .with_first_request_id(9_000_000);
        probe.server_info().expect("server info").documents
    };

    // The first connection dies before a single byte, so the upload cannot
    // have reached the server — and the client still refuses to resubmit it
    // on its own authority.
    let handles = Arc::new(Mutex::new(Vec::new()));
    let connector = chaos_connector(
        hub.memory_dialer(),
        |ordinal| {
            if ordinal == 0 {
                FaultPlan {
                    kill_after_bytes: Some(0),
                    ..FaultPlan::healthy(1)
                }
            } else {
                FaultPlan::healthy(1)
            }
        },
        None,
        handles,
    );
    let mut cautious =
        ResilientClient::new(connector, chaos_policy()).with_first_request_id(1_000_001);
    let err = cautious
        .call(&Request::Upload(fx.extra_uploads[0].clone()))
        .unwrap_err();
    assert!(
        matches!(err, ClientError::RetryUnsafe { op: "Upload", .. }),
        "got {err}"
    );
    let stats = cautious.stats();
    assert_conservation(&stats, "cautious");
    assert_eq!(stats.retries, 0, "never silently resubmitted");
    assert_eq!(stats.unsafe_aborts, 1);
    assert_eq!(
        documents_on_server(&hub),
        seed_docs,
        "upload never executed"
    );

    // Over a clean link the caller's own upload executes exactly once.
    let mut plain = ResilientClient::new(hub.memory_dialer().connector(), chaos_policy())
        .with_first_request_id(2_000_001);
    let extra = || fx.extra_uploads[0].clone();
    plain
        .upload(extra().indices, extra().documents)
        .expect("upload over a clean link");
    assert_eq!(plain.stats().retries, 0);
    assert_eq!(
        documents_on_server(&hub),
        seed_docs + 1,
        "exactly one execution"
    );

    // A true duplicate resubmission is visible: the server rejects it with a
    // typed store error and the document count does not move.
    let dup = plain.upload(extra().indices, extra().documents);
    assert!(
        matches!(dup, Err(ClientError::Reply(ProtocolError::Store(_)))),
        "duplicate must be rejected visibly, got {dup:?}"
    );
    assert_eq!(documents_on_server(&hub), seed_docs + 1);

    // The journal shows exactly what executed: the killed first attempt
    // never appears; the successful upload and the rejected duplicate both
    // do.
    let report = hub.shutdown();
    let uploads = report
        .journal
        .iter()
        .filter(|e| matches!(e.request, Request::Upload(_)))
        .count();
    assert_eq!(uploads, 2, "one successful upload + one visible duplicate");
}

/// Overload shedding under a genuine stampede: a hub budget of two with six
/// synchronized clients. Excess queries are answered immediately with
/// `Overloaded` (never stalling the readers), resilient clients honor the
/// retry-after hint, and everyone completes with byte-identical replies —
/// sheds are never journaled, so the replay oracle is untouched.
#[test]
fn shed_storm_resolves_through_retries_with_identical_replies() {
    const CLIENTS: usize = 6;
    let fx = Arc::new(corpus());
    let config = HubConfig {
        max_hub_in_flight: 2,
        // A wide window parks admitted queries in the batcher, holding their
        // budget slots long enough that the synchronized stampede must shed.
        batch_window: Duration::from_millis(50),
        batch_depth: 2,
        journal: true,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(fx.server(2, false), config);
    let start = Arc::new(Barrier::new(CLIENTS));

    let mut workers = Vec::new();
    for k in 0..CLIENTS {
        let dialer = hub.memory_dialer();
        let fx = fx.clone();
        let start = start.clone();
        workers.push(std::thread::spawn(move || {
            let policy = RetryPolicy {
                max_attempts: 200,
                base_backoff: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(20),
                attempt_timeout: Duration::from_secs(5),
                request_deadline: Duration::from_secs(60),
                // Distinct seeds de-synchronize the stampede's retries.
                jitter_seed: 0x57A3 + k as u64,
            };
            let mut client = ResilientClient::new(dialer.connector(), policy)
                .with_first_request_id(k as u64 * 1_000_000 + 1);
            start.wait();
            let mut received = Vec::new();
            for q in fx.queries.iter() {
                let (id, reply) = client
                    .call_traced(&Request::Query(q.clone()))
                    .expect("every query completes despite shedding");
                assert!(
                    matches!(reply, Response::Search(_)),
                    "the final reply is a real answer, not a shed: {reply:?}"
                );
                received.push((id, reply));
            }
            (received, client.stats())
        }));
    }

    let mut all_received = Vec::new();
    let mut client_sheds = 0u64;
    for (k, worker) in workers.into_iter().enumerate() {
        let (received, stats) = worker.join().expect("client thread");
        assert_conservation(&stats, &format!("client {k}"));
        assert_eq!(stats.link_faults, 0, "clean links in this scenario");
        client_sheds += stats.sheds;
        all_received.extend(received);
    }

    let report = hub.shutdown();
    assert!(
        report.sheds > 0,
        "six synchronized clients against a budget of two must shed"
    );
    assert_eq!(
        client_sheds, report.sheds,
        "every shed the hub sent was observed (and retried) by a client"
    );
    assert_eq!(report.requests as usize, CLIENTS * fx.queries.len());
    assert_eq!(report.journal.len() as u64, report.requests);
    let expected = replay_journal(&mut fx.server(2, false), &report.journal);
    assert_replies_match_replay(&all_received, &expected, "shed storm");
}
