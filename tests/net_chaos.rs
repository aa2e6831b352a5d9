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
//!   upload executed zero times (refused, typed `RetryUnsafe`) or exactly
//!   once (explicit at-least-once opt-in), and duplicates are *visible*
//!   server-side errors, never silent double-applies.
//! - **Replayability**: the same fault seed reproduces the same fault
//!   schedule, the same attempt accounting, and the same replies.

mod common;

use common::{assert_conservation, assert_replies_match_replay, replay_journal};
use mkse::core::QueryBuilder;
use mkse::net::{
    Connector, FaultEvent, FaultHandle, FaultPlan, FaultyLink, Hub, HubConfig, HubHandle,
    MemoryDialer, ResilienceStats, ResilientClient, RetryPolicy,
};
use mkse::protocol::{
    wire, CloudServer, DataOwner, OwnerConfig, ProtocolError, QueryMessage, Request, Response,
    UploadMessage,
};
use mkse::textproc::Document;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

struct Fixture {
    owner: DataOwner,
    queries: Vec<QueryMessage>,
    seed_upload: UploadMessage,
    /// An extra single-document upload (document id 1000), never part of the
    /// seed corpus — the at-most-once probe.
    extra_upload: UploadMessage,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(20812);
    let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
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
    let extra = Document::from_text(1000, "late arriving cloud audit notes under chaos");
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

/// An identically-initialized server: same params, shards, seed corpus and
/// cache setting as the one the hub owns.
fn seeded_server(fx: &Fixture, cache: bool) -> CloudServer {
    let mut server = CloudServer::with_shards(fx.owner.params().clone(), 2);
    server
        .upload(
            fx.seed_upload.indices.clone(),
            fx.seed_upload.documents.clone(),
        )
        .expect("seed upload");
    if cache {
        server.enable_result_cache(64);
    }
    server
}

/// A connector over the hub's in-process dialer that wraps every fresh
/// connection in a [`FaultyLink`] with a per-ordinal plan, collecting the
/// fault handles for later inspection.
fn chaos_connector(
    dialer: MemoryDialer,
    mut plan_for: impl FnMut(u64) -> FaultPlan + Send + 'static,
    handles: Arc<Mutex<Vec<FaultHandle>>>,
) -> Connector {
    Box::new(move |ordinal| {
        let (reader, writer) = dialer.connect().split();
        let (r, w, h) = FaultyLink::wrap(Box::new(reader), Box::new(writer), plan_for(ordinal));
        handles.lock().unwrap().push(h);
        Ok((Box::new(r), Box::new(w)))
    })
}

fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 24,
        base_backoff: Duration::from_micros(500),
        backoff_cap: Duration::from_millis(10),
        attempt_timeout: Duration::from_secs(3),
        request_deadline: Duration::from_secs(60),
        retry_non_idempotent: false,
        // Seeded jitter: deterministic per seed, so the same-seed
        // reproducibility oracle below still holds bit-for-bit.
        jitter_per_mille: 250,
        jitter_seed: 20812,
    }
}

/// Config A — kills, tears, delays (no corruption), cache off. Every client
/// completes its whole workload despite dying links, and every completed
/// reply is byte-identical to the sequential twin. Since a torn write is a
/// strict prefix and a kill truncates, no fault can manufacture a *different
/// valid* request — so the replies are also identical across clients and
/// rounds.
#[test]
fn killed_and_torn_links_never_change_completed_replies() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 3;
    let fx = Arc::new(fixture());
    let config = HubConfig {
        batch_window: Duration::from_millis(2),
        batch_depth: 4,
        journal: true,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(seeded_server(&fx, false), config);
    // Kill each connection after roughly three query frames, so every client
    // is guaranteed to lose links mid-run and reconnect.
    let frame_len = wire::encode_request(1, &Request::Query(fx.queries[0].clone())).len() as u64;
    let kill_budget = frame_len * 3 + frame_len / 2;

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
                    kill_after_bytes: Some(kill_budget),
                    torn_write_per_mille: 60,
                    delay_per_mille: 80,
                    max_delay_micros: 200,
                    ..FaultPlan::healthy(0xC0FFEE + k as u64 * 1013 + ordinal)
                },
                sink,
            );
            let mut client = ResilientClient::new(connector, chaos_policy())
                .with_first_request_id(k as u64 * 1_000_000 + 1);
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
    }

    let report = hub.shutdown();
    assert_eq!(report.sheds, 0);
    let expected = replay_journal(&mut seeded_server(&fx, false), &report.journal);
    assert_replies_match_replay(&all_received, &expected, "config A");

    // Queries-only workload over constant state: every client, every round,
    // must see the *same* reply for the same query.
    for client_replies in per_client.iter().skip(1) {
        assert_eq!(
            client_replies, &per_client[0],
            "clients diverged on identical queries"
        );
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
    let fx = Arc::new(fixture());
    let config = HubConfig {
        batch_window: Duration::from_millis(2),
        batch_depth: 4,
        journal: true,
        // A corrupted length prefix can leave the reader waiting for bytes
        // that will never come; reap it quickly.
        idle_timeout: Duration::from_millis(300),
        ..HubConfig::default()
    };
    let hub = Hub::spawn(seeded_server(&fx, true), config);

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
    let expected = replay_journal(&mut seeded_server(&fx, true), &report.journal);
    assert_replies_match_replay(&all_received, &expected, "config B");
}

/// The same fault seed reproduces the same chaos run: identical fault event
/// schedule, identical attempt accounting, identical replies.
#[test]
fn same_seed_reproduces_the_same_fault_schedule() {
    let fx = Arc::new(fixture());

    let run = |fx: &Fixture| -> (ResilienceStats, Vec<Vec<FaultEvent>>, Vec<Response>) {
        let config = HubConfig {
            batch_window: Duration::from_millis(2),
            journal: false,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(seeded_server(fx, false), config);
        let frame_len =
            wire::encode_request(1, &Request::Query(fx.queries[0].clone())).len() as u64;
        let handles = Arc::new(Mutex::new(Vec::new()));
        let connector = chaos_connector(
            hub.memory_dialer(),
            // No delays: the write-path schedule depends only on the op
            // sequence, which this single-threaded workload fixes exactly.
            move |ordinal| FaultPlan {
                kill_after_bytes: Some(frame_len * 2 + 7),
                torn_write_per_mille: 150,
                ..FaultPlan::healthy(7u64.wrapping_mul(0x9e37_79b9).wrapping_add(ordinal))
            },
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
/// with the explicit at-least-once opt-in it executes exactly once; and a
/// genuine duplicate is a *visible* server-side rejection, never a silent
/// double-apply.
#[test]
fn non_idempotent_requests_are_never_silently_duplicated() {
    let fx = fixture();
    let seed_docs = fx.seed_upload.indices.len() as u64;
    let config = HubConfig {
        journal: true,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(seeded_server(&fx, false), config);

    let documents_on_server = |hub: &HubHandle| -> u64 {
        let mut probe =
            ResilientClient::new(hub.memory_dialer().connector(), RetryPolicy::default())
                .with_first_request_id(9_000_000);
        match probe.call(&Request::ServerInfo).expect("server info") {
            Response::Info(info) => info.documents,
            other => panic!("unexpected reply {other:?}"),
        }
    };

    // Without opt-in: the first connection dies before a single byte, so the
    // upload cannot have reached the server — and the client still refuses
    // to resubmit it on its own authority.
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
        handles,
    );
    let mut cautious =
        ResilientClient::new(connector, chaos_policy()).with_first_request_id(1_000_001);
    let err = cautious
        .call(&Request::Upload(fx.extra_upload.clone()))
        .unwrap_err();
    assert!(
        matches!(
            err,
            mkse::net::ClientError::RetryUnsafe { op: "Upload", .. }
        ),
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

    // With the explicit opt-in: the first connection tears the upload frame
    // apart mid-flight (a strict prefix — the server cannot decode it), the
    // retry delivers it whole, and the server executes it exactly once.
    let handles = Arc::new(Mutex::new(Vec::new()));
    let connector = chaos_connector(
        hub.memory_dialer(),
        |ordinal| {
            if ordinal == 0 {
                FaultPlan {
                    kill_after_bytes: Some(40),
                    ..FaultPlan::healthy(2)
                }
            } else {
                FaultPlan::healthy(2)
            }
        },
        handles,
    );
    let policy = RetryPolicy {
        retry_non_idempotent: true,
        ..chaos_policy()
    };
    let mut opted = ResilientClient::new(connector, policy).with_first_request_id(2_000_001);
    let reply = opted
        .call(&Request::Upload(fx.extra_upload.clone()))
        .expect("at-least-once upload");
    assert!(matches!(reply, Response::Uploaded { .. }), "got {reply:?}");
    assert_eq!(opted.stats().retries, 1);
    assert_eq!(
        documents_on_server(&hub),
        seed_docs + 1,
        "exactly one execution"
    );

    // A true duplicate resubmission is visible: the server rejects it with a
    // typed store error and the document count does not move.
    let dup = opted
        .call(&Request::Upload(fx.extra_upload.clone()))
        .expect("duplicate upload completes (with an error reply)");
    assert!(
        matches!(dup, Response::Error(ProtocolError::Store(_))),
        "duplicate must be rejected visibly, got {dup:?}"
    );
    assert_eq!(documents_on_server(&hub), seed_docs + 1);

    // The journal shows exactly what executed: the torn first attempt never
    // appears; the successful upload and the rejected duplicate both do.
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
    let fx = Arc::new(fixture());
    let config = HubConfig {
        max_hub_in_flight: 2,
        shed_retry_after: Duration::from_millis(1),
        // A wide window parks admitted queries in the batcher, holding their
        // budget slots long enough that the synchronized stampede must shed.
        batch_window: Duration::from_millis(50),
        batch_depth: 2,
        journal: true,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(seeded_server(&fx, false), config);
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
                retry_non_idempotent: false,
                // Distinct seeds de-synchronize the stampede's retries.
                jitter_per_mille: 500,
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
    let expected = replay_journal(&mut seeded_server(&fx, false), &report.journal);
    assert_replies_match_replay(&all_received, &expected, "shed storm");
}
