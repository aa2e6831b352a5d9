//! The transport-invisibility oracle: N concurrent socket clients (real TCP
//! **and** the in-process `MemoryLink` twin) hammer one hub with interleaved
//! single-query / batch-query / upload traffic, with the cross-client batcher
//! and the result cache toggled through all four combinations — and every
//! reply each client received must be **byte-identical** to what a twin
//! `CloudServer`, identically initialized and driven sequentially through
//! `Service::call`, answers for the same requests.
//!
//! The bridge between "concurrent" and "sequential" is the hub's execution
//! journal: the dispatcher thread executes requests in a total order and
//! records it. Replaying that journal on the twin reproduces not just the
//! replies but the full server state trajectory — so the final `Counters` and
//! `CacheStats` requests (issued through the hub like everything else) also
//! assert that the *cumulative* operation and cache counters are unchanged by
//! the transport and the batcher.

use mkse::core::QueryBuilder;
use mkse::net::{Hub, HubConfig, NetClient};
use mkse::protocol::{
    wire, BatchQueryMessage, CloudServer, DataOwner, OwnerConfig, QueryMessage, Request, Response,
    Service, UploadMessage,
};
use mkse::textproc::Document;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

struct Fixture {
    owner: DataOwner,
    queries: Vec<QueryMessage>,
    seed_upload: UploadMessage,
    /// One extra single-document upload per client, prepared up front so the
    /// client threads stay free of RNG state.
    client_uploads: Vec<UploadMessage>,
}

fn fixture(clients: usize) -> Fixture {
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

    let client_uploads = (0..clients)
        .map(|k| {
            let doc = Document::from_text(
                1000 + k as u64,
                "late arriving cloud audit notes from a busy client",
            );
            let (indices, documents) = owner.prepare_documents(&[doc], &mut rng);
            UploadMessage { indices, documents }
        })
        .collect();

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
        client_uploads,
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

/// The literal frame bytes a client would receive for `response` under `id`.
fn reply_bytes(id: u64, response: &Response) -> Vec<u8> {
    wire::encode_response(id, response)
}

/// The interleaved workload one client runs: a pipelined burst of queries,
/// a batch-query message, an upload (a batcher barrier), then the same
/// queries again so a warm cache answers repeats. Returns every
/// (request id, reply) pair in the order the replies were taken.
fn run_client(
    mut client: NetClient,
    queries: &[QueryMessage],
    upload: &UploadMessage,
) -> Vec<(u64, Response)> {
    let mut replies = Vec::new();

    // Pipelined burst: submit the whole window, flush once, take in order.
    let ids: Vec<u64> = queries
        .iter()
        .map(|q| client.submit(&Request::Query(q.clone())))
        .collect();
    client.flush().expect("flush query burst");
    for id in ids {
        let reply = client.wait_take(id, WAIT).expect("query reply");
        replies.push((id, reply));
    }

    // The batched envelope surface travels through the hub too.
    let batch = Request::BatchQuery(BatchQueryMessage {
        queries: queries.iter().map(|q| q.query.clone()).collect(),
        top: Some(3),
    });
    let id = client.submit(&batch);
    client.flush().expect("flush batch");
    replies.push((id, client.wait_take(id, WAIT).expect("batch reply")));

    // A mutating request: barrier-flushes the batcher, invalidates cache
    // shards, and changes every later reply's ground truth.
    let id = client.submit(&Request::Upload(upload.clone()));
    client.flush().expect("flush upload");
    replies.push((id, client.wait_take(id, WAIT).expect("upload reply")));

    // Same queries again: with the cache on these are warm repeats.
    for q in queries {
        let id = client.submit(&Request::Query(q.clone()));
        client.flush().expect("flush repeat");
        replies.push((id, client.wait_take(id, WAIT).expect("repeat reply")));
    }
    replies
}

#[test]
fn concurrent_clients_are_equivalent_to_sequential_service_calls() {
    const TCP_CLIENTS: usize = 4;
    const MEM_CLIENTS: usize = 2;
    let fx = fixture(TCP_CLIENTS + MEM_CLIENTS);

    for &cache in &[false, true] {
        let config = HubConfig {
            batch_window: Duration::from_millis(2),
            batch_depth: 4,
            journal: true,
            ..HubConfig::default()
        };
        let hub = Hub::spawn(seeded_server(&fx, cache), config);
        let addr = hub.bind_tcp("127.0.0.1:0").expect("bind");

        // ≥ 4 concurrent socket clients plus the MemoryLink twin, each on
        // its own thread with a disjoint request-id range.
        let mut workers = Vec::new();
        for k in 0..TCP_CLIENTS + MEM_CLIENTS {
            let client = if k < TCP_CLIENTS {
                NetClient::connect_tcp(addr).expect("connect")
            } else {
                NetClient::from_memory(hub.connect_memory())
            }
            .with_first_request_id(k as u64 * 1_000_000 + 1);
            let queries = fx.queries.clone();
            let upload = fx.client_uploads[k].clone();
            workers.push(std::thread::spawn(move || {
                run_client(client, &queries, &upload)
            }));
        }
        let mut received: Vec<(u64, Response)> = Vec::new();
        for worker in workers {
            received.extend(worker.join().expect("client thread"));
        }

        // After the concurrent phase: read the cumulative counters through
        // the hub. These go through the journal like everything else, so
        // the replay below asserts counter equality too.
        let mut admin =
            NetClient::from_memory(hub.connect_memory()).with_first_request_id(9_000_000);
        received.push((
            9_000_000,
            admin
                .call(&Request::Counters, WAIT)
                .expect("counters through the hub"),
        ));
        received.push((
            9_000_001,
            admin
                .call(&Request::CacheStats, WAIT)
                .expect("cache stats through the hub"),
        ));
        drop(admin);

        let report = hub.shutdown();
        let expected_requests =
            ((TCP_CLIENTS + MEM_CLIENTS) * (2 * fx.queries.len() + 2) + 2) as u64;
        assert_eq!(
            report.requests, expected_requests,
            "cache={cache}: every request must be executed"
        );
        assert_eq!(report.journal.len() as u64, report.requests);

        // Sequential replay on the twin: the hub's total execution order,
        // one plain Service::call at a time — no transport, no batcher.
        let mut twin = seeded_server(&fx, cache);
        let mut expected = std::collections::BTreeMap::new();
        for entry in &report.journal {
            let response = twin.call(entry.request.clone());
            expected.insert(entry.request_id, response);
        }

        assert_eq!(received.len() as u64, expected_requests);
        for (id, reply) in &received {
            let want = expected
                .get(id)
                .unwrap_or_else(|| panic!("request #{id} missing from the journal"));
            assert_eq!(
                reply, want,
                "cache={cache}: reply for request #{id} diverged"
            );
            assert_eq!(
                reply_bytes(*id, reply),
                reply_bytes(*id, want),
                "cache={cache}: frame bytes for request #{id} diverged"
            );
        }
    }
}

#[test]
fn shutdown_while_loaded_drains_every_accepted_request() {
    let fx = fixture(0);
    // A huge window and depth, and a connection the batcher expects that has
    // gone quiet: nothing flushes until shutdown forces it.
    let config = HubConfig {
        batch_window: Duration::from_secs(10),
        batch_depth: 1 << 20,
        journal: true,
        ..HubConfig::default()
    };
    let hub = Hub::spawn(seeded_server(&fx, true), config);

    let mut clients: Vec<NetClient> = (0..3)
        .map(|k| {
            NetClient::from_memory(hub.connect_memory()).with_first_request_id(k as u64 * 1_000 + 1)
        })
        .collect();
    let mut quiet = NetClient::from_memory(hub.connect_memory()).with_first_request_id(9_001);
    quiet
        .call(&Request::Query(fx.queries[0].clone()), WAIT)
        .expect("the quiet client's one query");
    let mut ids = Vec::new();
    for client in clients.iter_mut() {
        for q in &fx.queries {
            ids.push(client.submit(&Request::Query(q.clone())));
        }
        client.flush().expect("flush");
    }
    let total = (3 * fx.queries.len() + 1) as u64;
    while hub.frames_accepted() < total {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Shut down with the whole load still pending in the batcher: the drain
    // must execute and answer every accepted request.
    let report = hub.shutdown();
    assert_eq!(report.requests, total, "no accepted request may be dropped");

    let mut twin = seeded_server(&fx, true);
    let mut expected = std::collections::BTreeMap::new();
    for entry in &report.journal {
        expected.insert(entry.request_id, twin.call(entry.request.clone()));
    }
    let mut taken = 0;
    for (k, client) in clients.iter_mut().enumerate() {
        for id in ids[k * fx.queries.len()..(k + 1) * fx.queries.len()].iter() {
            let reply = client.wait_take(*id, WAIT).expect("drained reply");
            assert_eq!(&reply, expected.get(id).expect("journaled"));
            taken += 1;
        }
    }
    assert_eq!(taken + 1, total, "every client read every drained reply");
}
