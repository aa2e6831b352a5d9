//! Equivalence of the server surfaces: direct `Service::call` and a full
//! framed-codec round trip through the envelope `Client` must produce
//! **byte-identical** replies — across shard counts and with the result cache
//! on and off (cold and warm). And every typed call answers the same value
//! through the in-process client as through a `ResilientClient` over a hub.
//!
//! "Byte-identical" is checked literally: every pair of replies is also encoded
//! through the wire codec under the same request id and the frames compared.

use mkse::core::{serialize_store, RankedDocumentIndex, TelemetryLevel};
use mkse::net::{ClientError, Hub, HubConfig, ResilientClient, RetryPolicy};
use mkse::protocol::{
    wire, BatchQueryMessage, Client, CloudServer, DataOwner, DocumentRequest, OwnerConfig,
    ProtocolError, Request, Response, Service, TypedCalls,
};
use mkse_testkit::{fixture, Fixture};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The corpus every surface serves; its queries are built once, so every
/// surface sees identical bytes (repeats are what warms the cache).
fn corpus() -> Fixture {
    let texts = [
        "cloud privacy search encryption audit",
        "weather forecast rain and wind",
        "cloud storage pricing enterprise",
        "encrypted archive migration cloud",
        "audit of encryption key management",
        "cafeteria menu and office plants",
        "privacy impact assessment cloud data",
        "phishing incident report credentials",
        "searchable encryption design notes",
        "financial results revenue breakdown",
        "cloud audit logging pipeline",
        "intrusion detection firewall logs",
    ];
    let keyword_sets: [&[&str]; 4] = [&["cloud"], &["audit"], &["cloud", "audit"], &["privacy"]];
    fixture(4242, &texts, &keyword_sets, &[])
}

/// Frame-encode a response under a fixed request id: the literal bytes a client
/// would receive.
fn reply_bytes(response: &Response) -> Vec<u8> {
    wire::encode_response(7, response)
}

#[test]
fn service_and_codec_produce_byte_identical_replies() {
    let fx = corpus();
    for &shards in &[1usize, 2, 7, 16] {
        for &cache in &[false, true] {
            let mut direct = fx.server(shards, cache);
            let mut framed = Client::new(fx.server(shards, cache));

            // Two passes: with the cache on, the second pass answers from the
            // cache — replies must not change by a byte either way.
            for pass in 0..2 {
                for (qi, query) in fx.queries.iter().enumerate() {
                    let via_call = direct.call(Request::Query(query.clone()));
                    let via_wire =
                        Response::Search(framed.query(query).expect("framed query round trip"));
                    assert_eq!(
                        reply_bytes(&via_call),
                        reply_bytes(&via_wire),
                        "call vs wire: shards={shards} cache={cache} pass={pass} query={qi}"
                    );
                }
            }

            // The batched surface: one message carrying every query.
            let batch = BatchQueryMessage {
                queries: fx.queries.iter().map(|q| q.query.clone()).collect(),
                top: Some(3),
            };
            let via_call = direct.call(Request::BatchQuery(batch.clone()));
            let via_wire =
                Response::BatchSearch(framed.batch_query(&batch).expect("framed batch round trip"));
            assert_eq!(reply_bytes(&via_call), reply_bytes(&via_wire));

            // Document retrieval, success and failure: errors travel the wire as
            // typed values and stay identical too.
            let doc_request = DocumentRequest {
                document_ids: vec![0, 5, 11],
            };
            let via_call = direct
                .call(Request::Documents(doc_request.clone()))
                .into_documents()
                .expect("direct retrieval");
            let via_wire = framed
                .fetch_documents(&doc_request)
                .expect("framed retrieval");
            assert_eq!(via_call, via_wire);

            let missing = DocumentRequest {
                document_ids: vec![99],
            };
            assert_eq!(
                direct.call(Request::Documents(missing.clone())),
                Response::Error(ProtocolError::UnknownDocument(99))
            );
            assert_eq!(
                framed.fetch_documents(&missing),
                Err(ProtocolError::UnknownDocument(99))
            );

            // Both surfaces did the same logical work: counter parity.
            assert_eq!(
                direct.counters(),
                framed.counters(),
                "counters diverged: shards={shards} cache={cache}"
            );
        }
    }
}

#[test]
fn snapshot_restore_is_equivalent_across_surfaces() {
    let fx = corpus();
    let mut by_method = fx.server(2, true);
    let mut direct = fx.server(2, true);
    let mut framed = Client::new(fx.server(2, true));

    let via_method = by_method.snapshot_index();
    let via_call = direct
        .call(Request::SnapshotIndex)
        .into_snapshot()
        .expect("direct snapshot");
    let via_wire = framed.snapshot().expect("framed snapshot");
    assert_eq!(via_method, via_call);
    assert_eq!(via_call, via_wire);
    // Counter parity holds for snapshots exactly as for every other surface.
    assert_eq!(
        by_method.counters().requests_served,
        direct.counters().requests_served
    );
    assert_eq!(
        direct.counters().requests_served,
        framed.counters().requests_served
    );

    // Restoring through the framed surface matches restoring in process.
    let mut restored_direct = CloudServer::with_shards(fx.params.clone(), 7);
    assert_eq!(restored_direct.restore_index(&via_method).unwrap(), 12);
    let mut restored_wire = Client::new(CloudServer::with_shards(fx.params.clone(), 7));
    assert_eq!(restored_wire.restore(via_wire).expect("framed restore"), 12);
    let query = &fx.queries[0];
    assert_eq!(
        reply_bytes(&restored_direct.call(Request::Query(query.clone()))),
        reply_bytes(&Response::Search(
            restored_wire.query(query).expect("framed query")
        )),
    );

    // A corrupt snapshot fails with the same typed error on both surfaces.
    let truncated = &via_method[..3];
    let direct_err = restored_direct.restore_index(truncated).unwrap_err();
    let wire_err = restored_wire.restore(truncated.to_vec()).unwrap_err();
    assert!(matches!(direct_err, ProtocolError::Persistence(_)));
    assert_eq!(direct_err, wire_err);
}

#[test]
fn misrouted_requests_are_rejected_with_typed_unsupported_errors() {
    let fx = corpus();
    let mut server = Client::new(fx.server(2, false));
    // An owner-side request sent to the cloud server comes back as a typed
    // error — through the full framed round trip.
    let err = server
        .blind_decrypt(&mkse::protocol::BlindDecryptRequest {
            user_id: 1,
            blinded_ciphertext: mkse::crypto::bigint::BigUint::from_u64(5),
            signature: mkse::crypto::rsa::RsaSignature::from_value(
                mkse::crypto::bigint::BigUint::from_u64(1),
            ),
        })
        .unwrap_err();
    assert!(matches!(err, ProtocolError::Unsupported(_)));
    assert!(err.to_string().contains("data owner"));

    // And symmetrically: a query sent to the data owner.
    let mut rng = StdRng::seed_from_u64(7);
    let owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
    let mut owner_client = Client::new(owner);
    let err = owner_client.query(&fx.queries[0]).unwrap_err();
    assert!(matches!(err, ProtocolError::Unsupported(_)));
    assert!(err.to_string().contains("cloud server"));
}

#[test]
fn pipelined_replies_correlate_out_of_order() {
    let fx = corpus();
    let mut client = Client::new(fx.server(2, false));

    // Reference replies, sequentially.
    let mut reference = Vec::new();
    for query in &fx.queries {
        reference.push(client.query(query).expect("sequential query"));
    }

    // Same queries pipelined: submit all, flush once, then take the replies in
    // reverse order — correlation is by request id, not arrival order.
    let ids: Vec<u64> = fx
        .queries
        .iter()
        .map(|q| client.submit(&Request::Query(q.clone())))
        .collect();
    assert_eq!(client.ready(), 0);
    client.flush().expect("pipelined flush");
    assert_eq!(client.ready(), fx.queries.len());
    for (i, id) in ids.iter().enumerate().rev() {
        let reply = client.take(*id).expect("correlated").into_search().unwrap();
        assert_eq!(reply, reference[i], "pipelined reply {i} diverged");
    }
    assert_eq!(client.ready(), 0);
}

/// Every typed call, in one fixed order, each answer put back into the
/// envelope variant it came from — an error as `Response::Error` — so two
/// clients' transcripts compare as values. Error paths included: a missing
/// document, a duplicate upload, a snapshot that does not decode.
fn typed_transcript<C: TypedCalls>(
    client: &mut C,
    fx: &Fixture,
    refusal: impl Fn(C::Error) -> ProtocolError,
) -> Vec<Response> {
    let mut transcript = Vec::new();
    let mut note = |answer: Result<Response, C::Error>| {
        transcript.push(answer.unwrap_or_else(|e| Response::Error(refusal(e))));
    };
    let renumbered = |offset: u64| -> Vec<RankedDocumentIndex> {
        let renumber = |index: &RankedDocumentIndex| RankedDocumentIndex {
            document_id: index.document_id + offset,
            ..index.clone()
        };
        fx.seed_upload.indices.iter().map(renumber).collect()
    };
    let uploaded = |documents| Response::Uploaded { documents };
    let restored = |documents| Response::Restored { documents };
    let batch = BatchQueryMessage {
        queries: fx.queries.iter().map(|q| q.query.clone()).collect(),
        top: Some(3),
    };

    note(client.server_info().map(Response::Info));
    for query in &fx.queries {
        note(client.query(query).map(Response::Search));
    }
    note(client.batch_query(&batch).map(Response::BatchSearch));
    for document_ids in [vec![0, 5, 11], vec![99]] {
        let request = DocumentRequest { document_ids };
        note(client.fetch_documents(&request).map(Response::Documents));
    }
    note(client.upload(renumbered(100), vec![]).map(uploaded));
    note(client.upload(renumbered(100), vec![]).map(uploaded));
    note(client.enable_cache(16).map(|()| Response::Ack));
    for query in fx.queries.iter().chain(&fx.queries) {
        note(client.query(query).map(Response::Search));
    }
    note(client.remote_cache_stats().map(Response::CacheStats));
    note(client.disable_cache().map(|()| Response::Ack));
    note(client.remote_cache_stats().map(Response::CacheStats));
    note(client.snapshot().map(Response::Snapshot));
    let more = serialize_store(&fx.params, &renumbered(200));
    note(client.restore(more).map(restored));
    note(client.restore(vec![1, 2, 3]).map(restored));
    note(client.remote_counters().map(Response::Counters));
    note(client.reset_remote_counters().map(|()| Response::Ack));
    note(client.remote_counters().map(Response::Counters));
    note(client.server_info().map(Response::Info));
    transcript
}

/// Invariant 7, typed-call column: on one seeded server, every typed call
/// answers the same value through the in-process client as through a
/// `ResilientClient` over a hub on a memory link. `metrics_snapshot` also
/// counts the hub's connection and batcher traffic, so only its level and
/// the engine's counters are compared.
#[test]
fn typed_calls_answer_equal_values_in_process_and_over_a_hub() {
    let fx = corpus();
    let seeded = || {
        let server = fx.server(2, false);
        server.set_telemetry_level(TelemetryLevel::Counters);
        server
    };
    let mut local = Client::new(seeded());
    let hub = Hub::spawn(seeded(), HubConfig::default());
    let mut remote = ResilientClient::new(hub.memory_dialer().connector(), RetryPolicy::default());

    let in_process = typed_transcript(&mut local, &fx, |e| e);
    let over_hub = typed_transcript(&mut remote, &fx, |e| match e {
        ClientError::Reply(e) => e,
        other => panic!("the hub did not answer: {other}"),
    });
    assert_eq!(in_process.len(), over_hub.len());
    for (i, (local, remote)) in in_process.iter().zip(&over_hub).enumerate() {
        assert_eq!(local, remote, "typed call {i}");
    }
    let refusals = in_process
        .iter()
        .filter(|r| matches!(r, Response::Error(_)))
        .count();
    assert_eq!(
        refusals, 3,
        "missing document, duplicate upload, bad snapshot"
    );

    let (local, remote) = (
        local.metrics_snapshot().expect("in process"),
        remote.metrics_snapshot().expect("over the hub"),
    );
    assert_eq!(local.level, remote.level);
    // In process a `Query` is an engine batch of one; the hub runs it as a
    // group of one: either way the engine counts it in `batch_queries`.
    for name in ["requests_served", "inserts", "shard_scans", "batch_queries"] {
        assert_eq!(local.counter(name), remote.counter(name), "{name}");
    }
    assert!(local.counter("batch_queries") > 0);
    assert_eq!(local.shard_caches, remote.shard_caches);
    hub.shutdown();
}
