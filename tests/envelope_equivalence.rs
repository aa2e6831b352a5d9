//! Equivalence of the two server surfaces: direct `Service::call` and a full
//! framed-codec round trip through the envelope `Client` must produce
//! **byte-identical** replies — across shard counts and with the result cache
//! on and off (cold and warm).
//!
//! "Byte-identical" is checked literally: every pair of replies is also encoded
//! through the wire codec under the same request id and the frames compared.

use mkse::core::QueryBuilder;
use mkse::protocol::{
    wire, BatchQueryMessage, Client, CloudServer, DataOwner, DocumentRequest, OwnerConfig,
    ProtocolError, QueryMessage, Request, Response, Service,
};
use mkse::textproc::Document;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    owner: DataOwner,
    queries: Vec<QueryMessage>,
    indices: Vec<mkse::core::RankedDocumentIndex>,
    encrypted: Vec<mkse::protocol::EncryptedDocumentTransfer>,
}

fn fixture() -> Fixture {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut owner = DataOwner::new(OwnerConfig::fast_for_tests(), &mut rng);
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
    let docs: Vec<Document> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| Document::from_text(i as u64, t))
        .collect();
    let (indices, encrypted) = owner.prepare_documents(&docs, &mut rng);

    // Queries built ONCE so every surface sees identical bytes (repeats are what
    // warms the cache).
    let pool = owner.random_pool_trapdoors();
    let keyword_sets: [&[&str]; 4] = [&["cloud"], &["audit"], &["cloud", "audit"], &["privacy"]];
    let queries: Vec<QueryMessage> = keyword_sets
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
        indices,
        encrypted,
    }
}

fn server(fx: &Fixture, shards: usize, cache: bool) -> CloudServer {
    let mut server = CloudServer::with_shards(fx.owner.params().clone(), shards);
    server
        .upload(fx.indices.clone(), fx.encrypted.clone())
        .expect("upload");
    if cache {
        server.enable_result_cache(64);
    }
    server
}

/// Frame-encode a response under a fixed request id: the literal bytes a client
/// would receive.
fn reply_bytes(response: &Response) -> Vec<u8> {
    wire::encode_response(7, response)
}

#[test]
fn service_and_codec_produce_byte_identical_replies() {
    let fx = fixture();
    for &shards in &[1usize, 2, 7, 16] {
        for &cache in &[false, true] {
            let mut direct = server(&fx, shards, cache);
            let mut framed = Client::new(server(&fx, shards, cache));

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
            let via_call = match direct.call(Request::Documents(doc_request.clone())) {
                Response::Documents(reply) => reply,
                other => panic!("expected Documents, got {}", other.name()),
            };
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
    let fx = fixture();
    let mut by_method = server(&fx, 2, true);
    let mut direct = server(&fx, 2, true);
    let mut framed = Client::new(server(&fx, 2, true));

    let via_method = by_method.snapshot_index();
    let via_call = match direct.call(Request::SnapshotIndex) {
        Response::Snapshot(bytes) => bytes,
        other => panic!("expected Snapshot, got {}", other.name()),
    };
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
    let mut restored_direct = CloudServer::with_shards(fx.owner.params().clone(), 7);
    assert_eq!(restored_direct.restore_index(&via_method).unwrap(), 12);
    let mut restored_wire = Client::new(CloudServer::with_shards(fx.owner.params().clone(), 7));
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
    let fx = fixture();
    let mut server = Client::new(server(&fx, 2, false));
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
    let fx = fixture();
    let mut client = Client::new(server(&fx, 2, false));

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
    assert_eq!(client.flush().expect("pipelined flush"), fx.queries.len());
    assert_eq!(client.ready(), fx.queries.len());
    for (i, id) in ids.iter().enumerate().rev() {
        let reply =
            Client::<CloudServer>::expect_search(client.take(*id).expect("correlated")).unwrap();
        assert_eq!(reply, reference[i], "pipelined reply {i} diverged");
    }
    assert_eq!(client.ready(), 0);
}
