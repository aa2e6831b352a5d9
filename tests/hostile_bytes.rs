//! Invariant 11: **no bytes panic a decoder or a service, and a malformed
//! request costs its sender an error and nobody else anything.**
//!
//! The server in the paper is handed an r-bit query by a party it does not
//! trust; everything a peer can put on a link therefore has to come back as a
//! typed error or an answer. Five layers, outermost last:
//!
//! 1. `decode_request` / `decode_response` on arbitrary payloads, on random
//!    bodies behind a valid header, and on well-formed frames with flipped
//!    bits; a count prefix of `u32::MAX` is `Truncated` without anything
//!    being sized by the claim (a counting allocator holds it to that).
//! 2. `FrameBuffer` fed arbitrary fragments yields frames or `FrameTooLarge`.
//! 3. `deserialize_store` on arbitrary bytes and on damaged snapshots.
//! 4. **Whatever decodes is served**: every request layer 1 produced, plus a
//!    hand-built list of well-framed nonsense, goes through
//!    `CloudServer::call` and through a `Coordinator` over two in-process
//!    nodes and comes back as a `Response`.
//! 5. Over a `Hub`: the connection that sent a 5-bit query reads an error and
//!    keeps working, a second connection never notices, and a 3-node fleet
//!    fails nothing over.

mod common;

use common::{counter, gauge};
use mkse::core::{
    deserialize_store, serialize_store, BitIndex, DocumentIndexer, PersistenceError, QueryBuilder,
    RankedDocumentIndex, SchemeKeys, StoreError, SystemParams, Telemetry,
};
use mkse::net::{
    Coordinator, FleetConfig, FrameBuffer, Hub, HubConfig, HubHandle, NetClient, RetryPolicy,
};
use mkse::protocol::wire::{self, CodecError};
use mkse::protocol::{
    BatchQueryMessage, CloudServer, DocumentRequest, NodeCapabilities, NodeHeartbeat,
    NodeRegistration, ProtocolError, QueryMessage, Request, Response, Service, TransportError,
    UploadMessage,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);
const GLOBAL_SHARDS: usize = 4;

// --- a counting allocator: "nothing is sized by a claimed count" -------------

thread_local! {
    /// Bytes this thread has asked the allocator for. Const-initialised and
    /// without a destructor, so touching it never allocates.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn note_request(bytes: usize) {
    let _ = REQUESTED.try_with(|total| total.set(total.get().saturating_add(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout (above).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` and report how many bytes it asked the allocator for.
fn bytes_requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

// --- the corpus ---------------------------------------------------------------

struct Corpus {
    params: SystemParams,
    indices: Vec<RankedDocumentIndex>,
    queries: Vec<QueryMessage>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let params = SystemParams::default();
        let mut rng = StdRng::seed_from_u64(21_812);
        let keys = SchemeKeys::generate(&params, &mut rng);
        let indexer = DocumentIndexer::new(&params, &keys);
        let keyword_sets: [&[&str]; 10] = [
            &["cloud", "privacy", "search"],
            &["weather", "forecast"],
            &["cloud", "storage", "pricing"],
            &["encrypted", "archive", "cloud"],
            &["audit", "encryption"],
            &["privacy", "cloud", "data"],
            &["searchable", "encryption"],
            &["cloud", "audit", "logging"],
            &["key", "management", "audit"],
            &["cloud", "migration"],
        ];
        let indices = keyword_sets
            .iter()
            .enumerate()
            .map(|(i, kws)| indexer.index_keywords(i as u64, kws))
            .collect();
        let pool = keys.random_pool_trapdoors(&params);
        let query_sets: [&[&str]; 3] = [&["cloud"], &["audit"], &["cloud", "audit"]];
        let queries = query_sets
            .iter()
            .map(|kws| {
                let trapdoors = keys.trapdoors_for(&params, kws);
                let q = QueryBuilder::new(&params)
                    .add_trapdoors(&trapdoors)
                    .with_randomization(&pool)
                    .build(&mut rng);
                QueryMessage {
                    query: q.bits().clone(),
                    top: None,
                }
            })
            .collect();
        Corpus {
            params,
            indices,
            queries,
        }
    })
}

fn seed_upload(corpus: &Corpus) -> Request {
    Request::Upload(UploadMessage {
        indices: corpus.indices.clone(),
        documents: vec![],
    })
}

/// A `CloudServer` holding the corpus.
fn seeded_server(corpus: &Corpus, shards: usize) -> CloudServer {
    let mut server = CloudServer::with_shards(corpus.params.clone(), shards);
    assert!(matches!(
        server.call(seed_upload(corpus)),
        Response::Uploaded { .. }
    ));
    server
}

/// A coordinator over `slots.len()` in-process node hubs (node `i + 1` takes
/// up to `slots[i]` of the four global shards), holding the corpus.
fn seeded_fleet(corpus: &Corpus, slots: &[u32]) -> (Coordinator, Vec<HubHandle>) {
    let config = FleetConfig {
        num_global_shards: GLOBAL_SHARDS,
        heartbeat_interval: Duration::from_millis(50),
        // Nothing here dies of silence: only a failed forward fails a node.
        failure_deadline: Duration::from_secs(600),
        node_policy: RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            backoff_cap: Duration::from_millis(2),
            attempt_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            ..RetryPolicy::default()
        },
    };
    let mut coordinator = Coordinator::new(corpus.params.clone(), config);
    let mut nodes = Vec::new();
    for (i, &shard_slots) in slots.iter().enumerate() {
        let node_id = i as u64 + 1;
        let node = Hub::spawn(
            CloudServer::with_shards(corpus.params.clone(), 2),
            HubConfig::default(),
        );
        coordinator.add_node(node_id, node.memory_dialer().connector());
        let registration = NodeRegistration {
            node_id,
            capabilities: NodeCapabilities {
                shard_slots,
                scan_lanes: 2,
                cache_capacity: 0,
            },
        };
        assert!(matches!(
            coordinator.call(Request::RegisterNode(registration)),
            Response::ShardAssignment(_)
        ));
        nodes.push(node);
    }
    assert!(matches!(
        coordinator.call(seed_upload(corpus)),
        Response::Uploaded { .. }
    ));
    (coordinator, nodes)
}

fn bits(len: usize) -> BitIndex {
    BitIndex::all_ones(len)
}

fn query_of(len: usize) -> QueryMessage {
    QueryMessage {
        query: bits(len),
        top: None,
    }
}

fn size_mismatch(corpus: &Corpus, found: usize) -> Response {
    Response::Error(ProtocolError::Store(StoreError::IndexSizeMismatch {
        expected: corpus.params.index_bits,
        found,
    }))
}

// --- (i) the decoders ---------------------------------------------------------

/// `version | request_id | kind`, the 10 bytes in front of every body.
fn header(request_id: u64, kind: u8) -> Vec<u8> {
    let mut payload = vec![mkse::protocol::PROTOCOL_VERSION];
    payload.extend_from_slice(&request_id.to_le_bytes());
    payload.push(kind);
    payload
}

/// Requests a well-behaved peer could send; the bit-flipped ones start here.
fn well_formed(corpus: &Corpus) -> Vec<Request> {
    vec![
        Request::Query(corpus.queries[0].clone()),
        Request::Query(QueryMessage {
            top: Some(2),
            ..corpus.queries[2].clone()
        }),
        Request::BatchQuery(BatchQueryMessage {
            queries: corpus.queries.iter().map(|q| q.query.clone()).collect(),
            top: Some(3),
        }),
        Request::Documents(DocumentRequest {
            document_ids: vec![0, 3],
        }),
        Request::Upload(UploadMessage {
            indices: vec![RankedDocumentIndex {
                document_id: 5_000,
                ..corpus.indices[1].clone()
            }],
            documents: vec![],
        }),
        Request::EnableCache {
            capacity_per_shard: 8,
        },
        Request::RestoreIndex(serialize_store(
            &corpus.params,
            &[RankedDocumentIndex {
                document_id: 6_000,
                ..corpus.indices[2].clone()
            }],
        )),
        Request::ServerInfo,
        Request::RegisterNode(NodeRegistration {
            node_id: 9,
            capabilities: NodeCapabilities::default(),
        }),
        Request::NodeHeartbeat(NodeHeartbeat {
            node_id: 1,
            metrics: Telemetry::new().snapshot(),
        }),
    ]
}

/// What a hostile peer might put inside a frame, for one seed: arbitrary
/// bytes, random bodies behind a valid header of a known kind (either
/// direction), and well-formed requests with one to three flipped bits.
fn hostile_payloads(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut payloads = vec![vec(any::<u8>(), 0..96).generate(&mut rng)];
    for _ in 0..4 {
        let kind = match rng.gen_range(0u8..2) {
            0 => rng.gen_range(0x01u8..=0x11),
            _ => rng.gen_range(0x81u8..=0x8f),
        };
        let mut payload = header(any::<u64>().generate(&mut rng), kind);
        payload.extend(vec(any::<u8>(), 0..64).generate(&mut rng));
        payloads.push(payload);
    }
    let requests = well_formed(corpus());
    for _ in 0..6 {
        let request = &requests[rng.gen_range(0..requests.len())];
        let mut payload = wire::encode_request(seed, request)[4..].to_vec();
        for _ in 0..rng.gen_range(1usize..4) {
            let at = rng.gen_range(0..payload.len());
            payload[at] ^= 1 << rng.gen_range(0u32..8);
        }
        payloads.push(payload);
    }
    payloads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn decoders_answer_ok_or_a_typed_error(seed in any::<u64>()) {
        for payload in hostile_payloads(seed) {
            // Whatever does decode survives its own round trip: the decoder
            // accepted nothing the encoder cannot say.
            if let Ok((id, request)) = wire::decode_request(&payload) {
                let frame = wire::encode_request(id, &request);
                prop_assert_eq!(wire::decode_request(&frame[4..]), Ok((id, request)));
            }
            if let Ok((id, response)) = wire::decode_response(&payload) {
                let frame = wire::encode_response(id, &response);
                prop_assert_eq!(wire::decode_response(&frame[4..]), Ok((id, response)));
            }
            let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&payload);
            let _ = wire::decode_request_stream(&framed);
            let _ = wire::decode_response_stream(&framed[..framed.len() / 2]);
        }
    }
}

#[test]
fn a_claimed_count_sizes_nothing() {
    // Every kind whose body opens with a `u32` count or length.
    let requests = [0x02u8, 0x03, 0x04, 0x06, 0x0b];
    let responses = [0x81u8, 0x82, 0x83, 0x84, 0x85, 0x89];
    for tail in 0..64 {
        for kind in requests.into_iter().chain(responses) {
            let mut payload = header(7, kind);
            payload.extend_from_slice(&u32::MAX.to_le_bytes());
            payload.extend(std::iter::repeat_n(0xff, tail));
            let (outcome, requested) = bytes_requested_by(|| {
                if kind < 0x80 {
                    wire::decode_request(&payload).map(drop)
                } else {
                    wire::decode_response(&payload).map(drop)
                }
            });
            assert_eq!(
                outcome,
                Err(CodecError::Truncated),
                "kind 0x{kind:02x}, {tail} bytes behind the count"
            );
            assert!(
                requested <= 1024,
                "kind 0x{kind:02x}: {requested} bytes requested for a claim of u32::MAX"
            );
        }
    }
}

// --- (ii) the frame reassembler ----------------------------------------------

/// Feed `fragments`; return the frames popped and the fault, if any, that
/// ended the connection. Every pop must shrink the buffer, so the loop cannot
/// spin.
fn reassemble(
    fragments: &[Vec<u8>],
    max_frame_bytes: u64,
) -> (Vec<Vec<u8>>, Option<TransportError>) {
    let mut buffer = FrameBuffer::new(max_frame_bytes);
    let mut frames = Vec::new();
    for fragment in fragments {
        if let Err(fault) = buffer.extend(fragment) {
            return (frames, Some(fault));
        }
        loop {
            let before = buffer.pending_bytes();
            match buffer.pop() {
                Ok(Some(frame)) => {
                    assert!(buffer.pending_bytes() < before, "a pop consumed nothing");
                    frames.push(frame);
                }
                Ok(None) => break,
                Err(fault) => return (frames, Some(fault)),
            }
        }
    }
    (frames, None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_buffer_yields_frames_or_frame_too_large(
        fragments in vec(vec(any::<u8>(), 0..24), 1..12),
        small in vec(vec(0u8..3, 0..24), 1..12),
        max_frame_bytes in 0u64..64,
    ) {
        let streams = [
            (&fragments, max_frame_bytes),
            (&fragments, u64::MAX),
            (&small, max_frame_bytes),
        ];
        for (stream, limit) in streams {
            let (frames, fault) = reassemble(stream, limit);
            prop_assert!(frames.iter().all(|f| f.len() as u64 <= limit));
            match fault {
                None => {}
                Some(TransportError::FrameTooLarge { declared, max }) => {
                    prop_assert!(declared > max && max == limit);
                }
                Some(other) => prop_assert!(false, "unexpected fault {:?}", other),
            }
        }
    }

    #[test]
    fn frame_buffer_recovers_every_frame_in_front_of_garbage(
        bodies in vec(vec(any::<u8>(), 0..16), 0..6),
        garbage in vec(any::<u8>(), 0..12),
        cuts in vec(1usize..9, 1..40),
    ) {
        let mut stream = Vec::new();
        for body in &bodies {
            stream.extend_from_slice(&(body.len() as u32).to_le_bytes());
            stream.extend_from_slice(body);
        }
        stream.extend_from_slice(&garbage);
        let mut fragments = Vec::new();
        let mut rest = stream.as_slice();
        for cut in cuts {
            let (head, tail) = rest.split_at(cut.min(rest.len()));
            fragments.push(head.to_vec());
            rest = tail;
        }
        fragments.push(rest.to_vec());
        // The limit admits every real frame; whatever the garbage declares,
        // the frames in front of it were already delivered, in order.
        let (frames, _) = reassemble(&fragments, 16);
        prop_assert!(frames.len() >= bodies.len());
        prop_assert_eq!(&frames[..bodies.len()], &bodies[..]);
    }
}

// --- (iii) the snapshot decoder ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn deserialize_store_answers_ok_or_a_typed_error(
        arbitrary in vec(any::<u8>(), 0..128),
        seed in any::<u64>(),
    ) {
        let corpus = corpus();
        let _ = deserialize_store(&corpus.params, &arbitrary);
        // Arbitrary bytes behind a valid header reach the entry loop.
        let snapshot = serialize_store(&corpus.params, &corpus.indices);
        let mut headed = snapshot[..20].to_vec();
        headed.extend_from_slice(&arbitrary);
        let _ = deserialize_store(&corpus.params, &headed);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut flipped = snapshot.clone();
        for _ in 0..rng.gen_range(1usize..4) {
            let at = rng.gen_range(0..flipped.len());
            flipped[at] ^= 1 << rng.gen_range(0u32..8);
        }
        let _ = deserialize_store(&corpus.params, &flipped);

        let cut = rng.gen_range(0..snapshot.len());
        prop_assert!(deserialize_store(&corpus.params, &snapshot[..cut]).is_err());

        // `count u64` sits at [12..20], behind magic, version, r and eta.
        let mut inflated = snapshot.clone();
        let claim = corpus.indices.len() as u64 + rng.gen_range(1u64..u64::MAX >> 1);
        inflated[12..20].copy_from_slice(&claim.to_le_bytes());
        let (outcome, requested) =
            bytes_requested_by(|| deserialize_store(&corpus.params, &inflated).map(drop));
        prop_assert_eq!(outcome, Err(PersistenceError::Truncated));
        prop_assert!(requested == 0, "{} bytes requested for a claimed count", requested);
    }
}

// --- (iv) whatever decodes is served -----------------------------------------

/// Well-framed nonsense: every entry encodes, decodes and must be answered.
fn hand_built(corpus: &Corpus) -> Vec<Request> {
    let r = corpus.params.index_bits;
    let eta = corpus.params.rank_levels();
    let good = &corpus.queries[0];
    let index = |document_id: u64, levels: Vec<BitIndex>| RankedDocumentIndex {
        document_id,
        levels,
    };
    let upload = |indices: Vec<RankedDocumentIndex>| {
        Request::Upload(UploadMessage {
            indices,
            documents: vec![],
        })
    };
    let mut requests = Vec::new();
    for len in [1, 5, r - 1, r + 1, 5_000] {
        requests.push(Request::Query(query_of(len)));
        requests.push(Request::BatchQuery(BatchQueryMessage {
            queries: vec![good.query.clone(), bits(len), good.query.clone()],
            top: Some(2),
        }));
    }
    requests.extend([
        Request::BatchQuery(BatchQueryMessage {
            queries: vec![],
            top: None,
        }),
        Request::EnableCache {
            capacity_per_shard: u64::MAX,
        },
        Request::Query(QueryMessage {
            top: Some(usize::MAX),
            ..good.clone()
        }),
        Request::Query(QueryMessage {
            top: Some(0),
            ..good.clone()
        }),
        Request::BatchQuery(BatchQueryMessage {
            queries: vec![good.query.clone(); 3],
            top: Some(usize::MAX),
        }),
        // Zero levels, too few levels, too many, and levels of mixed lengths
        // (behind one acceptable index, so the upload is partly applied).
        upload(vec![index(7_000, vec![])]),
        upload(vec![index(7_001, vec![bits(r); eta - 1])]),
        upload(vec![index(7_002, vec![bits(r); eta + 1])]),
        upload(vec![
            index(7_003, vec![bits(r); eta]),
            index(7_004, [vec![bits(r); eta - 1], vec![bits(5)]].concat()),
        ]),
        upload(vec![index(7_003, vec![bits(r); eta])]),
        Request::Documents(DocumentRequest {
            document_ids: vec![u64::MAX, 0, 424_242],
        }),
        Request::RestoreIndex(vec![]),
        Request::RestoreIndex(b"MKSE".to_vec()),
        Request::RestoreIndex(vec![0xa5; 300]),
        Request::RegisterNode(NodeRegistration {
            node_id: u64::MAX,
            capabilities: NodeCapabilities {
                shard_slots: u32::MAX,
                scan_lanes: u32::MAX,
                cache_capacity: u64::MAX,
            },
        }),
        Request::NodeHeartbeat(NodeHeartbeat {
            node_id: u64::MAX,
            metrics: Telemetry::new().snapshot(),
        }),
        Request::DisableCache,
    ]);
    requests
}

/// The frame a peer would send for `request`, decoded the way a hub would.
fn over_the_wire(request: &Request) -> Request {
    let frame = wire::encode_request(1, request);
    let (payload, _) = wire::split_frame(&frame).unwrap().unwrap();
    wire::decode_request(payload).unwrap().1
}

#[test]
fn whatever_decodes_is_served() {
    let corpus = corpus();
    let mut server = seeded_server(corpus, 2);
    let (mut coordinator, nodes) = seeded_fleet(corpus, &[2, 2]);
    let telemetry = coordinator.telemetry_handle();

    let mut decoded: Vec<Request> = (0..96u64)
        .flat_map(hostile_payloads)
        .filter_map(|payload| wire::decode_request(&payload).ok())
        .map(|(_, request)| request)
        .collect();
    assert!(
        decoded.len() > 100,
        "only {} hostile payloads decoded",
        decoded.len()
    );
    decoded.extend(hand_built(corpus).iter().map(over_the_wire));

    // Returning at all is the property: a panic in either service fails here.
    for request in decoded {
        let _: Response = server.call(request.clone());
        let _: Response = coordinator.call(request);
    }

    // Both are still in business, and the query-shaped nonsense failed no node.
    for query in &corpus.queries {
        let request = Request::Query(query.clone());
        assert!(matches!(server.call(request.clone()), Response::Search(_)));
        assert!(matches!(coordinator.call(request), Response::Search(_)));
    }
    assert_eq!(counter(&telemetry, "failovers"), 0);
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn a_wrong_length_query_is_answered_an_index_size_mismatch() {
    let corpus = corpus();
    let r = corpus.params.index_bits;
    let mut server = seeded_server(corpus, 2);
    let (mut coordinator, nodes) = seeded_fleet(corpus, &[2, 2]);
    let good = &corpus.queries[0];
    for len in [1, 5, r - 1, r + 1, 5_000] {
        let single = Request::Query(query_of(len));
        let batch = Request::BatchQuery(BatchQueryMessage {
            queries: vec![good.query.clone(), bits(len)],
            top: None,
        });
        for request in [single, batch] {
            assert_eq!(server.call(request.clone()), size_mismatch(corpus, len));
            assert_eq!(coordinator.call(request), size_mismatch(corpus, len));
        }
    }
    // An empty fleet mirror answers the same error, not an empty reply.
    let mut empty = Coordinator::new(corpus.params.clone(), FleetConfig::default());
    assert_eq!(
        empty.call(Request::Query(query_of(5))),
        size_mismatch(corpus, 5)
    );
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn a_group_with_bad_members_equals_one_call_per_member() {
    let corpus = corpus();
    let group = [
        corpus.queries[0].clone(),
        query_of(5),
        QueryMessage {
            top: Some(1),
            ..corpus.queries[2].clone()
        },
        query_of(corpus.params.index_bits + 1),
        corpus.queries[0].clone(),
    ];
    let all_bad = [query_of(5), query_of(1)];

    let mut twin = seeded_server(corpus, GLOBAL_SHARDS);
    let mut server = seeded_server(corpus, 2);
    let (mut coordinator, nodes) = seeded_fleet(corpus, &[2, 2]);
    for members in [&group[..], &all_bad[..], &group[1..2]] {
        let one_by_one: Vec<Response> = members
            .iter()
            .map(|m| twin.call(Request::Query(m.clone())))
            .collect();
        for (member, reply) in members.iter().zip(&one_by_one) {
            match member.query.len() == corpus.params.index_bits {
                true => assert!(matches!(reply, Response::Search(_))),
                false => assert_eq!(reply, &size_mismatch(corpus, member.query.len())),
            }
        }
        assert_eq!(server.call_query_group(members), one_by_one);
        assert_eq!(coordinator.call_query_group(members), one_by_one);
    }

    // Counters moved as if every member had been called on its own.
    let counters = |s: &mut CloudServer| match s.call(Request::Counters) {
        Response::Counters(c) => c,
        other => panic!("Counters answered {}", other.name()),
    };
    let mut replayed = seeded_server(corpus, 2);
    for member in group.iter().chain(&all_bad).chain(&group[1..2]) {
        replayed.call(Request::Query(member.clone()));
    }
    assert_eq!(counters(&mut server), counters(&mut replayed));
    for node in nodes {
        node.shutdown();
    }
}

// --- (v) over a hub -----------------------------------------------------------

/// The script of (v), against any hub: connection A sends the 5-bit query
/// and reads the typed error; A is then still served, and so is B, each reply
/// byte-identical to the sequential twin's.
fn five_bit_query_costs_only_its_sender(hub: &HubHandle, twin: &mut CloudServer, corpus: &Corpus) {
    let twin_identical = |client: &mut NetClient, twin: &mut CloudServer, request: Request| {
        let reply = client.call(&request, WAIT).expect("the hub answers");
        let expected = twin.call(request);
        assert_eq!(reply, expected);
        assert_eq!(
            wire::encode_response(1, &reply),
            wire::encode_response(1, &expected)
        );
        reply
    };
    let mut a = NetClient::from_memory(hub.connect_memory());
    let refused = twin_identical(&mut a, twin, Request::Query(query_of(5)));
    assert_eq!(refused, size_mismatch(corpus, 5));
    twin_identical(&mut a, twin, Request::Query(corpus.queries[0].clone()));

    // A second connection: from here on the batcher carries every query.
    let mut b = NetClient::from_memory(hub.connect_memory());
    twin_identical(&mut b, twin, Request::ServerInfo);
    twin_identical(&mut b, twin, Request::Query(corpus.queries[1].clone()));
    twin_identical(&mut a, twin, Request::Query(query_of(5)));
    twin_identical(&mut b, twin, Request::Query(corpus.queries[2].clone()));
    twin_identical(&mut a, twin, Request::Query(corpus.queries[2].clone()));
}

#[test]
fn a_five_bit_query_over_a_hub_costs_only_its_sender() {
    let corpus = corpus();
    let hub = Hub::spawn(seeded_server(corpus, 2), HubConfig::default());
    let mut twin = seeded_server(corpus, 2);
    five_bit_query_costs_only_its_sender(&hub, &mut twin, corpus);
    hub.shutdown();
}

#[test]
fn a_five_bit_query_fails_no_node_of_a_three_node_fleet() {
    let corpus = corpus();
    let (coordinator, nodes) = seeded_fleet(corpus, &[2, 1, 1]);
    let telemetry = coordinator.telemetry_handle();
    let hub = Hub::spawn(coordinator, HubConfig::default());
    let mut twin = seeded_server(corpus, GLOBAL_SHARDS);
    five_bit_query_costs_only_its_sender(&hub, &mut twin, corpus);
    assert_eq!(counter(&telemetry, "failovers"), 0);
    assert_eq!(gauge(&telemetry, "nodes_live"), 3);
    hub.shutdown();
    for node in nodes {
        node.shutdown();
    }
}
