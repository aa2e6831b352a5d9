//! The allocation ratchet. A counting global allocator measures what one warm
//! query costs in heap allocations at each in-process rung of the read path —
//! the engine's `search_top`, `CloudServer::call(Query)`, the framed round
//! (decode the request, call, encode the reply, decode it as the client does)
//! and a `BatchQuery` of 16 — over a 1k- and a 64k-document store of two
//! shards, and holds each to the ceiling below; a warm cache hit is held to
//! its bytes as well, so it copies what a reply cut to `top` can use, not a
//! shard's whole list. Allocation counts are
//! deterministic for a given lane count, so they gate like any other test. A
//! change may lower a ceiling — and should, once it removes allocations —
//! while raising one must be named in the change that does it.
//!
//! A query runs on `min(cores, scan units)` lanes. The first is the caller's
//! own and allocates nothing in the lane pool; a call that deals lanes to
//! workers pays once for their latch and slot list, and every lane past the
//! first costs at most one allocation for its slot and one per query of the
//! call for folding its results into the reply's. So a ceiling is the
//! one-lane count, plus two once a lane is dealt, plus that much per extra
//! lane (`taskset -c 0` reads the one-lane counts). Each rung reports the fewest allocations over a few
//! warm calls: whether an extra lane claims a unit (and folds a result) is
//! up to the scheduler, and the fewest is the count with every lane warm.
//!
//! The whole ratchet is one test: the counter is global, and a second test
//! running beside it would count into it.

use mkse_core::bitindex::BitIndex;
use mkse_core::document_index::RankedDocumentIndex;
use mkse_core::params::SystemParams;
use mkse_core::query::QueryIndex;
use mkse_core::search::SearchMatch;
use mkse_core::{CacheConfig, SearchEngine};
use mkse_protocol::wire::{decode_request, decode_response, encode_request, encode_response};
use mkse_protocol::UploadMessage;
use mkse_protocol::{BatchQueryMessage, CloudServer, QueryMessage, Request, Response, Service};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Shards of every store the ratchet queries.
const SHARDS: usize = 2;
/// Documents per scan unit (8 chunks of 1,024).
const UNIT_DOCS: usize = 8 * 1024;
/// Bytes of a frame's length prefix; the decoders take what follows it.
const PREFIX: usize = 4;
/// Matches a reply keeps, as every benchmark query asks.
const TOP: usize = 10;

/// Per rung, at 1k and at 64k documents: the most allocations one warm call
/// may make on one lane, and the queries it carries. Dealing lanes adds two,
/// and every extra lane one plus one per query. Beyond the engine's share, a reply decodes each
/// match's stored index into η fresh `BitIndex`es and a `Vec` (four
/// allocations a match at η = 3), and the client decodes them again.
const CEILINGS: [(&str, [u64; 2], u64); 4] = [
    ("search_top", [7, 7], 1),
    ("call_query", [19, 51], 1),
    ("framed_query", [38, 130], 1),
    ("call_batch16", [174, 686], 16),
];

/// A warm cache hit — `search_top` on an engine whose cache holds the query
/// on both shards — scans nothing and deals no lane: at most this many
/// allocations, one of them a copy of each shard's cached list.
const HIT_ALLOCATIONS: u64 = 7;

/// Bytes a warm hit allocates beside the matches it copies: the execution's
/// bookkeeping and the reply (measured at 1k documents, where a shard's list
/// holds a match or two).
const HIT_BOOKKEEPING_BYTES: u64 = 320;

/// Index geometry: r = 64 keeps a debug build of 64k documents quick.
fn params() -> SystemParams {
    SystemParams::new(64, 4, 16, 0, 0, vec![1, 2, 3]).expect("valid parameters")
}

/// Index bit positions of topic `t`: 32 topics of two bits each.
fn topic(t: usize) -> [usize; 2] {
    [2 * t, 2 * t + 1]
}

/// Document `id` holds topics `id % 32` and `id / 32 % 32`: its levels are
/// zero at their bits and one everywhere else, so a query for topics `{a, b}`
/// matches the documents holding both (~`docs / 512`). Level 2 repeats level
/// 1 for two documents in three and level 3 for one in five; the others are
/// all ones, which a query with any zero rejects — ranks 1 to 3 all occur.
fn corpus(docs: usize) -> Vec<RankedDocumentIndex> {
    (0..docs)
        .map(|id| {
            let mut base = BitIndex::all_ones(64);
            for t in [id % 32, id / 32 % 32] {
                for bit in topic(t) {
                    base.set(bit, false);
                }
            }
            let or_ones = |holds: bool| {
                if holds {
                    base.clone()
                } else {
                    BitIndex::all_ones(64)
                }
            };
            RankedDocumentIndex {
                document_id: id as u64,
                levels: vec![base.clone(), or_ones(id % 3 != 0), or_ones(id % 5 == 0)],
            }
        })
        .collect()
}

/// The query for topics `a` and `b`.
fn query(a: usize, b: usize) -> BitIndex {
    let mut bits = BitIndex::all_ones(64);
    for bit in topic(a).into_iter().chain(topic(b)) {
        bits.set(bit, false);
    }
    bits
}

/// Warm calls `warm_cost` makes: three warm-ups, then five counted.
const CALLS: usize = 8;

/// `CALLS` copies of `request`, made before any is counted.
fn copies(request: &Request) -> Vec<Request> {
    vec![request.clone(); CALLS]
}

/// Fewest allocations (and their bytes) over five warm calls of `call`, after
/// three warm-ups.
fn warm_cost<T>(mut call: impl FnMut() -> T) -> (u64, u64) {
    for _ in 0..3 {
        drop(call());
    }
    (0..5)
        .map(|_| {
            let (allocations, bytes) = (
                ALLOCATIONS.load(Ordering::SeqCst),
                BYTES.load(Ordering::SeqCst),
            );
            let reply = call();
            let cost = (
                ALLOCATIONS.load(Ordering::SeqCst) - allocations,
                BYTES.load(Ordering::SeqCst) - bytes,
            );
            drop(reply);
            cost
        })
        .min()
        .expect("five calls")
}

#[test]
fn warm_queries_stay_under_their_allocation_ceilings() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let mut over = Vec::new();
    for (size, docs) in [1_000usize, 64_000].into_iter().enumerate() {
        let indices = corpus(docs);
        let units = (SHARDS * docs.div_ceil(SHARDS).div_ceil(UNIT_DOCS)) as u64;
        let extra_lanes = cores.min(units) - 1;
        let q = query(3, 17);
        let batch: Vec<BitIndex> = (0..16).map(|i| query(i, (i + 7) % 32)).collect();

        let mut engine = SearchEngine::sharded(params(), SHARDS);
        engine.insert_all(indices.iter().cloned()).expect("upload");
        let engine_query = QueryIndex::from_bits(q.clone());
        assert!(
            engine.search(&engine_query).len() >= docs / 1000,
            "{docs} documents"
        );

        let mut server = CloudServer::with_shards(params(), SHARDS);
        let upload = Request::Upload(UploadMessage {
            indices,
            documents: Vec::new(),
        });
        assert!(matches!(server.call(upload), Response::Uploaded { .. }));
        let single = Request::Query(QueryMessage {
            query: q.clone(),
            top: Some(TOP),
        });
        let frame = encode_request(7, &single);
        let batch16 = Request::BatchQuery(BatchQueryMessage {
            queries: batch,
            top: Some(TOP),
        });

        let (mut singles, mut batches) = (copies(&single), copies(&batch16));
        let costs = [
            warm_cost(|| engine.search_top(&engine_query, TOP)),
            warm_cost(|| server.call(singles.pop().expect("a copy per call"))),
            warm_cost(|| {
                let (id, request) = decode_request(&frame[PREFIX..]).expect("a well-formed frame");
                let reply = encode_response(id, &server.call(request));
                decode_response(&reply[PREFIX..]).expect("a well-formed reply")
            }),
            warm_cost(|| server.call(batches.pop().expect("a copy per call"))),
        ];
        for ((rung, ceilings, queries), (allocations, bytes)) in CEILINGS.iter().zip(costs) {
            let dealing = if extra_lanes > 0 { 2 } else { 0 };
            let ceiling = ceilings[size] + dealing + (1 + queries) * extra_lanes;
            println!(
                "{rung:>13} at {docs:>6} documents: {allocations:>4} allocations \
                 ({bytes} B), ceiling {ceiling}"
            );
            if allocations > ceiling {
                over.push(format!(
                    "{rung} at {docs} documents: {allocations} > {ceiling}"
                ));
            }
        }

        // A cached entry holds each scan lane's best `TOP` of its shard, so a
        // hit copies at most `lanes · TOP` matches per shard (2·TOP on two
        // cores) out of the cache and again into the merged list — never the
        // shard's whole list (~60 matches per shard at 64k documents).
        engine.enable_cache(CacheConfig::default());
        let (allocations, bytes) = warm_cost(|| engine.search_top(&engine_query, TOP));
        let lanes_per_shard = cores.min(units / SHARDS as u64);
        let matches = 2 * SHARDS as u64 * lanes_per_shard * TOP as u64;
        let byte_ceiling = HIT_BOOKKEEPING_BYTES + matches * size_of::<SearchMatch>() as u64;
        println!(
            "search_top_hit at {docs:>6} documents: {allocations:>4} allocations \
             ({bytes} B), ceiling {HIT_ALLOCATIONS} ({byte_ceiling} B)"
        );
        if allocations > HIT_ALLOCATIONS || bytes > byte_ceiling {
            over.push(format!(
                "search_top_hit at {docs} documents: {allocations} allocations ({bytes} B) > \
                 {HIT_ALLOCATIONS} ({byte_ceiling} B)"
            ));
        }
    }
    assert!(over.is_empty(), "allocation ceilings exceeded: {over:?}");
}
