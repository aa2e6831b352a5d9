//! The oracle matrix: one seeded [`Script`] on every path, one row per path,
//! judged against the reference the script resolves: `CloudIndex` for
//! replies, and a model of the counters, cache and deployment facts each op
//! changes.
//!
//! - `engine[corpus, shards, lanes, cache, spans]`: [`SearchEngine`]s, from a
//!   restore into an empty engine. After every op: the reference's replies,
//!   stats, lookups, snapshot bytes and restores; planes tracking the store;
//!   the one-lane, telemetry-off row's cache counters. Only Spans records.
//! - `call-twin`, `call`, `client`, `client-pipelined` and `resilient`: one
//!   server, every reply — `Counters`, `CacheStats`, `ServerInfo` and each
//!   search reply's `CacheReport` included — the model's, frame for frame.
//! - `fleet[nodes=1|3]`, `fleet[nodes=3, kill]` and `fleet[nodes=3,
//!   cascade]`: a coordinator over in-process nodes, every reply the model's
//!   seen through [`fleet_view`] — across a node killed mid-query, and a
//!   survivor killed mid-failover — with the failover accounting, and a
//!   killing row's rerun equal in registry and fault logs.
//! - `hub-tcp` and `hub-memory`: journal replay and the hub's accounting.
//! - `chaos[kill|corrupt|shed|replay]`: `ResilientClient`s on faulty links
//!   against a journaling hub, one test per row: every completed reply the
//!   journal replay's, every client's attempts conserved.
//!
//! A failure names its seed, row and op; the script depends on its seed
//! alone, so a rerun replays it.

use mkse::core::scanplane::CHUNK;
use mkse::core::*;
use mkse::net::{ClientError, FaultEvent, FaultHandle, FaultPlan, Hub, HubConfig, HubHandle};
use mkse::net::{HubReport, NetClient, ResilienceStats, ResilientClient, RetryPolicy};
use mkse::protocol::{render_json, render_prometheus, Client, CloudServer, ProtocolError};
use mkse::protocol::{Request, Response, Service, TypedCalls, WireStats};
use mkse::textproc::corpus::{CorpusSpec, FrequencyModel, SyntheticCorpus};
use mkse_testkit::{assert_conservation, assert_replies_match_replay, chaos_connector, frame_len};
use mkse_testkit::{assert_replies, at, fleet_view, scheme, Fixture, Op, Script, Step};
use mkse_testkit::{forward_len, forwarded_query_len, replay_journal, ship_len};
use mkse_testkit::{Fleet, NodeSpec, GLOBAL_SHARDS};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

/// An even seed (capacity 64, every query) and an odd one (capacity 4).
const SEEDS: [u64; 2] = [42, 43];

// --- the corpora --------------------------------------------------------------

/// The scheme corpus's server at `shards` shards, counting: every served row
/// and the hub's engine.
fn server(shards: usize) -> CloudServer {
    let server = scheme().server(shards, false);
    server.set_telemetry_level(TelemetryLevel::Counters);
    server
}

/// `r` bits, each set with probability `ones`.
fn bits(rng: &mut StdRng, r: usize, ones: f64) -> BitIndex {
    BitIndex::from_bits(&(0..r).map(|_| rng.gen_bool(ones)).collect::<Vec<_>>())
}

/// 1,280 scheme-indexed documents, each followed by 14 of random bits (18.75
/// chunks: several scan units per shard at 1 and 2 shards), queried by
/// keyword pairs of real documents and randomized single keywords.
fn padded() -> Fixture {
    let params = SystemParams::new(128, 4, 16, 10, 5, vec![1, 3, 6]).unwrap();
    let mut rng = StdRng::seed_from_u64(43);
    let keys = SchemeKeys::generate(&params, &mut rng);
    let spec = CorpusSpec {
        num_documents: CHUNK + 256,
        vocabulary_size: 60,
        keywords_per_document: 6,
        frequency_model: FrequencyModel::Uniform { lo: 1, hi: 8 },
    };
    let docs = SyntheticCorpus::generate(&spec, &mut rng).documents;
    let pool = keys.random_pool_trapdoors(&params);
    let mut queries = Vec::new();
    for _ in 0..2 {
        let keywords = docs[rng.gen_range(0..docs.len())].keywords();
        let pair_trapdoors = keys.trapdoors_for(&params, &keywords[..2]);
        let one_trapdoors = keys.trapdoors_for(&params, &keywords[..1]);
        let pair = QueryBuilder::new(&params).add_trapdoors(&pair_trapdoors);
        let one =
            (QueryBuilder::new(&params).add_trapdoors(&one_trapdoors)).with_randomization(&pool);
        queries.push(pair.build(&mut rng).bits().clone());
        queries.push(one.build(&mut rng).bits().clone());
    }
    let indexer = DocumentIndexer::new(&params, &keys);
    let mut indices = Vec::new();
    for (i, doc) in docs.iter().enumerate() {
        indices.push(indexer.index_document(doc));
        indices.extend((1..15).map(|j| RankedDocumentIndex {
            document_id: 1_000_000 + (i * 15 + j) as u64,
            levels: (0..3).map(|_| bits(&mut rng, 128, 0.3)).collect(),
        }));
    }
    Fixture::bare(params, queries, indices)
}

/// 9,537 documents of dense arbitrary bits at r = 65 (one past a word), η = 2
/// — two scan units at one shard — queried at the row-selection extremes:
/// sparse and dense zeros, all ones, all zeros and a stored base level. Ids
/// are shuffled: slot order is not id order, so a unit's best k among rank
/// ties are not its first k.
fn ragged() -> Fixture {
    let params = SystemParams::new(65, 4, 16, 0, 0, vec![1, 2]).unwrap();
    let mut rng = StdRng::seed_from_u64(96);
    let levels: Vec<Vec<BitIndex>> = (0..9 * CHUNK + 321)
        .map(|_| (0..2).map(|_| bits(&mut rng, 65, 0.95)).collect())
        .collect();
    let (sparse, dense) = (bits(&mut rng, 65, 0.98), bits(&mut rng, 65, 0.7));
    let (ones, zeros) = (BitIndex::all_ones(65), BitIndex::all_zeros(65));
    let queries = vec![sparse, dense, ones, zeros, levels[0][0].clone()];
    let mut ids: Vec<u64> = (1000..1000 + levels.len() as u64).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let indices = (ids.into_iter().zip(levels))
        .map(|(document_id, levels)| RankedDocumentIndex {
            document_id,
            levels,
        })
        .collect();
    Fixture::bare(params, queries, indices)
}

// --- engine rows ----------------------------------------------------------------

/// Every shard's plane holds exactly its shard's documents, in slot order.
fn planes_track_store(engine: &SearchEngine, at: &str) {
    let store = engine.store();
    for shard in 0..store.num_shards() {
        let ids: Vec<u64> = store.shard_entries(shard).map(|e| e.document_id).collect();
        assert_eq!(engine.scan_plane(shard).ids(), ids, "{at}: shard {shard}");
    }
}

/// One op on an engine, judged against the reference. Cache admin, counters,
/// info and the misrouted op are the server's; an engine has none of them.
fn engine_step(engine: &mut SearchEngine, step: &Step, at: &str) {
    let reply = match (&step.op, step.requests.first()) {
        (Op::Query(..) | Op::Group(_) | Op::Batch(..), _) => {
            let queries: Vec<QueryIndex> = step.ranked.iter().map(|r| r.0.clone()).collect();
            let tops: Vec<Option<usize>> = step.ranked.iter().map(|r| r.1).collect();
            let got = engine.search_batch_with_effects(&queries, &tops);
            for (i, (got, want)) in got.iter().zip(&step.ranked).enumerate() {
                assert_eq!((&got.0, &got.1), (&want.2, &want.3), "{at}, position {i}");
            }
            return;
        }
        (Op::Documents(_), _) => {
            let lookup = |&(id, _): &(u64, _)| (id, engine.document_index(id));
            let got: Vec<_> = step.lookups.iter().map(lookup).collect();
            assert_eq!(got, step.lookups, "{at}: lookups");
            return;
        }
        (_, Some(Request::Upload(upload))) => {
            match engine.insert_all(upload.indices.iter().cloned()) {
                Ok(()) => Response::Uploaded {
                    documents: engine.len() as u64,
                },
                Err(e) => Response::Error(e.into()),
            }
        }
        (_, Some(Request::RestoreIndex(bytes))) => match engine.restore_snapshot(bytes) {
            Ok(documents) => Response::Restored {
                documents: documents as u64,
            },
            Err(e) => Response::Error(e.into()),
        },
        (Op::Snapshot, _) => Response::Snapshot(engine.snapshot()),
        _ => return,
    };
    assert!(reply == step.replies[0], "{at}: {}", reply.name());
    planes_track_store(engine, at);
}

/// Every engine configuration on `fixture`, each seed's script resolved once.
/// Each shard count and cache starts from a restore into an empty engine,
/// its cache set first; each lane count and telemetry level runs a clone of
/// it, whose planes are derived afresh.
fn engine_rows(name: &str, fixture: &Fixture, seeds: &[u64]) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut lanes: Vec<usize> = [1, 2, 3].map(|lanes: usize| lanes.min(cores)).to_vec();
    lanes.dedup();
    let seeded = &fixture.seed_upload.indices;
    let bytes = serialize_store(&fixture.params, seeded);
    let default = CacheConfig::default().capacity_per_shard;
    let resolve = |&seed: &u64| (seed, Script::generate(seed, fixture).resolve(fixture, 1, 1));
    let scripts: Vec<(u64, Vec<Step>)> = seeds.iter().map(resolve).collect();
    for shards in [1, 2, 7, 16] {
        for cache in [None, Some(4), Some(default)] {
            let row = format!("engine[{name}, {shards}, {cache:?}]");
            let mut restored = SearchEngine::sharded(fixture.params.clone(), shards);
            if let Some(capacity_per_shard) = cache {
                restored.enable_cache(CacheConfig { capacity_per_shard });
            }
            let got = (restored.restore_snapshot(&bytes), restored.cache_stats());
            let cold = cache.map(|_| CacheStats::default());
            assert_eq!(got, (Ok(seeded.len()), cold), "{row}: restore");
            planes_track_store(&restored, &row);
            for (seed, steps) in &scripts {
                // The one-lane, telemetry-off row's cache counters after each op.
                let mut first: Vec<Option<CacheStats>> = Vec::new();
                for &lanes in &lanes {
                    for spans in [false, true] {
                        let row = format!("engine[{name}, {shards}, {lanes}, {cache:?}, {spans}]");
                        let mut engine = restored.clone().with_scan_lanes(lanes);
                        if spans {
                            engine.set_telemetry_level(TelemetryLevel::Spans);
                        }
                        planes_track_store(&engine, &row);
                        for (i, step) in steps.iter().enumerate() {
                            let at = at(*seed, &row, i, step);
                            engine_step(&mut engine, step, &at);
                            match first.get(i) {
                                Some(want) => assert_eq!(&engine.cache_stats(), want, "{at}"),
                                None => first.push(engine.cache_stats()),
                            }
                        }
                        let registry = engine.telemetry().snapshot();
                        let timed = registry.histograms.iter().any(|h| h.stage == "unit_scan");
                        let counted = registry.counter("batch_queries") > 0;
                        assert_eq!((timed, counted), (spans, spans), "seed {seed}, {row}");
                    }
                }
            }
        }
    }
}

#[test]
fn engine_rows_on_the_scheme_corpus() {
    engine_rows("scheme", scheme(), &SEEDS);
}

#[test]
fn engine_rows_on_the_padded_corpus() {
    engine_rows("padded", &padded(), &SEEDS[..1]);
}

#[test]
fn engine_rows_on_the_ragged_corpus() {
    engine_rows("ragged", &ragged(), &SEEDS[..1]);
}

// --- served rows ----------------------------------------------------------------

/// `answer` applied to every request of every step.
fn each<T>(steps: &[Step], mut answer: impl FnMut(&Request) -> T) -> Vec<Vec<T>> {
    let step = |s: &Step| s.requests.iter().map(&mut answer).collect();
    steps.iter().map(step).collect()
}

/// One request as its typed call, the answer put back into its envelope
/// variant — a refusal as `Response::Error`.
fn typed<C: TypedCalls>(c: &mut C, r: &Request, no: fn(C::Error) -> ProtocolError) -> Response {
    let answer = match r.clone() {
        Request::Query(m) => c.query(&m).map(Response::Search),
        Request::BatchQuery(b) => c.batch_query(&b).map(Response::BatchSearch),
        Request::Documents(d) => c.fetch_documents(&d).map(Response::Documents),
        Request::Upload(u) => {
            (c.upload(u.indices, u.documents)).map(|documents| Response::Uploaded { documents })
        }
        Request::EnableCache { capacity_per_shard } => {
            c.enable_cache(capacity_per_shard).map(|()| Response::Ack)
        }
        Request::DisableCache => c.disable_cache().map(|()| Response::Ack),
        Request::CacheStats => c.remote_cache_stats().map(Response::CacheStats),
        Request::SnapshotIndex => c.snapshot().map(Response::Snapshot),
        Request::RestoreIndex(b) => c
            .restore(b)
            .map(|documents| Response::Restored { documents }),
        Request::Counters => c.remote_counters().map(Response::Counters),
        Request::ResetCounters => c.reset_remote_counters().map(|()| Response::Ack),
        Request::ServerInfo => c.server_info().map(Response::Info),
        Request::BlindDecrypt(b) => c.blind_decrypt(&b).map(Response::BlindDecrypt),
        other => unreachable!("no op sends {}", other.name()),
    };
    answer.unwrap_or_else(|e| Response::Error(no(e)))
}

/// One step on a service: a group through `call_query_group`, any other op
/// one `call` per request.
fn serve(service: &mut impl Service, step: &Step) -> Vec<Response> {
    match &step.op {
        Op::Group(_) => {
            let query = |r: &Request| match r {
                Request::Query(message) => message.clone(),
                _ => unreachable!("a group sends queries"),
            };
            let messages: Vec<_> = step.requests.iter().map(query).collect();
            service.call_query_group(&messages)
        }
        _ => (step.requests.iter())
            .map(|r| service.call(r.clone()))
            .collect(),
    }
}

#[test]
fn served_rows() {
    for seed in SEEDS {
        let script = Script::generate(seed, scheme());
        let mut at_two = Vec::new();
        for shards in [1, 2, 7, 16] {
            let steps = script.resolve(scheme(), shards, 1);
            let row = format!("call-twin[shards={shards}]");
            let mut twin = server(shards);
            let got = each(&steps, |r| twin.call(r.clone()));
            assert_replies(seed, &row, &steps, &got);

            let row = format!("call[shards={shards}]");
            let mut served = server(shards);
            // An empty group serves nothing: the first `Counters` reads 1.
            assert!(served.call_query_group(&[]).is_empty());
            let got: Vec<_> = steps.iter().map(|step| serve(&mut served, step)).collect();
            assert_replies(seed, &row, &steps, &got);

            let row = format!("client[shards={shards}]");
            let mut client = Client::new(server(shards));
            let got = each(&steps, |r| typed(&mut client, r, |e| e));
            assert_replies(seed, &row, &steps, &got);
            if shards == 2 {
                pipelined_and_resilient_rows(seed, &steps, twin);
                at_two = steps;
            }
        }
        // Two refused uploads, a missing document, two refused restores and
        // the misrouted op.
        let replies = at_two.iter().flat_map(|step| &step.replies);
        let refusals = replies.filter(|r| matches!(r, Response::Error(_))).count();
        assert_eq!(refusals, 6, "seed {seed}: refusals");
        fleet_rows(seed, &script);
        hub_rows(seed, &at_two);
    }
}

/// `fleet[nodes=1]` (one node holding every global shard), `fleet[nodes=3]`
/// (shard slots 2, 1 and 0) and two rows whose node links die on byte
/// budgets: `fleet[nodes=3, kill]` loses node 1 on its seventh query forward
/// and re-homes its two shards, and `fleet[nodes=3, cascade]` loses node 1
/// on its third, then node 3 — which joined empty, so it is the first pick —
/// half-way through the ship of shard 0, leaving node 2 every shard. Each row
/// ends with its live nodes, failovers and re-homed shards; the fleet series
/// reach both renders of the coordinator's registry; and a killing row loses
/// its node before a group, an upload and a `ServerInfo`, and reruns to the
/// same registry and fault logs.
fn fleet_rows(seed: u64, script: &Script) {
    let fx = scheme();
    let q = forwarded_query_len(&fx.queries[0]);
    let forward = forward_len(&fx.seed_upload.indices, &[0, 1]);
    // Node 1's link carries the upload forward and six query forwards, or
    // two; node 3's first bytes are the ship of shard 0.
    let (seventh, third) = (Some(forward + 6 * q + q / 2), Some(forward + 2 * q + q / 2));
    let mid_ship = Some(ship_len(&fx.params, &fx.seed_upload.indices, 0) / 2);
    // Each row's live nodes, failovers and re-homed shards at the end.
    let rows: [(&str, &[NodeSpec], [u64; 3]); 4] = [
        ("fleet[nodes=1]", &[(1, 0, None)], [1, 0, 0]),
        (
            "fleet[nodes=3]",
            &[(1, 2, None), (2, 1, None), (3, 0, None)],
            [3, 0, 0],
        ),
        (
            "fleet[nodes=3, kill]",
            &[(1, 2, seventh), (2, 1, None), (3, 0, None)],
            [2, 1, 2],
        ),
        (
            "fleet[nodes=3, cascade]",
            &[(1, 2, third), (2, 0, None), (3, 0, mid_ship)],
            [1, 2, 2],
        ),
    ];
    let series = [
        "nodes_registered",
        "nodes_live",
        "failovers",
        "heartbeats_missed",
        "shards_reassigned",
    ];
    for (row, nodes, accounting) in rows {
        let at = format!("seed {seed}, {row}");
        let (killed_at, registry, logs) = fleet_row(seed, script, row, nodes);
        let live = registry.gauge("nodes_live");
        let failovers = ["failovers", "shards_reassigned"].map(|name| registry.counter(name));
        let counted = [live, failovers[0], failovers[1]];
        assert_eq!(counted, accounting, "{at}: live nodes, failovers, re-homed");
        let (prometheus, json) = (render_prometheus(&registry), render_json(&registry));
        for series in series {
            assert!(
                prometheus.contains(series),
                "{at}: Prometheus lacks {series}"
            );
            assert!(json.contains(series), "{at}: JSON lacks {series}");
        }
        let Some(killed_at) = killed_at else { continue };
        let after = &script.ops[killed_at + 1..];
        let group = after.iter().any(|op| matches!(op, Op::Group(_)));
        let upload = after.iter().any(|op| matches!(op, Op::Upload(_)));
        let info = after.iter().any(|op| matches!(op, Op::ServerInfo));
        assert!(
            group && upload && info,
            "{at}: killed late, at op {killed_at}"
        );
        let rerun = fleet_row(seed, script, row, nodes);
        let kept = |s: &MetricsSnapshot| (s.counters.clone(), s.gauges.clone());
        let first = (Some(killed_at), kept(&registry), logs);
        let again = (rerun.0, kept(&rerun.1), rerun.2);
        assert_eq!(again, first, "{at}: a rerun's kill, registry or fault logs");
    }
}

/// One fleet row: a coordinator kept in process over the seed upload, every
/// op through `call` or `call_query_group`, every reply the model's seen
/// through [`fleet_view`]. It returns the op its first failover happened in,
/// the coordinator's registry and the node links' fault logs.
fn fleet_row(
    seed: u64,
    script: &Script,
    row: &str,
    nodes: &[NodeSpec],
) -> (Option<usize>, MetricsSnapshot, Vec<Vec<FaultEvent>>) {
    // The fleet served its registrations and the seed upload.
    let built = nodes.len() as u64 + 1;
    let steps = script.resolve(scheme(), GLOBAL_SHARDS, built);
    let steps: Vec<Step> = steps.into_iter().map(fleet_view).collect();
    let corpus = &scheme().seed_upload;
    let (mut coordinator, runners, handles) = Fleet::in_process(&scheme().params, nodes, corpus);
    let registry = coordinator.telemetry_handle();
    let mut killed_at = None;
    let mut got = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        got.push(serve(&mut coordinator, step));
        if killed_at.is_none() && registry.snapshot().counter("failovers") > 0 {
            killed_at = Some(i);
        }
    }
    assert_replies(seed, row, &steps, &got);
    for runner in runners {
        runner.shutdown();
    }
    let logs = handles.lock().unwrap().iter().map(|h| h.log()).collect();
    (killed_at, registry.snapshot(), logs)
}

/// `client-pipelined` and `resilient`, at two shards; `twin` ran the script
/// through `call`.
fn pipelined_and_resilient_rows(seed: u64, steps: &[Step], mut twin: CloudServer) {
    // The whole script submitted and flushed once, taken in reverse: replies
    // correlate by request id, not arrival.
    let mut client = Client::new(server(2));
    let ids = each(steps, |r| client.submit(r));
    assert_eq!(client.ready(), 0, "seed {seed}: before the flush");
    client.flush().expect("pipelined flush");
    assert_eq!(client.ready(), ids.concat().len(), "seed {seed}");
    let mut got = vec![vec![]; ids.len()];
    for (i, ids) in ids.iter().enumerate().rev() {
        for id in ids.iter().rev() {
            got[i].push(client.take(*id).expect("correlated"));
        }
        got[i].reverse();
    }
    assert_eq!(client.ready(), 0, "seed {seed}: after the takes");
    assert_replies(seed, "client-pipelined", steps, &got);

    let hub = Hub::spawn(server(2), HubConfig::default());
    let connector = hub.memory_dialer().connector();
    let mut remote = ResilientClient::new(connector, RetryPolicy::default());
    // Over a live hub a refusal is a reply, never a transport failure.
    let replied = |e| match e {
        ClientError::Reply(e) => e,
        other => panic!("the hub did not answer: {other}"),
    };
    let got = each(steps, |r| typed(&mut remote, r, replied));
    assert_replies(seed, "resilient", steps, &got);
    // The engine's counters are the twin's; the hub adds only its own.
    let local = twin.call(Request::MetricsSnapshot);
    let local = local.into_metrics_report().expect("in process");
    let remote = remote.metrics_snapshot().expect("over the hub");
    let names = ["requests_served", "inserts", "shard_scans", "batch_queries"];
    let engine = |s: &MetricsSnapshot| {
        let shard_rows = s.labelled.iter().filter(|row| row.label == "shard");
        (
            s.level,
            names.map(|name| s.counter(name)),
            shard_rows.cloned().collect::<Vec<_>>(),
        )
    };
    assert_eq!(engine(&local), engine(&remote), "seed {seed}, resilient");
    hub.shutdown();
}

/// One step's requests submitted and flushed at once, replies awaited in
/// reverse order.
fn pipelined(client: &mut NetClient, step: &Step) -> Vec<(u64, Response)> {
    let ids: Vec<u64> = step.requests.iter().map(|r| client.submit(r)).collect();
    client.flush().expect("flush");
    let wait = |&id: &u64| (id, client.wait_take(id, WAIT).expect("reply"));
    let mut replies: Vec<_> = ids.iter().rev().map(wait).collect();
    replies.reverse();
    replies
}

/// A journaling hub over the scheme corpus at two shards, and its registry.
fn journaling_hub(batch_window: Duration, batch_depth: usize) -> (HubHandle, Telemetry) {
    let server = server(2);
    let telemetry = server.telemetry().expect("a registry").clone();
    let config = HubConfig {
        batch_window,
        batch_depth,
        journal: true,
        ..HubConfig::default()
    };
    (Hub::spawn(server, config), telemetry)
}

/// A shut-down hub's journal, replayed, gives every reply `got` holds; in the
/// registry `s`, every journaled `Query` ran once through the batcher and the
/// engine, one occupancy sample per flush, and every frame in was answered,
/// connection by connection, in accept order.
fn judge_hub(
    row: &str,
    hub: HubReport,
    s: &MetricsSnapshot,
    ws: &[WireStats],
    got: &[(u64, Response)],
) {
    assert_eq!(hub.requests, got.len() as u64, "{row}: replies");
    let expected = replay_journal(&mut server(2), &hub.journal);
    assert_replies_match_replay(got, &expected, row);
    let found = |(_, r): &_| matches!(r, Response::Search(s) if !s.matches.is_empty());
    assert!(got.iter().any(found), "{row}: no match");
    assert!(
        s.labelled_sum("shard_cache_hits") > 0,
        "{row}: no cache hit"
    );
    let (mut singles, mut batched) = (0, 0);
    for entry in &hub.journal {
        match &entry.request {
            Request::Query(_) => singles += 1,
            Request::BatchQuery(b) => batched += b.queries.len() as u64,
            _ => {}
        }
    }
    let frames: u64 = ws.iter().map(|w| w.frames_sent).sum();
    let connections = ws.len() as u64;
    let names = [
        "batcher_coalesced_queries",
        "batch_queries",
        "wire_frames_in",
        "wire_frames_out",
        "connections_opened",
    ];
    let counted = names.map(|name| s.counter(name));
    let want = [singles, singles + batched, frames, frames, connections];
    assert_eq!(counted, want, "{row}: queries, frames and connections");
    let reasons = ["complete", "window", "depth", "barrier", "shutdown"];
    let flush = |reason| s.counter(&format!("batcher_flush_{reason}"));
    let flushes: u64 = reasons.map(flush).iter().sum();
    let o = s.values.iter().find(|v| v.series == "batch_occupancy");
    let o = o.expect("the hub records batch occupancy");
    assert_eq!((o.count, o.sum), (flushes, singles), "{row}: occupancy");
    let fields = ["frames_in", "bytes_in", "frames_out", "bytes_out"];
    let served_on = |c| fields.map(|f| s.labelled(&format!("connection_{f}"), c));
    let mut served: Vec<_> = (0..connections as u32).map(served_on).collect();
    let sent_on = |w: &WireStats| {
        [
            w.frames_sent,
            w.bytes_sent,
            w.frames_received,
            w.bytes_received,
        ]
    };
    let mut sent: Vec<_> = ws.iter().map(sent_on).collect();
    served.sort_unstable();
    sent.sort_unstable();
    assert_eq!(served, sent, "{row}: per-connection frames");
}

/// `hub-tcp` and `hub-memory`: the script through a hub, judged by
/// [`judge_hub`].
fn hub_rows(seed: u64, steps: &[Step]) {
    let script: usize = steps.iter().map(|s| s.requests.len()).sum();
    let run = |client: &mut NetClient| -> Vec<(u64, Response)> {
        steps.iter().flat_map(|s| pipelined(client, s)).collect()
    };

    // Four TCP clients and two memory ones, each running the whole
    // script at once.
    let (hub, telemetry) = journaling_hub(Duration::from_millis(2), 4);
    let addr = hub.bind_tcp("127.0.0.1:0").expect("bind");
    let worker = |k: u64| {
        let client = match k < 4 {
            true => NetClient::connect_tcp(addr).expect("connect"),
            false => NetClient::from_memory(hub.connect_memory()),
        };
        let mut client = client.with_first_request_id((k + 1) << 20);
        move || (run(&mut client), client.wire_stats())
    };
    let runs: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..6).map(|k| scope.spawn(worker(k))).collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let (received, wire): (Vec<Vec<_>>, Vec<_>) = runs.into_iter().unzip();
    // Read while the hub still runs: a reply its client holds is counted.
    let registry = telemetry.snapshot();
    let row = format!("hub-tcp[seed {seed}]");
    judge_hub(&row, hub.shutdown(), &registry, &wire, &received.concat());

    // One client under a window and depth nothing reaches — a group
    // flushes complete or at shutdown. It then goes quiet, so a second
    // client's queries wait for it until shutdown drains them.
    let (hub, telemetry) = journaling_hub(Duration::from_secs(10), 1 << 20);
    let mut client = NetClient::from_memory(hub.connect_memory());
    let mut received = run(&mut client);
    let mut second = NetClient::from_memory(hub.connect_memory()).with_first_request_id(1 << 20);
    let queries = &scheme().queries;
    let ids: Vec<u64> = (queries.iter())
        .map(|query| second.submit(&Request::Query(query.clone())))
        .collect();
    second.flush().expect("flush");
    while hub.frames_accepted() < (script + queries.len()) as u64 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = hub.shutdown();
    for id in ids {
        received.push((id, second.wait_take(id, WAIT).expect("drained")));
    }
    let wire = [client.wire_stats(), second.wire_stats()];
    let row = format!("hub-memory[seed {seed}]");
    judge_hub(&row, report, &telemetry.snapshot(), &wire, &received);
}

// --- chaos rows -----------------------------------------------------------------

/// A fault row: `clients` resilient clients against one journaling hub, each
/// link under `plan` and each client under `policy`, seeds moved per client.
struct Chaos {
    name: &'static str,
    clients: u64,
    hub: HubConfig,
    plan: FaultPlan,
    policy: RetryPolicy,
}

/// What one client of a chaos row did: the outcome of each request of the
/// steps, its stats and its links' fault handles.
struct Run {
    calls: Vec<Result<(u64, Response), ClientError>>,
    stats: ResilienceStats,
    handles: Vec<FaultHandle>,
}

impl Chaos {
    /// Every client released at once runs every request of `steps` — a
    /// group's members as single queries — over its own chaos connector;
    /// `registry` counts the clients' retries and their links' faults. The
    /// run is judged before it is returned.
    fn run(&self, seed: u64, steps: &[Step], registry: Option<&Telemetry>) -> Vec<Run> {
        let hub = Hub::spawn(server(2), self.hub.clone());
        let start = Barrier::new(self.clients as usize);
        let client = |k: u64| {
            let handles = Arc::new(Mutex::new(Vec::new()));
            let plan = self.plan;
            let plan = move |ordinal| FaultPlan {
                seed: plan.seed + k * 1013 + ordinal,
                ..plan
            };
            let dialer = hub.memory_dialer();
            let connector = chaos_connector(dialer, plan, registry.cloned(), handles.clone());
            let policy = RetryPolicy {
                jitter_seed: self.policy.jitter_seed + k,
                ..self.policy
            };
            let mut client =
                ResilientClient::new(connector, policy).with_first_request_id(k * 1_000_000 + 1);
            if let Some(registry) = registry {
                client = client.with_telemetry(registry.clone());
            }
            let start = &start;
            move || {
                start.wait();
                let requests = steps.iter().flat_map(|step| &step.requests);
                let calls = requests
                    .map(|request| client.call_traced(request))
                    .collect();
                let handles = handles.lock().unwrap().clone();
                Run {
                    calls,
                    stats: client.stats(),
                    handles,
                }
            }
        };
        let runs: Vec<Run> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.clients).map(|k| scope.spawn(client(k))).collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        self.judge(seed, steps, &hub.shutdown(), &runs);
        runs
    }

    /// The judge of every chaos row: each client's attempts add up, every
    /// completed reply is the journal replay's, and a call fails only as
    /// the row's faults allow.
    fn judge(&self, seed: u64, steps: &[Step], report: &HubReport, runs: &[Run]) {
        let row = format!("seed {seed}, {}", self.name);
        let corrupts = self.plan.corrupt_write_per_mille > 0;
        let mut received = Vec::new();
        let mut sent = BTreeMap::new();
        for (k, run) in runs.iter().enumerate() {
            assert_conservation(&run.stats, &format!("{row}, client {k}"));
            let requests = steps.iter().flat_map(|step| &step.requests);
            for (request, outcome) in requests.zip(&run.calls) {
                match outcome {
                    Ok((id, reply)) => {
                        sent.insert(*id, request);
                        received.push((*id, reply.clone()));
                    }
                    // A write that lost its link is never resubmitted.
                    Err(ClientError::RetryUnsafe { .. })
                        if !ResilientClient::is_idempotent(request) => {}
                    // Sustained corruption may exhaust a call's budget.
                    Err(e) => assert!(corrupts, "{row}, client {k}: {}: {e}", request.name()),
                }
            }
        }
        let sheds: u64 = runs.iter().map(|run| run.stats.sheds).sum();
        assert_eq!(report.sheds, sheds, "{row}: sheds");
        let journaled = report.journal.len() as u64;
        assert_eq!(journaled, report.requests, "{row}: journal");
        let found = |(_, r): &_| matches!(r, Response::Search(s) if !s.matches.is_empty());
        assert!(received.iter().any(found), "{row}: no match");
        if corrupts {
            // A flipped bit can make a `MetricsSnapshot`, which the replay
            // does not answer, or reuse an id its client already completed:
            // neither reply is compared.
            let mut ids: BTreeMap<u64, Vec<&Request>> = BTreeMap::new();
            for entry in &report.journal {
                let requests = ids.entry(entry.request_id).or_default();
                requests.push(&entry.request);
            }
            received.retain(|(id, _)| {
                let requests = ids.get(id).map(Vec::as_slice);
                !matches!(requests, Some([Request::MetricsSnapshot] | [_, _, ..]))
            });
        } else {
            // Kills and tears cut a request short, never change it: the hub
            // ran what each client sent, under the id it completed with.
            for entry in &report.journal {
                let id = entry.request_id;
                assert_eq!(sent.get(&id), Some(&&entry.request), "{row}: #{id}");
            }
            let successes: u64 = runs.iter().map(|run| run.stats.successes).sum();
            assert_eq!(report.requests, successes, "{row}: executed");
        }
        let expected = replay_journal(&mut server(2), &report.journal);
        assert_replies_match_replay(&received, &expected, &row);
    }
}

/// Seed 42's script at two shards, and the `chaos[kill]` row the other
/// chaos rows are built from.
fn kill_chaos() -> (Vec<Step>, Chaos) {
    let steps = Script::generate(SEEDS[0], scheme()).resolve(scheme(), 2, 1);
    // A link dies after three and a half of the widest idempotent frame: a
    // fresh one carries any of them whole, so each completes.
    let requests = steps.iter().flat_map(|step| &step.requests);
    let idempotent = requests.filter(|r| ResilientClient::is_idempotent(r));
    let widest = idempotent.map(frame_len).max().expect("reads");
    let kill = Chaos {
        name: "chaos[kill]",
        clients: 4,
        hub: HubConfig {
            batch_window: Duration::from_millis(2),
            batch_depth: 4,
            journal: true,
            ..HubConfig::default()
        },
        plan: FaultPlan {
            kill_after_bytes: Some(widest * 3 + widest / 2),
            torn_write_per_mille: 60,
            delay_per_mille: 80,
            max_delay_micros: 200,
            ..FaultPlan::healthy(0xC0FFEE)
        },
        policy: RetryPolicy {
            max_attempts: 24,
            base_backoff: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(10),
            attempt_timeout: Duration::from_secs(3),
            request_deadline: Duration::from_secs(60),
            jitter_seed: 20812,
        },
    };
    (steps, kill)
}

/// `chaos[kill]`: every client lost a link and saw a fault, and the shared
/// registry agrees with the clients' own accounting in both renders.
#[test]
fn chaos_kill_row() {
    let (steps, kill) = kill_chaos();
    let registry = Telemetry::new();
    registry.set_level(TelemetryLevel::Spans);
    let seed = SEEDS[0];
    let runs = kill.run(seed, &steps, Some(&registry));
    let mut totals = [0; 4];
    for (k, run) in runs.iter().enumerate() {
        let faults: u64 = run.handles.iter().map(|h| h.faults()).sum();
        let stats = &run.stats;
        assert!(stats.reconnects > 0 && faults > 0, "client {k}: {stats:?}");
        let counts = [stats.retries, stats.reconnects, faults, stats.backoff_waits];
        totals = std::array::from_fn(|i| totals[i] + counts[i]);
    }
    let snapshot = registry.snapshot();
    let backoff = (snapshot.histograms.iter()).find(|h| h.stage == "backoff_wait");
    let counted = [
        snapshot.counter("retries"),
        snapshot.counter("reconnects"),
        snapshot.counter("faults_injected"),
        backoff.map_or(0, |h| h.count),
    ];
    assert_eq!(counted, totals, "seed {seed}, {}: registry", kill.name);
    let (prometheus, json) = (render_prometheus(&snapshot), render_json(&snapshot));
    for series in ["retries", "reconnects", "faults_injected", "backoff_wait"] {
        assert!(prometheus.contains(series), "Prometheus lacks {series}");
        assert!(json.contains(series), "JSON lacks {series}");
    }
}

/// `chaos[corrupt]`: bit flips and tears, judged by [`Chaos::judge`] alone.
#[test]
fn chaos_corrupt_row() {
    let (steps, kill) = kill_chaos();
    // A corrupted length prefix can leave the hub's reader waiting for bytes
    // that never come, and a flipped request id loses its reply: both are
    // declared dead quickly.
    let corrupt = Chaos {
        name: "chaos[corrupt]",
        clients: 3,
        hub: HubConfig {
            idle_timeout: Duration::from_millis(300),
            ..kill.hub
        },
        plan: FaultPlan {
            corrupt_write_per_mille: 40,
            torn_write_per_mille: 30,
            ..FaultPlan::healthy(0xBADC0DE)
        },
        policy: RetryPolicy {
            attempt_timeout: Duration::from_millis(700),
            ..kill.policy
        },
    };
    corrupt.run(SEEDS[0], &steps, None);
}

/// `chaos[shed]`: six clients on clean links against a budget of two must
/// shed, and every shed resolves through a retry.
#[test]
fn chaos_shed_row() {
    let (steps, kill) = kill_chaos();
    // A wide window parks admitted queries in the batcher, holding their
    // budget slots long enough that the stampede must shed.
    let shed = Chaos {
        name: "chaos[shed]",
        clients: 6,
        hub: HubConfig {
            max_hub_in_flight: 2,
            batch_window: Duration::from_millis(50),
            batch_depth: 2,
            ..kill.hub
        },
        plan: FaultPlan::healthy(0),
        policy: RetryPolicy {
            max_attempts: 200,
            base_backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            jitter_seed: 0x57A3,
            ..kill.policy
        },
    };
    let runs = shed.run(SEEDS[0], &steps, None);
    let sheds: u64 = runs.iter().map(|run| run.stats.sheds).sum();
    assert!(sheds > 0, "six clients against two must shed");
    for run in &runs {
        assert_eq!(run.stats.link_faults, 0, "{}: clean links", shed.name);
    }
}

/// `chaos[replay]`: a second run on a fresh hub gives the same stats, fault
/// schedule and replies.
#[test]
fn chaos_replay_row() {
    let (steps, kill) = kill_chaos();
    // Without delays, one client's fault schedule follows from its requests.
    let replay = Chaos {
        name: "chaos[replay]",
        clients: 1,
        hub: kill.hub,
        plan: FaultPlan {
            torn_write_per_mille: 150,
            delay_per_mille: 0,
            ..kill.plan
        },
        policy: kill.policy,
    };
    let seed = SEEDS[0];
    let run = || {
        let mut runs = replay.run(seed, &steps, None);
        let run = runs.pop().expect("one client");
        let logs: Vec<Vec<FaultEvent>> = run.handles.iter().map(|h| h.log()).collect();
        let replies: Vec<_> = run.calls.into_iter().map(Result::ok).collect();
        (run.stats, logs, replies)
    };
    let first = run();
    assert!(first.1.iter().any(|log| !log.is_empty()), "no fault fired");
    assert!(
        first == run(),
        "seed {seed}, {}: a rerun differs",
        replay.name
    );
}
