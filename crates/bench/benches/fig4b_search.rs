//! Figure 4(b): server-side search time per query, on the layered engine.
//!
//! Two sweeps over the shard-parallel [`SearchEngine`]:
//!
//! * the paper's figure — ranked search over stores of 2000–10000 documents at
//!   ranking depths 1, 3 and 5, on a single shard (the sequential reference);
//! * the scaling dimension the paper leaves to "highly parallelized nature" remarks —
//!   the same query on a 50000-document store sharded 1/2/4/8 ways, plus a
//!   16-query batch to show the one-pass-per-shard batching path;
//! * a **result-cache sweep**: a skewed (Zipf-like) repeated-query workload over a
//!   fixed query pool, served with the cache off and on at several capacities.
//!   Results are asserted byte-identical before timing, and the hit/miss counts of
//!   the cached runs are printed afterwards;
//! * a **layout sweep** (`fig4b_scan_layout`): the PR-3 AoS scan vs the bit-sliced
//!   scan plane on a 64k-document r = 448 store, single-thread head-to-head plus
//!   plane-backed shard counts 1/2/4, with every configuration recorded in the
//!   machine-readable `BENCH_scan.json` at the workspace root (committed per PR as
//!   the perf-trajectory record; smoke runs never overwrite it), and beside
//!   it a **top-10 scenario**: `search_top(q, 10)` (and the whole-plane kept
//!   sweep it wraps) over a benchmark-shaped pool of 512 queries, each query
//!   timed best-of-7, reported as per-query p50 / p90 / mean in the same record;
//! * an **observability-overhead scenario** (`fig4b_obs_overhead`): the same
//!   64k-document scan with the telemetry registry at `Off`, `Counters` and
//!   `Spans`, recorded in `BENCH_obs.json`, failing the run if always-on
//!   `Counters` recording costs more than 3% over `Off`.
//!
//! The store is built once per configuration (with keyword-index memoization — only
//! the search is timed); queries carry 2 genuine keywords plus the V = 30 random
//! keywords. Shard counts change wall-clock time only: results are bit-for-bit
//! identical across all configurations (asserted before timing).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mkse_bench::{BenchFixture, ZipfSampler};
use mkse_core::search::scan_ranked;
use mkse_core::{CacheConfig, QueryBuilder, QueryIndex, SearchEngine, TelemetryLevel};
use mkse_protocol::{Client, CloudServer, QueryMessage, Request, TypedCalls};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::{Duration, Instant};

fn build_query(fixture: &BenchFixture, seed: u64) -> QueryIndex {
    let mut rng = StdRng::seed_from_u64(seed);
    let kws = fixture.query_keywords();
    let kw_refs: Vec<&str> = kws.iter().map(|s| s.as_str()).collect();
    let trapdoors = fixture.keys.trapdoors_for(&fixture.params, &kw_refs);
    let pool = fixture.keys.random_pool_trapdoors(&fixture.params);
    QueryBuilder::new(&fixture.params)
        .add_trapdoors(&trapdoors)
        .with_randomization(&pool)
        .build(&mut rng)
}

/// Build every query of the pool **once** (randomization included): a repeated
/// workload re-issues the same query index bits, which is exactly the search
/// pattern the server observes and the fingerprint cache keys on.
fn build_query_pool(fixture: &BenchFixture, pool_size: usize) -> Vec<QueryIndex> {
    let mut rng = StdRng::seed_from_u64(41);
    let random_pool = fixture.keys.random_pool_trapdoors(&fixture.params);
    fixture
        .query_keyword_pool(pool_size)
        .iter()
        .map(|kws| {
            let kw_refs: Vec<&str> = kws.iter().map(|s| s.as_str()).collect();
            let trapdoors = fixture.keys.trapdoors_for(&fixture.params, &kw_refs);
            QueryBuilder::new(&fixture.params)
                .add_trapdoors(&trapdoors)
                .with_randomization(&random_pool)
                .build(&mut rng)
        })
        .collect()
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4b_search");
    group.sample_size(20);

    for &num_docs in &[2000usize, 6000, 10000] {
        for &levels in &[1usize, 3, 5] {
            let fixture = BenchFixture::new(num_docs, levels, 11);
            let indexer = fixture.indexer();
            let mut engine = SearchEngine::sharded(fixture.params.clone(), 1);
            engine
                .insert_all(indexer.index_documents(&fixture.corpus.documents))
                .expect("upload");
            let query = build_query(&fixture, 13);

            group.throughput(Throughput::Elements(num_docs as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("eta{levels}"), num_docs),
                &(engine, query),
                |b, (engine, query)| b.iter(|| engine.search(query)),
            );
        }
    }
    group.finish();

    // Shard-scaling sweep: same store content, same query, 1/2/4/8 scan lanes.
    // 50k documents — the scan has to dominate per-query coordination for the
    // sweep to say anything about scaling.
    let mut group = c.benchmark_group("fig4b_search_sharded");
    group.sample_size(20);
    const SWEEP_DOCS: usize = 50_000;
    let fixture = BenchFixture::new(SWEEP_DOCS, 3, 11);
    let indexer = fixture.indexer();
    let indices = indexer.index_documents(&fixture.corpus.documents);
    let query = build_query(&fixture, 13);

    let reference = {
        let mut engine = SearchEngine::sharded(fixture.params.clone(), 1);
        engine.insert_all(indices.iter().cloned()).expect("upload");
        engine.search(&query)
    };
    for &shards in &[1usize, 2, 4, 8] {
        let mut engine = SearchEngine::sharded(fixture.params.clone(), shards);
        engine.insert_all(indices.iter().cloned()).expect("upload");
        // Exact equivalence before timing: sharding must never change results.
        assert_eq!(engine.search(&query), reference);

        group.throughput(Throughput::Elements(SWEEP_DOCS as u64));
        group.bench_with_input(
            BenchmarkId::new("shards", shards),
            &(engine, query.clone()),
            |b, (engine, query)| b.iter(|| engine.search(query)),
        );
    }

    // Batched execution: 16 queries answered in one pass over each shard.
    let mut engine = SearchEngine::sharded(fixture.params.clone(), 4);
    engine.insert_all(indices).expect("upload");
    let batch: Vec<QueryIndex> = (0..16).map(|i| build_query(&fixture, 100 + i)).collect();
    group.throughput(Throughput::Elements(16 * SWEEP_DOCS as u64));
    let tops = vec![None; batch.len()];
    group.bench_with_input(
        BenchmarkId::new("batch16_shards", 4),
        &(engine, batch),
        |b, (engine, batch)| b.iter(|| engine.search_batch_with_effects(batch, &tops)),
    );
    group.finish();

    // Result-cache sweep: a skewed repeated-query workload (the cache's reason to
    // exist) over a 20k-document 4-shard store. The pool queries are built once,
    // so repeats carry identical bits; a Zipf(1.1) sampler concentrates traffic on
    // the head of the pool the way real query logs do.
    let mut group = c.benchmark_group("fig4b_search_cached");
    group.sample_size(20);
    const CACHE_DOCS: usize = 20_000;
    const QUERY_POOL: usize = 32;
    const WORKLOAD: usize = 256;
    let fixture = BenchFixture::new(CACHE_DOCS, 3, 11);
    let indexer = fixture.indexer();
    let indices = indexer.index_documents(&fixture.corpus.documents);
    let query_pool = build_query_pool(&fixture, QUERY_POOL);
    let workload: Vec<usize> =
        ZipfSampler::new(QUERY_POOL, 1.1).sample_many(&mut StdRng::seed_from_u64(7), WORKLOAD);

    let mut uncached = SearchEngine::sharded(fixture.params.clone(), 4);
    uncached
        .insert_all(indices.iter().cloned())
        .expect("upload");
    // Exact equivalence before timing, for every pool query: the cache must never
    // change a reply byte.
    {
        let cached = {
            let mut engine = SearchEngine::sharded(fixture.params.clone(), 4)
                .with_result_cache(CacheConfig::default());
            engine.insert_all(indices.iter().cloned()).expect("upload");
            engine
        };
        for query in &query_pool {
            let reference = uncached.search_ranked_with_stats(query);
            assert_eq!(cached.search_ranked_with_stats(query), reference); // admits
            assert_eq!(cached.search_ranked_with_stats(query), reference); // hits
        }
    }

    group.throughput(Throughput::Elements(WORKLOAD as u64));
    group.bench_with_input(
        BenchmarkId::new("skewed", "cache_off"),
        &(&uncached, &workload, &query_pool),
        |b, (engine, workload, pool)| {
            b.iter(|| {
                for &q in workload.iter() {
                    std::hint::black_box(engine.search(&pool[q]));
                }
            })
        },
    );

    for &capacity in &[8usize, 64] {
        let mut engine =
            SearchEngine::sharded(fixture.params.clone(), 4).with_result_cache(CacheConfig {
                capacity_per_shard: capacity,
            });
        engine.insert_all(indices.iter().cloned()).expect("upload");
        group.bench_with_input(
            BenchmarkId::new("skewed", format!("cache_{capacity}")),
            &(&engine, &workload, &query_pool),
            |b, (engine, workload, pool)| {
                b.iter(|| {
                    for &q in workload.iter() {
                        std::hint::black_box(engine.search(&pool[q]));
                    }
                })
            },
        );
        let stats = engine.cache_stats().expect("cache enabled");
        let lookups = stats.hits + stats.misses;
        eprintln!(
            "fig4b_search_cached capacity={capacity}: {} hits / {} misses ({:.1}% hit rate), \
             {} evictions, {} r-bit comparisons saved",
            stats.hits,
            stats.misses,
            100.0 * stats.hits as f64 / lookups.max(1) as f64,
            stats.evictions,
            stats.saved_comparisons,
        );
    }
    group.finish();

    // Pipelined envelope-client sweep: the same query workload through the
    // protocol front door (framed Request/Response envelopes), at pipeline
    // depths 1/4/16. Depth 1 is the request-per-flush baseline; deeper windows
    // amortize the per-flush transport round trip. Throughput is replies/sec;
    // framed bytes per reply are printed from the client's wire stats after
    // each configuration.
    let mut group = c.benchmark_group("fig4b_search_pipelined");
    group.sample_size(10);
    const PIPE_DOCS: usize = 10_000;
    const PIPE_WORKLOAD: usize = 32;
    let fixture = BenchFixture::new(PIPE_DOCS, 3, 11);
    let indexer = fixture.indexer();
    let indices = indexer.index_documents(&fixture.corpus.documents);
    let query_pool = build_query_pool(&fixture, 16);
    let messages: Vec<QueryMessage> = query_pool
        .iter()
        .map(|q| QueryMessage {
            query: q.bits().clone(),
            top: Some(10), // a dashboard wants the best few, not every match
        })
        .collect();

    for &depth in &[1usize, 4, 16] {
        let mut client = Client::new(CloudServer::with_shards(fixture.params.clone(), 4));
        client
            .upload(indices.clone(), vec![])
            .expect("framed upload");
        // Per-query wire accounting starts after the (one-off, huge) upload frame.
        let after_upload = client.wire_stats();
        // Reply equivalence across depths is covered by the protocol test
        // suites; here we only measure.
        group.throughput(Throughput::Elements(PIPE_WORKLOAD as u64));
        group.bench_function(BenchmarkId::new("depth", depth), |b| {
            b.iter(|| {
                let mut served = 0usize;
                while served < PIPE_WORKLOAD {
                    let window = depth.min(PIPE_WORKLOAD - served);
                    let ids: Vec<u64> = (0..window)
                        .map(|i| {
                            let message = &messages[(served + i) % messages.len()];
                            client.submit(&Request::Query(message.clone()))
                        })
                        .collect();
                    client.flush().expect("pipelined flush");
                    for id in ids {
                        std::hint::black_box(client.take(id).expect("correlated reply"));
                    }
                    served += window;
                }
            })
        });
        let wire = client.wire_stats().since(&after_upload);
        eprintln!(
            "fig4b_search_pipelined depth={depth}: {} replies across all timed iterations \
             ({PIPE_WORKLOAD}/iteration), {} framed request bytes/query, \
             {} framed reply bytes/query",
            wire.frames_received,
            wire.bytes_sent / wire.frames_sent.max(1),
            wire.bytes_received / wire.frames_received.max(1),
        );
    }
    group.finish();
}

/// What every record this bench writes states beside its timings: the engine's
/// lanes follow the host's cores, so a number means nothing without them.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Mean wall-clock ns of `routine` over one calibrated window of `budget_ms`
/// (one warm-up call first). In `--test` smoke runs the routine executes once
/// and 0 is returned.
fn measure_ns_window<O, F: FnMut() -> O>(quick: bool, budget_ms: u64, mut routine: F) -> f64 {
    std::hint::black_box(routine());
    if quick {
        return 0.0;
    }
    let budget = Duration::from_millis(budget_ms);
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        let elapsed = start.elapsed();
        if elapsed >= budget || iters >= 1 << 20 {
            return elapsed.as_nanos() as f64 / iters as f64;
        }
        let scale = (budget.as_nanos() as f64 / elapsed.as_nanos().max(1) as f64).ceil();
        iters = (iters as f64 * scale.clamp(2.0, 100.0)) as u64;
    }
}

/// Measure two routines that are being *compared*: three calibrated windows
/// each, interleaved A/B/A/B/A/B so slow host phases (frequency scaling, noisy
/// neighbors) hit both sides alike, reporting the per-routine medians. Shared
/// wall-clock noise then largely cancels out of the A/B ratio.
fn measure_ns_pair<OA, OB>(
    quick: bool,
    mut a: impl FnMut() -> OA,
    mut b: impl FnMut() -> OB,
) -> (f64, f64) {
    let mut samples_a = Vec::new();
    let mut samples_b = Vec::new();
    for round in 0..3 {
        samples_a.push(measure_ns_window(quick, 300, &mut a));
        samples_b.push(measure_ns_window(quick, 300, &mut b));
        if quick && round == 0 {
            return (0.0, 0.0);
        }
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|x, y| x.partial_cmp(y).expect("finite timings"));
        samples[samples.len() / 2]
    };
    (median(&mut samples_a), median(&mut samples_b))
}

/// Layout sweep: the PR-3 AoS scan (one heap `BitIndex` per level per document,
/// pointer-chased by `scan_ranked`) against the bit-sliced scan plane, on a
/// 64k-document r = 448 store — the σ·r comparison workload of Figure 4(b) at
/// production scale. Single-thread kernels are timed head-to-head, then the
/// plane-backed engine at shard counts 1/2/4. Results are asserted byte-identical
/// before timing, and every configuration is written to `BENCH_scan.json`
/// (docs, r, shards, ns/query, comparisons) at the workspace root — committed per
/// PR so the perf trajectory is tracked in version control. Smoke runs (`--test`)
/// skip the write: zeroed timings must never clobber a real measurement.
fn bench_scan_layout(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    // The stub harness has no filter support, so honor a positional filter here
    // at least: `cargo bench <something-else>` must not spend the 64k-document
    // fixture build nor rewrite the committed trajectory record.
    let filtered_out = std::env::args()
        .skip(1)
        .any(|a| !a.starts_with('-') && !"fig4b_scan_layout".contains(a.as_str()));
    if filtered_out {
        return;
    }
    // Each configuration's number is the best of many short interleaved
    // windows (see the measurement loop below); the JSON and the report line
    // share it, so the group is reported directly instead of registering the
    // same routines with the harness a second time.
    let report = |id: &str, ns: f64| {
        if quick {
            println!("fig4b_scan_layout/{id}  ok (smoke run)");
        } else {
            let per_sec = LAYOUT_DOCS as f64 * 1e9 / ns;
            println!(
                "fig4b_scan_layout/{id}  time: {:.3} µs  thrpt: {per_sec:.0} elem/s",
                ns / 1e3
            );
        }
    };

    const LAYOUT_DOCS: usize = 64_000;
    let fixture = BenchFixture::new(LAYOUT_DOCS, 3, 11);
    let indexer = fixture.indexer();
    // `indices` IS the PR-3 per-shard layout: a contiguous Vec of AoS documents.
    let indices = indexer.index_documents(&fixture.corpus.documents);
    let query = build_query(&fixture, 13);
    let r = fixture.params.index_bits;

    let mut engines = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let mut engine = SearchEngine::sharded(fixture.params.clone(), shards);
        engine.insert_all(indices.iter().cloned()).expect("upload");
        engines.push((shards, engine));
    }

    // Equivalence before timing: the plane is a layout change only, and
    // sharding must never change results.
    let (aos_matches, aos_stats) = scan_ranked(&indices, &query);
    let plane = engines[0].1.scan_plane(0);
    assert_eq!(plane.scan_ranked(query.bits()), (aos_matches, aos_stats));
    let reference = engines[0].1.search(&query);
    for (shards, engine) in &engines[1..] {
        assert_eq!(&engine.search(&query), &reference, "{shards} shards");
    }

    // The configurations are *compared against each other* in the committed
    // record, so they are measured in interleaved rounds (one window per
    // configuration per round, best window kept): host-speed drift across the
    // run — frequency scaling, noisy neighbors — then hits every configuration
    // alike instead of whichever one happened to be measured last. Windows are
    // deliberately short: sustained saturation of every core throttles shared
    // hosts by ±30%, and that phase noise outlasts any single round — many
    // short windows measure the code, not the container's power management.
    let (query, indices) = (&query, &indices);
    let ids = ["aos_scan/1", "plane_scan/1"];
    let mut routines: Vec<(String, Box<dyn FnMut()>)> = vec![
        (
            ids[0].to_string(),
            Box::new(move || {
                std::hint::black_box(scan_ranked(indices, query));
            }),
        ),
        (
            ids[1].to_string(),
            Box::new(move || {
                std::hint::black_box(plane.scan_ranked(query.bits()));
            }),
        ),
    ];
    for (shards, engine) in &engines {
        routines.push((
            format!("plane_engine_shards/{shards}"),
            Box::new(move || {
                std::hint::black_box(engine.search(query));
            }),
        ));
    }
    let mut best = vec![f64::MAX; routines.len()];
    for round in 0..25 {
        for ((_, routine), slot) in routines.iter_mut().zip(best.iter_mut()) {
            *slot = slot.min(measure_ns_window(quick, 20, routine));
        }
        if quick && round == 0 {
            break;
        }
    }
    let mut json_entries = Vec::new();
    for ((id, _), &ns) in routines.iter().zip(&best) {
        let ns = if quick { 0.0 } else { ns };
        report(id, ns);
        let (layout, shards) = match id.rsplit_once('/') {
            Some((prefix, n)) => (
                match prefix {
                    "aos_scan" => "aos",
                    "plane_scan" => "plane",
                    _ => "plane_engine",
                },
                n.parse::<usize>().expect("shard suffix"),
            ),
            None => unreachable!("bench ids carry a /shards suffix"),
        };
        json_entries.push((layout, shards, ns));
    }
    let (aos_ns, plane_ns) = (json_entries[0].2, json_entries[1].2);
    println!();
    let top10 = top10_scenario(quick, &fixture, &engines);

    if plane_ns > 0.0 {
        eprintln!(
            "fig4b_scan_layout: single-thread AoS {aos_ns:.0} ns/query vs plane {plane_ns:.0} \
             ns/query = {:.2}x on {LAYOUT_DOCS} docs, r={r}",
            aos_ns / plane_ns
        );
    }

    // Machine-readable trajectory record at the workspace root. Smoke runs only
    // exercised each routine once (all-zero timings), so they leave the
    // committed record untouched.
    if quick {
        return;
    }
    let entries: Vec<String> = json_entries
        .iter()
        .map(|(layout, shards, ns)| {
            format!(
                "    {{\"layout\": \"{layout}\", \"shards\": {shards}, \
                 \"ns_per_query\": {ns:.1}, \"comparisons\": {}}}",
                aos_stats.comparisons
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"fig4b_scan_layout\",\n  \"docs\": {LAYOUT_DOCS},\n  \"r\": {r},\n  \
         \"eta\": {},\n  \"host_cores\": {},\n  \"entries\": [\n{}\n  ],\n  \
         \"top10\": {{\n    \"queries\": {TOP10_POOL},\n    \"best_of\": {TOP10_BEST_OF},\n    \
         \"entries\": [\n{}\n    ]\n  }}\n}}\n",
        fixture.params.rank_levels(),
        host_cores(),
        entries.join(",\n"),
        top10.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("fig4b_scan_layout: wrote {path}"),
        Err(e) => eprintln!("fig4b_scan_layout: could not write {path}: {e}"),
    }
}

/// Queries in the top-10 scenario's pool: the benchmark's shape (two genuine
/// keywords of one document plus the V random ones, spread over the corpus).
const TOP10_POOL: usize = 512;
/// One timed configuration of the top-10 scenario: run one pool query and
/// return the wall-clock time of the part it times.
type Top10Routine<'a> = Box<dyn Fn(&QueryIndex) -> Duration + 'a>;

/// Back-to-back timings per query and configuration in the top-10 scenario;
/// the best one is kept, so a number is the query's warm cost.
const TOP10_BEST_OF: usize = 7;

/// Wall-clock time of `run`.
fn timed<O>(run: impl FnOnce() -> O) -> Duration {
    let start = Instant::now();
    std::hint::black_box(run());
    start.elapsed()
}

/// The top-10 scenario: every benchmark query asks for ten matches, so this is
/// the engine call a served query makes. Each pool query is timed alone
/// (best of [`TOP10_BEST_OF`] back-to-back runs), as the whole-plane kept
/// sweep on one thread (`plane_top10`), through `search_top(q, 10)` at one
/// and two shards (`engine_top10`), and at two shards with the result cache
/// on: a miss (`engine_cache_miss` — the cache is enabled afresh, untimed,
/// before each run, so the query's rows stay as warm as `engine_top10`'s)
/// and the hit that follows it (`engine_cache_hit`). It is reported as
/// per-query p50 / p90 / mean — a pool's matches per query run from 1 to
/// tens of thousands, so one query's time says little. Every reply is first
/// checked against the uncut reply's first ten, the cached engine's on a miss,
/// on a hit, and again on a hit after a re-issue at a wider top replaced the
/// entry. Returns the JSON rows of the record.
fn top10_scenario(
    quick: bool,
    fixture: &BenchFixture,
    engines: &[(usize, SearchEngine)],
) -> Vec<String> {
    const TOP: usize = 10;
    let pool = build_query_pool(fixture, TOP10_POOL);
    let engines: Vec<&(usize, SearchEngine)> = engines.iter().filter(|(s, _)| *s <= 2).collect();
    let plane = engines[0].1.scan_plane(0);
    let whole = 0..plane.num_chunks();
    let (_, two) = engines
        .iter()
        .find(|(s, _)| *s == 2)
        .expect("a two-shard engine");
    let cached = RefCell::new(two.clone().with_result_cache(CacheConfig::default()));
    let cached_top = |q: &QueryIndex, top: usize| {
        let replies = cached
            .borrow()
            .search_batch_with_effects(std::slice::from_ref(q), &[Some(top)]);
        let (matches, _, effect) = replies.into_iter().next().expect("one reply");
        (matches, effect.fully_cached())
    };
    for q in &pool {
        let all = engines[0].1.search(q);
        let full = &all[..TOP.min(all.len())];
        for (shards, engine) in &engines {
            assert_eq!(engine.search_top(q, TOP), full, "{shards} shards");
        }
        let [(kept, _)] =
            &plane.scan_ranked_batch_chunks(&[q.bits()], &[Some(TOP)], whole.clone())[..]
        else {
            panic!("one result per query");
        };
        assert_eq!(kept, full, "whole-plane kept sweep");
        let wider = &all[..(2 * TOP).min(all.len())];
        assert_eq!(cached_top(q, TOP), (full.to_vec(), false), "cache-on miss");
        assert_eq!(cached_top(q, TOP), (full.to_vec(), true), "cache-on hit");
        assert_eq!(
            cached_top(q, 2 * TOP),
            (wider.to_vec(), false),
            "wider re-issue"
        );
        assert_eq!(
            cached_top(q, TOP),
            (full.to_vec(), true),
            "hit after the wider re-issue"
        );
    }
    let mut configs: Vec<(String, Top10Routine<'_>)> = vec![(
        "plane_top10/1".to_string(),
        Box::new(|q: &QueryIndex| {
            timed(|| plane.scan_ranked_batch_chunks(&[q.bits()], &[Some(TOP)], whole.clone()))
        }),
    )];
    for (shards, engine) in &engines {
        configs.push((
            format!("engine_top10/{shards}"),
            Box::new(move |q: &QueryIndex| timed(|| engine.search_top(q, TOP))),
        ));
    }
    let cached = &cached;
    configs.push((
        "engine_cache_miss/2".to_string(),
        Box::new(move |q: &QueryIndex| {
            cached.borrow_mut().enable_cache(CacheConfig::default());
            let cached = cached.borrow();
            timed(|| cached.search_top(q, TOP))
        }),
    ));
    configs.push((
        "engine_cache_hit/2".to_string(),
        Box::new(move |q: &QueryIndex| {
            let cached = cached.borrow();
            timed(|| cached.search_top(q, TOP))
        }),
    ));
    let mut best = vec![vec![f64::MAX; pool.len()]; configs.len()];
    for (i, q) in pool.iter().enumerate() {
        for ((_, run), best) in configs.iter().zip(&mut best) {
            for _ in 0..if quick { 1 } else { TOP10_BEST_OF } {
                best[i] = best[i].min(run(q).as_nanos() as f64);
            }
        }
    }
    configs
        .iter()
        .zip(&mut best)
        .map(|((id, _), ns)| {
            ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            let at = |p: usize| {
                if quick {
                    0.0
                } else {
                    ns[(ns.len() - 1) * p / 100]
                }
            };
            let mean = if quick {
                0.0
            } else {
                ns.iter().sum::<f64>() / ns.len() as f64
            };
            let (p50, p90) = (at(50), at(90));
            if quick {
                println!("fig4b_scan_layout/{id}  ok (smoke run)");
            } else {
                println!(
                    "fig4b_scan_layout/{id}  per-query p50 {:.2} µs  p90 {:.2} µs  mean {:.2} µs",
                    p50 / 1e3,
                    p90 / 1e3,
                    mean / 1e3
                );
            }
            let (layout, shards) = id
                .rsplit_once('/')
                .expect("bench ids carry a /shards suffix");
            format!(
                "      {{\"layout\": \"{layout}\", \"shards\": {shards}, \"p50_ns\": {p50:.1}, \
                 \"p90_ns\": {p90:.1}, \"mean_ns\": {mean:.1}}}"
            )
        })
        .collect()
}

/// Batch-depth sweep: one uncut `SearchEngine::search_batch_with_effects` call
/// (`fused`: one `ScanPlane::scan_ranked_batch_chunks` pass per scan unit, chunk-major
/// with the queries inside) against per-query execution of the same workload,
/// at batch depths 1/4/16/64 on the 64k-document r = 448 store. The plane runs
/// the same sweep either way — a query reads a few bitmap rows per chunk, so
/// there is no memory traffic left for batching to amortise — and what the
/// `fused` rows still save is above it: one dispatch, one lane hand-off and one
/// merge per batch instead of per query.
/// Results are asserted byte-identical before timing, and every configuration is
/// written to `BENCH_batch.json` at the workspace root — committed per PR like
/// `BENCH_scan.json`; smoke runs (`--test`) never overwrite it.
fn bench_batch_sweep(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    let filtered_out = std::env::args()
        .skip(1)
        .any(|a| !a.starts_with('-') && !"fig4b_batch_sweep".contains(a.as_str()));
    if filtered_out {
        return;
    }
    let report = |id: &str, ns_per_query: f64| {
        if quick {
            println!("fig4b_batch_sweep/{id}  ok (smoke run)");
        } else {
            println!(
                "fig4b_batch_sweep/{id}  time: {:.3} µs/query",
                ns_per_query / 1e3
            );
        }
    };

    const BATCH_DOCS: usize = 64_000;
    const DEPTHS: [usize; 4] = [1, 4, 16, 64];
    let fixture = BenchFixture::new(BATCH_DOCS, 3, 11);
    let indexer = fixture.indexer();
    let indices = indexer.index_documents(&fixture.corpus.documents);
    let r = fixture.params.index_bits;
    // Distinct queries: dedup must not shortcut the sweep being measured.
    let queries: Vec<QueryIndex> = (0..DEPTHS[DEPTHS.len() - 1])
        .map(|i| build_query(&fixture, 200 + i as u64))
        .collect();
    for (i, a) in queries.iter().enumerate() {
        for b in &queries[i + 1..] {
            assert_ne!(
                a.bits(),
                b.bits(),
                "colliding queries would let dedup skip scans"
            );
        }
    }

    let mut engine = SearchEngine::sharded(fixture.params.clone(), 1);
    engine.insert_all(indices.iter().cloned()).expect("upload");

    // Equivalence before timing: a batch is an execution-order change only —
    // byte-identical matches, ranks, order and per-query stats.
    let expected: Vec<_> = queries
        .iter()
        .map(|q| engine.search_ranked_with_stats(q))
        .collect();
    let uncut = vec![None; queries.len()];
    let fused = engine.search_batch_with_effects(&queries, &uncut);
    let fused: Vec<_> = (fused.into_iter())
        .map(|(m, stats, _)| (m, stats))
        .collect();
    assert_eq!(fused, expected);
    // Cut to `top = 10` with the cache off, every scan unit keeps only its best
    // ten: the batch must still answer what per-query `search_top` does, which
    // is the uncut reply's first ten, beside the uncut stats.
    let kept = engine.search_batch_with_effects(&queries, &vec![Some(10); queries.len()]);
    for ((q, (matches, stats, _)), (all, all_stats)) in queries.iter().zip(kept).zip(&expected) {
        assert_eq!(matches, engine.search_top(q, 10));
        assert_eq!(matches, all[..all.len().min(10)]);
        assert_eq!(&stats, all_stats);
    }

    let mut entries: Vec<String> = Vec::new();
    let mut per_query_ns_at = [0.0f64; DEPTHS.len()];
    let mut fused_ns_at = [0.0f64; DEPTHS.len()];
    for (d, &depth) in DEPTHS.iter().enumerate() {
        let batch = &queries[..depth];
        // The two execution modes are measured in interleaved windows so host
        // noise cancels out of the recorded fused-vs-per-query ratio.
        let (per_query_total, fused_total) = measure_ns_pair(
            quick,
            || {
                batch
                    .iter()
                    .map(|q| engine.search_ranked_with_stats(q))
                    .collect::<Vec<_>>()
            },
            || engine.search_batch_with_effects(batch, &uncut[..depth]),
        );
        let per_query_ns = per_query_total / depth as f64;
        let fused_ns = fused_total / depth as f64;
        report(&format!("per_query/b{depth}"), per_query_ns);
        report(&format!("fused/b{depth}"), fused_ns);
        per_query_ns_at[d] = per_query_ns;
        fused_ns_at[d] = fused_ns;
        let speedup = if fused_ns > 0.0 {
            per_query_ns / fused_ns
        } else {
            0.0
        };
        for (mode, ns) in [("per_query", per_query_ns), ("fused", fused_ns)] {
            entries.push(format!(
                "    {{\"mode\": \"{mode}\", \"batch\": {depth}, \"shards\": 1, \
                 \"ns_per_query\": {ns:.1}, \"speedup_vs_per_query\": {:.2}}}",
                if mode == "fused" { speedup } else { 1.0 }
            ));
        }
    }
    println!();
    if !quick {
        let b16 = DEPTHS
            .iter()
            .position(|&d| d == 16)
            .expect("depth 16 swept");
        eprintln!(
            "fig4b_batch_sweep: per-query {:.0} ns/query vs fused {:.0} ns/query at b=16 \
             = {:.2}x on {BATCH_DOCS} docs, r={r}",
            per_query_ns_at[b16],
            fused_ns_at[b16],
            per_query_ns_at[b16] / fused_ns_at[b16]
        );
    }

    if quick {
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"fig4b_batch_sweep\",\n  \"docs\": {BATCH_DOCS},\n  \"r\": {r},\n  \
         \"eta\": {},\n  \"host_cores\": {},\n  \"entries\": [\n{}\n  ]\n}}\n",
        fixture.params.rank_levels(),
        host_cores(),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("fig4b_batch_sweep: wrote {path}"),
        Err(e) => eprintln!("fig4b_batch_sweep: could not write {path}: {e}"),
    }
}

/// Observability-overhead scenario (`fig4b_obs_overhead`), recorded in
/// `BENCH_obs.json`.
///
/// Three clones of one 64k-document r = 448 store answer the same query with
/// the telemetry registry at `Off`, `Counters` and `Spans`. Replies are
/// asserted byte-identical across levels before timing (the invariant the
/// equivalence suite proves at scale: telemetry observes, it never
/// participates), then the three levels are measured in interleaved rounds of
/// short best-of windows — like the layout sweep — so host-speed phases hit
/// every level alike. The committed record carries each level's ns/query and
/// its overhead over `Off`; the run **fails** if `Counters` costs more than 3%,
/// the budget that keeps always-on production counters honest. Smoke runs
/// (`--test`) never overwrite the committed record.
fn bench_obs_overhead(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    let filtered_out = std::env::args()
        .skip(1)
        .any(|a| !a.starts_with('-') && !"fig4b_obs_overhead".contains(a.as_str()));
    if filtered_out {
        return;
    }
    let report = |id: &str, ns: f64| {
        if quick {
            println!("fig4b_obs_overhead/{id}  ok (smoke run)");
        } else {
            println!("fig4b_obs_overhead/{id}  time: {:.3} µs/query", ns / 1e3);
        }
    };

    const OBS_DOCS: usize = 64_000;
    let fixture = BenchFixture::new(OBS_DOCS, 3, 11);
    let indexer = fixture.indexer();
    let indices = indexer.index_documents(&fixture.corpus.documents);
    let r = fixture.params.index_bits;
    let query = build_query(&fixture, 13);

    // Clone symmetry: every timed engine descends from the same never-timed
    // base (a clone's arenas are freshly packed), so no level gets an
    // allocator-layout advantage unrelated to the registry.
    let mut base = SearchEngine::sharded(fixture.params.clone(), 4);
    base.insert_all(indices.iter().cloned()).expect("upload");
    let levels = [
        TelemetryLevel::Off,
        TelemetryLevel::Counters,
        TelemetryLevel::Spans,
    ];
    let engines: Vec<SearchEngine> = levels
        .iter()
        .map(|&level| {
            let engine = base.clone();
            engine.set_telemetry_level(level);
            engine
        })
        .collect();

    // Byte-identical replies across levels before timing.
    let reference = engines[0].search_ranked_with_stats(&query);
    for (engine, level) in engines.iter().zip(&levels).skip(1) {
        assert_eq!(
            engine.search_ranked_with_stats(&query),
            reference,
            "telemetry level {} perturbed a reply",
            level.name()
        );
    }

    let mut best = [f64::MAX; 3];
    for round in 0..25 {
        for (engine, slot) in engines.iter().zip(best.iter_mut()) {
            *slot = slot.min(measure_ns_window(quick, 20, || {
                std::hint::black_box(engine.search(&query))
            }));
        }
        if quick && round == 0 {
            break;
        }
    }

    let off_ns = best[0];
    let mut entries: Vec<String> = Vec::new();
    let mut counters_overhead_pct = 0.0;
    for (&level, &ns) in levels.iter().zip(&best) {
        let ns = if quick { 0.0 } else { ns };
        report(level.name(), ns);
        let overhead_pct = if quick || off_ns <= 0.0 {
            0.0
        } else {
            100.0 * (ns - off_ns) / off_ns
        };
        if level == TelemetryLevel::Counters {
            counters_overhead_pct = overhead_pct;
        }
        entries.push(format!(
            "    {{\"level\": \"{}\", \"ns_per_query\": {ns:.1}, \
             \"overhead_pct_vs_off\": {overhead_pct:.2}}}",
            level.name()
        ));
    }
    println!();
    if quick {
        return;
    }
    eprintln!(
        "fig4b_obs_overhead: off {off_ns:.0} ns/query, counters {:+.2}%, spans {:+.2}% \
         on {OBS_DOCS} docs, r={r}",
        counters_overhead_pct,
        100.0 * (best[2] - off_ns) / off_ns
    );

    let json = format!(
        "{{\n  \"bench\": \"fig4b_obs_overhead\",\n  \"docs\": {OBS_DOCS},\n  \"r\": {r},\n  \
         \"eta\": {},\n  \"host_cores\": {},\n  \"entries\": [\n{}\n  ]\n}}\n",
        fixture.params.rank_levels(),
        host_cores(),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("fig4b_obs_overhead: wrote {path}"),
        Err(e) => eprintln!("fig4b_obs_overhead: could not write {path}: {e}"),
    }
    assert!(
        counters_overhead_pct <= 3.0,
        "Counters-level telemetry costs {counters_overhead_pct:.2}% over Off — \
         the always-on budget is 3%"
    );
}

criterion_group!(
    benches,
    bench_search,
    bench_scan_layout,
    bench_batch_sweep,
    bench_obs_overhead
);
criterion_main!(benches);
