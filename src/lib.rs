//! # mkse — Efficient and Secure Ranked Multi-Keyword Search on Encrypted Cloud Data
//!
//! This crate is the facade of the `mkse` workspace, a full reproduction of
//! Örencik & Savaş, *"Efficient and Secure Ranked Multi-Keyword Search on Encrypted Cloud
//! Data"* (PAIS @ EDBT 2012).
//!
//! It re-exports every sub-crate so downstream users (and the examples and integration tests
//! of this repository) can depend on a single crate:
//!
//! * [`crypto`] — from-scratch SHA-2, HMAC, big integers, RSA (with blinding) and AES-CTR.
//! * [`linalg`] — dense matrices and LU inversion (used by the Cao et al. MRSE baseline).
//! * [`textproc`] — tokenization, stemming, term frequencies and synthetic corpora.
//! * [`core`] — the paper's scheme: bit indices, trapdoors, ranked oblivious search,
//!   query randomization and its analytic model.
//! * [`baselines`] — Cao et al. MRSE (secure kNN), Wang et al. common secure indices, and the
//!   plaintext relevance-score ranking of Eq. (4).
//! * [`protocol`] — the three-party protocol (data owner / user / cloud server) with
//!   communication- and computation-cost accounting.
//! * [`net`] — the concurrent socket transport: a thread-per-connection TCP hub
//!   (plus an in-process `MemoryLink` twin for deterministic tests) that pumps
//!   length-prefixed frames into `Service::call`, with an adaptive cross-client
//!   batcher that coalesces concurrent single queries into one fused pass, and
//!   a resilience layer on top — deterministic seeded fault injection
//!   (`FaultyLink`), a retrying/reconnecting `ResilientClient`, and hub
//!   overload shedding with typed `Overloaded` pushback — and, above both, the
//!   shard fleet: a `Coordinator` that shard-server nodes (`NodeRunner`)
//!   register with over the framed codec, which scatter-gathers queries across
//!   live nodes and fails a dead node's shards over to survivors from
//!   snapshot + journal replay.
//!
//! ## Architecture: the layered server read path
//!
//! The paper describes the server as a single linear scan of r-bit comparisons over
//! all σ document indices (Eq. 3). This reproduction keeps that scan **bit-for-bit**
//! as its semantics, but splits the server into layers so the hottest path in
//! the system can use all available cores — and skip work it has already done:
//!
//! ```text
//!  mkse-net        Coordinator (a Service) ─▶    the shard fleet: nodes register
//!        │         per-node ResilientClients     over the framed codec (capabilities
//!        ▼         ─▶ node Hubs ─▶ CloudServers  in, shard assignment out; heartbeats
//!        │                                       carry each node's MetricsSnapshot;
//!        ▼                                       silence past the failure deadline
//!        │                                       marks a node dead); queries scatter
//!        ▼                                       to live shard-holders and merge by
//!        │                                       (rank desc, id asc); a dead node's
//!        ▼                                       shards re-ship to survivors from the
//!        │                                       coordinator mirror's per-shard
//!        ▼                                       snapshots + insert-journal replay —
//!        │                                       N nodes == 1 node, byte for byte
//!  mkse-net        ResilientClient ─▶ NetClient  the resilience layer: capped-
//!        │         ─▶ FaultyLink ─▶ any link     backoff retries with reconnect
//!        ▼                                       and resubmission of idempotent
//!        │                                       requests only (typed RetryUnsafe
//!        ▼                                       refusal otherwise); the hub sheds
//!        │                                       load past its in-flight budget
//!        ▼                                       with Overloaded { retry_after_ms };
//!        │                                       FaultyLink replays seeded fault
//!        ▼                                       plans (kills / tears / corruption)
//!  mkse-net        Hub: TCP acceptor +           thread-per-connection readers
//!        │         MemoryLink twin               reassemble length-prefixed frames
//!        ▼         (NetClient speaks both)       (torn reads, size/idle hygiene)
//!        │                                       and feed ONE dispatcher thread;
//!        ▼                                       the adaptive cross-client batcher
//!        │                                       coalesces concurrent Query frames
//!        ▼                                       (complete / depth / barrier flushes)
//!        │                                       into one fused batch pass and
//!        ▼                                       de-muxes replies by request id
//!  mkse-protocol   Client  ──▶  wire codec  ──▶  Service::call   the ONE front door:
//!        │         (pipelined,  (length-prefixed (CloudServer,   every operation is a
//!        ▼          correlates   frames, version  DataOwner)     Request/Response
//!        │          replies by   byte + request                  envelope; measured
//!        ▼          id)          id)                             framed wire bytes
//!  mkse-protocol   CloudServer / SearchSession      actors, messages, cost ledger
//!        │                                          (incl. the batched-query message,
//!        ▼                                          CacheReport reply diagnostics)
//!  mkse-core       engine::SearchEngine<S>          single / batched / top-k ranked
//!        │    ├──  scanplane::ScanPlane (per shard) search; owns ALL derived state (the
//!        │    ├──  cache::ResultCache (optional)    planes and the cache) and holds the
//!        │    │                                     store privately — insert() is the
//!        │    │                                     only door, so neither goes stale;
//!        │    │                                     scan lanes ≤ cores, decoupled
//!        ▼    │                                     from shard count; ONE executor deals
//!        │    │                                     scan units (8-chunk ranges; whole
//!        │    │                                     shards on one lane) to per-lane
//!        │    │                                     deques (idle lanes steal) and
//!        ▼    │                                     stitches results in unit order; merge
//!        │    │                                     by (rank desc, doc id asc); ONE read
//!        │    │                                     path: a single query is a batch of
//!        │    │                                     one — dedup repeated fingerprints,
//!        │    │                                     ONE fused plane pass per shard
//!        ▼    └──  per-shard LRU keyed by           repeated query fingerprints skip
//!        │         QueryFingerprint, write-         the shard scan entirely
//!        ▼         generation invalidation
//!  mkse-core       storage::IndexStore (trait)      the corpus, once: geometry-validated
//!        │         └─ storage::ShardedStore         inserts that name the shard written,
//!        ▼            (N ≥ 1 round-robin shards)    O(1) id lookup, shard slices,
//!        │                                          insertion-ordinal bookkeeping —
//!        ▼                                          no plane, no cache, nothing derived
//!  mkse-core       scanplane::ScanPlane             bit-sliced rows the engine appends
//!        │                                          on insert: per 1,024-document chunk,
//!        ▼                                          level and index bit one bitmap of
//!        │                                          which documents set it; a query ORs
//!        ▼                                          only the rows where it has a zero
//!        │                                          and the chunk has a one — the hot
//!        ▼                                          r-bit scan reads a few rows a chunk
//!  mkse-core       telemetry::Telemetry             the observability plane: lock-free
//!                  (one registry per engine,        relaxed-atomic counters/gauges +
//!                  observing every layer above)     log₂-bucket latency histograms,
//!                                                   runtime Off/Counters/Spans knob;
//!                                                   spans time Service::call, engine
//!                                                   dispatch, per-lane unit scans,
//!                                                   cache lookups and frame encode/
//!                                                   decode; surfaced over the wire as
//!                                                   Request::MetricsSnapshot, rendered
//!                                                   as Prometheus text or JSON
//! ```
//!
//! * **Storage** ([`core::storage`]): [`core::storage::ShardedStore`] partitions
//!   documents round-robin across N shards and keeps an id → (shard, slot) map so
//!   metadata lookup is O(1) instead of the old O(σ) scan. One shard is the
//!   single contiguous layout — what the sequential reference
//!   ([`core::CloudIndex`]) scans with the AoS loop. A store is the corpus and
//!   nothing derived from it, so a holder that never scans — the reference, the
//!   fleet coordinator's mirror — pays for no scan layout.
//! * **Scan plane** ([`core::scanplane`]): each shard's hot loop — the σ r-bit
//!   comparisons of Eq. (3) that dominate Figure 4(b) — runs on a bit-sliced
//!   engine-owned [`core::ScanPlane`]: per 1,024-document chunk, per level and
//!   per index bit one bitmap row saying which of the chunk's documents set that
//!   bit (appends set one bit per one-bit of the document, never re-layout),
//!   plus a per-chunk **live mask** — the OR of the indices pushed there, i.e.
//!   which rows hold a one at all. A document is rejected exactly when it has a
//!   one where the query has a zero (`doc AND NOT query ≠ 0`), so a level's
//!   reject bitmap for a chunk is the OR of the rows selected by
//!   `!query & live`, 1,024 documents per 16-word row. Under the §6
//!   randomization almost every zero of a query sits on a dead row (all U fake
//!   keywords are folded into every level of every document, and a query's V
//!   fake keywords are drawn from the same pool), so a two-keyword query reads
//!   ~5 rows per chunk and level where the previous layout streamed every
//!   64-bit column of every document. Upper levels are rows too: level ℓ+1 is
//!   evaluated only for a chunk with a survivor of level ℓ, ranks are read off
//!   the nested survivor bitmaps, and `SearchStats` comparisons are their
//!   popcounts. All of this is a layout change only — matches, ranks, order,
//!   `SearchStats` (row skipping happens *inside* one r-bit comparison, so
//!   comparison counts are unchanged) and cache counters are byte-identical to
//!   the AoS reference, enforced in release mode by
//!   `mkse-core/tests/scanplane_equivalence.rs` in the sparse (paper-shaped)
//!   and the dense (no dead row) regime alike. The `fig4b_search` bench's
//!   layout sweep writes `BENCH_scan.json` tracking ns/query across layouts and
//!   shard counts.
//! * **Batch sweep** ([`core::ScanPlane::scan_ranked_batch`]): the same sweep,
//!   chunk-major with the queries inside — there is one sweep, and a single
//!   query is a batch of one. With a few rows per chunk left to read there is
//!   no memory traffic for a fused kernel to amortise (`BENCH_batch.json`
//!   records the depth sweep); what a batch still saves is above the plane —
//!   one lane wake-up and one merge per group instead of per query. The result
//!   is byte-identical to b independent single-query scans, enforced by the
//!   release-mode batch proptest in `scanplane_equivalence.rs`.
//! * **Engine** ([`core::engine`]): owns the store and everything derived from
//!   it — the per-shard planes and the optional cache. A plane can never go
//!   stale because the store is private and `insert` is the only door (restores
//!   funnel into the same append; `new` derives the planes from what the store
//!   it is handed already holds). Which rows of a plane a scan reads is decided
//!   from the query index bytes, the public geometry `r` and the planes' live
//!   masks — from the *stored indices* as well as the query, both bytes the
//!   server already holds. Nothing is derived from keys or plaintext, a dead
//!   row (a bit position no stored index sets) is what a curious server can
//!   already count for itself, and the skip is the same for every document of a
//!   chunk, so nothing is observable beyond the search and access pattern §6
//!   already grants. Queries execute shard-by-shard in parallel and
//!   per-shard matches and [`core::SearchStats`] are merged. Merged output is provably
//!   identical to the sequential scan: the (rank, id) sort key is a total order, the
//!   stats are sums (`tests/sharded_engine_equivalence.rs` asserts both for
//!   shard counts 1, 2, 7 and 16 on randomized corpora). Scan lanes are clamped to the host's
//!   available parallelism and fully decoupled from the shard count: the
//!   `set_scan_lanes(n)` runtime knob caps how many lanes one execution may use
//!   on the process's one shared pool of lane workers (`available_parallelism − 1`
//!   threads however many engines the process builds; no engine starts or joins
//!   a thread, and a caller takes back any lane no worker has started instead of
//!   waiting behind another engine's scan), and
//!   **one executor** runs every scan: a multi-lane engine carves each shard's
//!   plane into 8-chunk units, deals them to per-lane lock-free deques, and lets
//!   idle lanes steal from victims' tails — an oversharded store does not
//!   serialize whole shards onto lanes, and a wide host keeps every lane busy
//!   regardless of the shard geometry — while a one-lane engine, with nobody to
//!   steal from, runs whole shards inline. Each unit's partial result counts
//!   exactly the documents of its range, and results are stitched in unit order
//!   before the (rank, id) merge, so replies, per-query stats and cache counters
//!   do not depend on the lane count (the steal-heavy sweeps in both equivalence
//!   suites hold every shards × lanes point to the sequential reference).
//!   There is **one read path**: a single query is a batch of one through the
//!   same private executor, which deduplicates repeated query fingerprints
//!   inside a batch (hot Zipf keywords scan once and fan out, with the
//!   duplicates accounted as the cache hits sequential execution would report)
//!   and hands the lanes the whole remaining query set for fused plane passes
//!   over the missed shards. The two entry points keep only their telemetry
//!   apart — `queries` / `engine_query` for a single query, `batches` /
//!   `batch_queries` / `engine_batch` for a batch. The reply's `top` (§5's τ)
//!   reaches the executor's merge, which *selects* the `top` matches the reply
//!   keeps and sorts only those (`core::search::top_matches`) instead of
//!   sorting every match the shards found; the shard scans and the cache
//!   entries stay whole per-shard lists, so one cached query serves every
//!   `top`, and the sequential reference keeps its own full stable sort.
//! * **Cache** ([`core::cache`]): an optional per-shard LRU of shard-scan results,
//!   keyed by a collision-checked [`core::QueryFingerprint`] of the query bits.
//!   Per-shard **write generations** invalidate exactly the shard an insert landed
//!   in; snapshots exclude the cache, and restoring bumps every generation so no
//!   stale entry survives a reload. Cached and uncached execution are byte-identical
//!   (the equivalence suite runs cold, warm, interleaved-insert and snapshot/restore
//!   cycles); only wall-clock time and *performed* comparisons change.
//! * **Protocol** ([`protocol`]): `CloudServer` runs on a sharded engine (shard count
//!   defaults to the host's cores, capped at 8; `CloudServer::with_shards` pins it —
//!   1 reproduces the paper's sequential timings). The `BatchQueryMessage` /
//!   `BatchSearchReply` pair carries many queries per round trip at exactly `b·r`
//!   bits; the server answers the batch in one pass over each shard, scanning only
//!   the (query, shard) pairs the cache missed. A `Query`, a `BatchQuery` and a
//!   coalesced group (`Service::call_query_group`, a provided method of the
//!   trait whose default is one `call` per member) all end in one reply
//!   builder. `CloudServer::enable_result_cache`
//!   turns caching on; replies carry a `CacheReport` and the `OperationCounters`
//!   split comparisons into performed vs saved-by-cache.
//! * **Envelope / wire / client** ([`protocol::envelope`], [`protocol::wire`],
//!   [`protocol::client`]): every server operation — queries, retrieval, upload,
//!   cache admin, snapshot/restore, counters — is one variant of a versioned
//!   `Request` enum answered by a `Response`, behind a single `Service::call`
//!   entry point (`CloudServer` serves search-side requests, `DataOwner` the
//!   trapdoor/blind-decryption side). The wire codec frames envelopes as
//!   length-prefixed bytes with a version byte and a request id, so the
//!   `Client` — the front door every session, test and example speaks through —
//!   can **pipeline**: submit a window of requests, flush once, and correlate
//!   replies by id out of order. Because every exchange crosses the codec, the
//!   `CostLedger` records measured framed wire bytes next to the analytic
//!   Table 1 bits, and a direct `Service::call` returns the same bytes the
//!   codec carries (`tests/envelope_equivalence.rs`). The codec states every
//!   layout **once** — one table row per message struct and per enum variant,
//!   both directions derived from it — and it is the first code an untrusted
//!   peer's bytes reach: nothing a peer can send panics a decoder or a service,
//!   and a query of the wrong length is answered a typed `IndexSizeMismatch` at
//!   the front door instead of reaching a scan kernel (`tests/hostile_bytes.rs`).
//! * **Transport / batcher** ([`net`]): the [`net::Hub`] owns a `Service` on a
//!   single dispatcher thread and accepts any number of concurrent connections
//!   (TCP via `bind_tcp`, or deterministic in-process [`net::MemoryLink`]s via
//!   `connect_memory`). Per-connection reader threads reassemble frames across
//!   arbitrary fragmentation, enforce a max frame size and an idle timeout
//!   (violations answer with a typed `ProtocolError::Transport` and poison only
//!   that connection), and apply a max-in-flight backpressure window. The
//!   **adaptive cross-client batcher** collects single `Request::Query` frames
//!   into a group and flushes it the moment every connection that has been
//!   querying is in (or the group hits depth `b`), taking queued frames first;
//!   the sub-millisecond window is only the bound on waiting for a connection
//!   that went quiet (immediate dispatch when only one connection is open; any
//!   non-query flushes as a barrier first). The group executes as one
//!   `Service::call_query_group` — on a `CloudServer` the engine's fused batch
//!   path — so N chatty clients get the one lane hand-off and one merge of a
//!   `BatchQueryMessage` without coordinating with each other. Both layers are invisible: replies, `SearchStats` and cache
//!   counters are byte-identical to the same requests issued sequentially
//!   in-process, enforced by the
//!   journal-replay oracle in `tests/net_equivalence.rs`, and graceful
//!   shutdown drains every accepted frame before the dispatcher exits.
//! * **Resilience** ([`net::ResilientClient`], [`net::FaultyLink`]): links
//!   die, and a loaded hub must degrade gracefully rather than queue without
//!   bound. [`net::FaultyLink`] wraps any `LinkReader`/`LinkWriter` pair in a
//!   deterministic seeded fault plan — byte-budget kills, torn writes, bit
//!   corruption, injected delays — so every chaos schedule is replayable from
//!   its seed. [`net::ResilientClient`] wraps the pipelined `NetClient` with a
//!   [`net::RetryPolicy`] (attempt budget, capped exponential backoff,
//!   per-request deadline): it reconnects across link deaths and resubmits
//!   in-flight *idempotent* requests, while non-idempotent operations
//!   (upload, cache admin, restore, counter reset) fail with a typed
//!   `ClientError::RetryUnsafe` unless the caller opts in — at-most-once
//!   execution is the default, never silently violated. The hub enforces a
//!   hub-wide in-flight budget and answers excess queries *before execution*
//!   with a wire-codec'd `TransportError::Overloaded { retry_after_ms }`,
//!   which the client honors as a backoff floor (and, because the shed
//!   request never executed, may safely retry regardless of idempotency).
//!   The oracle is conservation plus equivalence: every attempt lands in
//!   exactly one bucket (`attempts == successes + sheds + link_faults`), and
//!   every *completed* reply is byte-identical to the hub journal's
//!   sequential twin replay (`tests/net_chaos.rs`, release mode in CI;
//!   `fig4b_resil` re-asserts it before timing and `BENCH_resil.json`
//!   records that retries buy 100% completion under fault levels that cost a
//!   retry-less client about a quarter of its answers).
//! * **Fleet** ([`net::Coordinator`], [`net::NodeRunner`]): one machine is a
//!   ceiling, so the shard seam distributes. A [`net::NodeRunner`] is a
//!   `CloudServer` behind its own hub plus a control-plane client; it joins
//!   the fleet with `Request::RegisterNode` (capabilities in, shard
//!   assignment out) and stays in it with `Request::NodeHeartbeat` beats
//!   carrying its own `MetricsSnapshot` — the health refresh *is* the
//!   existing metrics envelope, read straight from the node's registry. The
//!   [`net::Coordinator`] (itself a `Service`, servable by a hub) grants
//!   global shards up to each node's capacity, sweeps heartbeat deadlines on
//!   every call, scatters queries to all live shard-holders at once through
//!   per-node `ResilientClient`s (`submit` everywhere, then `complete` each;
//!   every read goes out as one `BatchQuery` — a group its hub coalesced as one
//!   member per query, a lone query as a group of one, so nodes only see
//!   `BatchQuery` reads) and merges
//!   by (rank desc, id asc) with the engine's own top-τ selection. It keeps a
//!   full mirror — a bare `ShardedStore` fed by the same insert path (same
//!   errors, same partial-upload semantics), with no scan plane (it never
//!   scans) and no serialized second copy — so when a node dies — deadline
//!   missed or retries exhausted — its shards re-ship to the fewest-loaded
//!   survivors, each non-empty shard as exactly one layout-independent frame
//!   (`serialize_shard` → `RestoreIndex`), cascading recursively if a
//!   survivor dies mid-shipment. Node clients never retry
//!   non-idempotent forwards: an ambiguous write fails the node over and
//!   re-ships authoritative state, so writes are fleet-wide at-most-once.
//!   The oracle is the house invariant distributed: N nodes == 1 node == the
//!   sequential scan, byte for byte, proven by `tests/fleet_chaos.rs` (nodes
//!   killed mid-query, mid-failover and during registration on exact seeded
//!   byte budgets, twin-replay equality, corpus re-pinned after every
//!   failover, same-seed reproducibility; release mode in CI) and priced by
//!   `fig4b_fleet` in `BENCH_fleet.json`.
//!
//! **Picking a shard count**: shards parallelize a memory-bandwidth-light linear scan,
//! so physical cores is the right default; past ~8 shards the per-query spawn+merge
//! overhead dominates for stores under ~10⁵ documents (see the `fig4b_search` bench's
//! shard sweep). Sharding never changes results, only wall-clock time, so tuning it
//! is purely an operational decision.
//!
//! **Search-pattern note (cache privacy)**: the fingerprint is a function of the
//! query index bytes the server receives anyway, so recognizing a repeat is exactly
//! the search pattern the server already observes (§6 builds its attack model on
//! it) — caching reveals nothing new. Symmetrically, query randomization (§6) makes
//! repeated keyword searches arrive as *different* bytes, which correctly miss the
//! cache: the privacy knob and the performance knob are the same dial, and the
//! `cached_session` example shows both positions.
//!
//! The same argument covers the work-stealing scheduler: which lane scans which
//! chunk range reorders only the server's *own* memory accesses across its own
//! threads. The work performed is identical (same comparisons, same per-range
//! arithmetic, same replies, stats and counters), and the access pattern remains
//! a function of the query bytes the server already observes plus the public
//! geometry — scheduling, like batching, decides *when and where* the server
//! computes, never *what* can be observed (§6's leakage model is untouched).
//!
//! The cross-client batcher extends the same argument across connections:
//! coalescing the queries of the connections that are querying reorders only
//! the server's *own* memory accesses over requests it has already observed.
//! Each request's bytes, its reply, its `SearchStats` and its cache counters
//! are unchanged (the fused group is byte-identical to sequential execution),
//! and which requests share a group is a function of which connections sent
//! which frames when, which the server observes anyway — batching is
//! scheduling, not a new channel, and no client learns anything about another
//! client's queries from it (§6's per-query leakage profile is untouched).
//!
//! The resilience layer keeps the model intact from the other side of the
//! wire: a retry retransmits bytes the adversary has *already observed* — a
//! resubmission is exactly the repeated-query observation §6's search-pattern
//! leakage already grants, carrying no new information. Shedding is a
//! function of server-side load (the hub's in-flight count), which the
//! timing channel already exposes to any client measuring its own latency,
//! and `retry_after_ms` is a server-chosen constant rather than a
//! data-dependent quantity. Fault injection itself lives strictly on the
//! client side of the wire. Resilience changes *when and how often* bytes
//! cross the wire, never *what* can be computed from them — no new
//! observation channel opens (§6's leakage model is untouched once more).
//!
//! The fleet extends it across machines: registration and heartbeat traffic
//! is server-side topology exchange — capabilities, shard assignments and
//! each node's own `MetricsSnapshot` (already argued above) — a function of
//! fleet membership and self-observation, never of any query's bytes, so it
//! is not query-dependent and opens no new channel. Scatter frames forward
//! exactly the query bytes the coordinator already observed to the nodes
//! holding the relevant shards, and shard re-shipment moves index bytes the
//! cloud side already holds between cloud-side processes. Which node holds
//! which shard is — like lane scheduling and cross-client batching — a
//! where-to-compute decision: no node learns anything about a query beyond
//! the §6 observations the single server already made.
//!
//! And it covers the telemetry plane ([`core::telemetry`]) once more: every
//! recorded quantity — stage durations, lane steal counts, per-shard cache
//! hit/miss tallies, framed byte totals — is a function of bytes the server
//! already observes (its own requests, replies and memory accesses) plus the
//! public geometry. Recording is invisible by construction: at every
//! [`core::TelemetryLevel`], replies, `SearchStats`, cache counters and wire
//! bytes (the metrics op itself aside) are byte-identical to `Off`, enforced
//! by the Off-vs-Spans twin sweep in `scanplane_equivalence.rs`. The registry
//! observes the computation; it never participates in it, so the metrics
//! plane opens no channel §6 does not already grant the adversary.
//!
//! ## Quickstart
//!
//! The [`protocol::Client`] is the front door: upload and query both travel as
//! framed `Request`/`Response` envelopes, and the client measures the real
//! framed wire bytes of every exchange.
//!
//! ```
//! use mkse::core::{SystemParams, SchemeKeys, DocumentIndexer, QueryBuilder};
//! use mkse::protocol::{Client, CloudServer, QueryMessage};
//! use rand::SeedableRng;
//!
//! let params = SystemParams::default();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let keys = SchemeKeys::generate(&params, &mut rng);
//! let indexer = DocumentIndexer::new(&params, &keys);
//!
//! // A 2-shard cloud server behind the envelope client; the upload is a
//! // framed Request::Upload (index-only here — no encrypted bodies needed).
//! let mut server = Client::new(CloudServer::with_shards(params.clone(), 2));
//! server.upload(vec![
//!     indexer.index_keywords(0, &["cloud", "privacy", "search"]),
//!     indexer.index_keywords(1, &["weather", "forecast"]),
//! ], vec![]).unwrap();
//!
//! // Query for "privacy" AND "search", with query randomization enabled.
//! let trapdoors = keys.trapdoors_for(&params, &["privacy", "search"]);
//! let pool = keys.random_pool_trapdoors(&params);
//! let query = QueryBuilder::new(&params)
//!     .add_trapdoors(&trapdoors)
//!     .with_randomization(&pool)
//!     .build(&mut rng);
//! let reply = server.query(&QueryMessage { query: query.bits().clone(), top: None }).unwrap();
//! assert_eq!(reply.matches.len(), 1);
//! assert_eq!(reply.matches[0].document_id, 0);
//! // Every exchange crossed the framed codec — the measured cost is known.
//! assert!(server.wire_stats().bytes_sent > 0);
//! ```

pub use mkse_baselines as baselines;
pub use mkse_core as core;
pub use mkse_crypto as crypto;
pub use mkse_linalg as linalg;
pub use mkse_net as net;
pub use mkse_protocol as protocol;
pub use mkse_textproc as textproc;

/// Semantic version of the workspace facade.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
