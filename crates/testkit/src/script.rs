//! The oracle matrix's script: one seeded list of ops on a served index, and
//! the reference its rows are judged by.
//!
//! [`Script::generate`] draws the ops from a seed; [`Script::resolve`] walks
//! them on the reference into one [`Step`] per op: the requests a served row
//! sends and what the reference answers, scanning a query once per corpus
//! state however many rows and cuts read it. The reference is `CloudIndex`
//! and the ciphertexts uploaded for replies, and a model of the serving state
//! every op changes — `OperationCounters`, `CacheStats`, each search reply's
//! `CacheReport` and `ServerInfo` — in which each op states, once, what it
//! changes. A new op is one arm of `generate` and one rule in `Model::apply`.

use crate::{Fixture, GLOBAL_SHARDS};
use mkse_core::search::scan_ranked;
use mkse_core::{
    deserialize_store, serialize_store, BitIndex, CacheEffect, CacheStats, CloudIndex,
    PersistenceError, QueryIndex, RankedDocumentIndex, SearchMatch, SearchStats, StoreError,
};
use mkse_crypto::{bigint::BigUint, rsa::RsaSignature};
use mkse_protocol::{
    wire, BatchQueryMessage, BatchSearchReply, BlindDecryptRequest, CacheReport, DocumentReply,
    DocumentRequest, EncryptedDocumentTransfer, OperationCounters, ProtocolError, QueryMessage,
    Request, Response, SearchReply, SearchResultEntry, ServerInfo, UploadMessage,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// An id no corpus stores.
const MISSING: u64 = u64::MAX;

/// Added to a seed document's id to name its copy in the good restore bytes
/// and in the clashing writes.
const RESTORED: u64 = 1 << 40;

use Cut::{All, At, Len, Max};

/// A `top`, absolute or relative to the reference's match count.
#[derive(Clone, Copy, Debug)]
pub enum Cut {
    All,
    At(usize),
    /// The match count plus this.
    Len(isize),
    Max,
}

/// Every cut a query takes: none, 0, 1, len − 1, len, len + 1 and the widest.
const CUTS: [Cut; 7] = [All, At(0), At(1), Len(-1), Len(0), Len(1), Max];

/// One op on a served index. Queries are positions in the fixture's queries,
/// uploads positions in its extra uploads: two new documents, then one that
/// re-sends a stored id.
#[derive(Clone, Debug)]
pub enum Op {
    Upload(usize),
    /// A fresh copy of a seed document, then a stored one: the store keeps
    /// the copy and refuses the rest.
    UploadClash,
    Query(usize, Cut),
    /// Independent queries at their own cuts: an engine batch, a
    /// `call_query_group` or pipelined `Query` frames.
    Group(Vec<(usize, Cut)>),
    /// One `BatchQuery`, under one absolute cut.
    Batch(Vec<usize>, Cut),
    EnableCache(u64),
    DisableCache,
    CacheStats,
    Snapshot,
    /// Copies of the first seed documents under fresh ids, so they match
    /// what the originals match.
    Restore,
    /// Three bytes of those.
    RestoreGarbage,
    /// The bytes of another fresh copy, then of a stored document.
    RestoreClash,
    Documents(Vec<u64>),
    Counters,
    ResetCounters,
    ServerInfo,
    /// An owner op sent to the server by mistake.
    Misrouted,
}

/// A seeded list of ops.
pub struct Script {
    pub ops: Vec<Op>,
}

impl Script {
    /// The script of `seed` on `fixture`. An even seed enables the cache at
    /// capacity 64 over every query, an odd one at capacity 4 over four: no
    /// served cache evicts, so a coalesced group's cache reports stay those
    /// of sequential calls (the batch caveat in `mkse_core::engine`).
    pub fn generate(seed: u64, fixture: &Fixture) -> Script {
        let capacity = if seed.is_multiple_of(2) { 64 } else { 4 };
        let mut rng = StdRng::seed_from_u64(seed);
        // The queries in a seeded order, as many as the cache holds.
        let mut working: Vec<usize> = (0..fixture.queries.len()).collect();
        for i in (1..working.len()).rev() {
            working.swap(i, rng.gen_range(0..=i));
        }
        working.truncate(capacity as usize);
        let first = working[0];
        let last = working[working.len() - 1];

        // Each working query once, the cuts rotating pass by pass — so a
        // later pass re-issues bits the cache holds at a narrower cut.
        let mut passes = 0;
        let mut pass = || {
            passes += 1;
            let cuts = CUTS.iter().cycle().skip(passes);
            let queries = working.iter().zip(cuts);
            queries
                .map(|(&q, &cut)| Op::Query(q, cut))
                .collect::<Vec<_>>()
        };
        // Each working query at a drawn cut, then the first and the last again
        // at other cuts.
        let group = |rng: &mut StdRng| {
            let mut cuts: Vec<usize> = working.iter().map(|_| rng.gen_range(0..7)).collect();
            let first_again = (cuts[0] + rng.gen_range(1..7usize)) % 7;
            let last_again = (cuts[cuts.len() - 1] + rng.gen_range(1..7usize)) % 7;
            cuts.extend([first_again, last_again]);
            let queries = working.iter().copied().chain([first, last]);
            let members = queries.zip(cuts).map(|(q, c)| (q, CUTS[c])).collect();
            vec![Op::Group(members)]
        };
        // Every working query and the first again, under one drawn cut.
        let batch = |rng: &mut StdRng| {
            let cuts = [All, At(0), At(1), At(3), Max];
            let cut = cuts[rng.gen_range(0..cuts.len())];
            let queries = working.iter().copied().chain([first]).collect();
            vec![Op::Batch(queries, cut)]
        };

        let seeded = &fixture.seed_upload.indices;
        let stored = seeded[rng.gen_range(0..seeded.len())].document_id;
        let uploaded = fixture.extra_uploads[0].indices[0].document_id;
        let restored = seeded[0].document_id + RESTORED;
        let misrouted_at = rng.gen_range(0..40usize);
        let mut ops: Vec<Op> = [
            vec![Op::ServerInfo, Op::Counters],
            pass(),
            group(&mut rng),
            batch(&mut rng),
            vec![Op::EnableCache(capacity)],
            pass(),
            pass(),
            group(&mut rng),
            batch(&mut rng),
            vec![Op::CacheStats, Op::Upload(0)],
            pass(),
            vec![Op::Upload(2), Op::UploadClash],
            vec![Op::Documents(vec![stored, uploaded])],
            vec![Op::Restore],
            pass(),
            vec![Op::Documents(vec![stored, restored, MISSING])],
            vec![Op::RestoreGarbage, Op::RestoreClash, Op::CacheStats],
            vec![Op::Counters, Op::ResetCounters, Op::Counters, Op::Upload(1)],
            pass(),
            group(&mut rng),
            vec![Op::DisableCache, Op::CacheStats],
            pass(),
            batch(&mut rng),
            vec![Op::Snapshot, Op::Counters, Op::ServerInfo],
        ]
        .concat();
        ops.insert(misrouted_at.min(ops.len()), Op::Misrouted);
        Script { ops }
    }

    /// Walk the script on the reference of a row with `shards` shards (its
    /// cache looks each one up) that served `built` requests before the
    /// script — the seed upload, and a fleet's registrations: one [`Step`]
    /// per op.
    pub fn resolve(&self, fixture: &Fixture, shards: usize, built: u64) -> Vec<Step> {
        let seeded = &fixture.seed_upload.indices;
        let mut index = CloudIndex::new(fixture.params.clone());
        index.insert_all(seeded.iter().cloned()).expect("seed");
        let copy = |index: &RankedDocumentIndex| RankedDocumentIndex {
            document_id: index.document_id + RESTORED,
            ..index.clone()
        };
        let copies: Vec<RankedDocumentIndex> = seeded.iter().take(8).map(copy).collect();
        let clash = |k: usize| vec![copy(&seeded[k]), seeded[0].clone()];
        let mut model = Model {
            fixture,
            restore: serialize_store(&fixture.params, &copies),
            clashes: [clash(8), clash(9)],
            index,
            ciphertexts: BTreeMap::new(),
            scans: HashMap::new(),
            shard_comparisons: HashMap::new(),
            shards,
            counters: OperationCounters {
                requests_served: built,
                ..OperationCounters::default()
            },
            cache: None,
        };
        model.keep_ciphertexts(&fixture.seed_upload);
        self.ops.iter().map(|op| model.apply(op)).collect()
    }
}

/// One query position of a read op: the query, its top, the reference's
/// matches cut to it, and the whole scan's stats.
pub type Ranked = (QueryIndex, Option<usize>, Vec<SearchMatch>, SearchStats);

/// What the reference answers one op.
pub struct Step {
    pub op: Op,
    /// What a served row sends: a group is one `Query` per member.
    pub requests: Vec<Request>,
    /// The reference's reply per request; none for a read op on a corpus
    /// without ciphertexts (only engines run those, and read `ranked`).
    pub replies: Vec<Response>,
    pub ranked: Vec<Ranked>,
    /// Per looked-up id: the index the reference stores under it.
    pub lookups: Vec<(u64, Option<RankedDocumentIndex>)>,
}

/// The reference state a script evolves.
struct Model<'a> {
    fixture: &'a Fixture,
    /// The good restore bytes.
    restore: Vec<u8>,
    /// What `UploadClash` and `RestoreClash` write.
    clashes: [Vec<RankedDocumentIndex>; 2],
    index: CloudIndex,
    ciphertexts: BTreeMap<u64, EncryptedDocumentTransfer>,
    /// Each query's uncut scan in this state; a write clears them.
    scans: HashMap<usize, (Vec<SearchMatch>, SearchStats)>,
    /// Each query's comparisons per shard in this state, once the cache
    /// needs them; a write clears them.
    shard_comparisons: HashMap<usize, Vec<u64>>,
    /// Upload position `i` is on shard `i % shards`.
    shards: usize,
    /// `requests_served` counts the request that reads it.
    counters: OperationCounters,
    cache: Option<CacheModel>,
}

/// A served result cache. None evicts, so its entries are the (query, shard)
/// scans it admitted, each under its shard's write generation then and at
/// the cut it was read at.
struct CacheModel {
    stats: CacheStats,
    generations: Vec<u64>,
    entries: HashMap<(BitIndex, usize), (u64, Option<usize>)>,
}

/// An entry cached at cut `cached` serves a read at cut `top` iff `cached`
/// is uncut, or `top` is a cut no wider than it.
fn serves(cached: Option<usize>, top: Option<usize>) -> bool {
    match (cached, top) {
        (None, _) => true,
        (Some(cached), Some(top)) => top <= cached,
        (Some(_), None) => false,
    }
}

impl Model<'_> {
    fn keep_ciphertexts(&mut self, upload: &UploadMessage) {
        for document in &upload.documents {
            self.ciphertexts
                .insert(document.document_id, document.clone());
        }
    }

    fn ranked(&mut self, q: usize, cut: Cut) -> Ranked {
        let query = QueryIndex::from_bits(self.fixture.queries[q].query.clone());
        let index = &self.index;
        let scan = self.scans.entry(q);
        let (all, stats) = scan.or_insert_with(|| index.search_ranked_with_stats(&query));
        let top = match cut {
            All => None,
            At(k) => Some(k),
            Len(delta) => Some(all.len().saturating_add_signed(delta)),
            Max => Some(usize::MAX),
        };
        let kept = all[..top.unwrap_or(usize::MAX).min(all.len())].to_vec();
        (query, top, kept, *stats)
    }

    /// One served read of query `q` at cut `top`: each shard looked up in the
    /// cache — a live entry whose cut serves `top` is a hit and saves that
    /// shard's comparisons; anything else is a miss (a stale entry is also an
    /// invalidation) that admits its scan at `top` — and the comparisons
    /// counted.
    fn read(&mut self, q: usize, top: Option<usize>, stats: SearchStats) -> CacheReport {
        let mut effect = CacheEffect::default();
        if let Some(cache) = &mut self.cache {
            let (index, shards) = (&self.index, self.shards);
            let query = QueryIndex::from_bits(self.fixture.queries[q].query.clone());
            let per_shard = self.shard_comparisons.entry(q).or_insert_with(|| {
                let mut comparisons = vec![0; shards];
                for (i, document) in index.documents().iter().enumerate() {
                    let (_, stats) = scan_ranked(std::slice::from_ref(document), &query);
                    comparisons[i % shards] += stats.comparisons;
                }
                comparisons
            });
            for (shard, &saved) in per_shard.iter().enumerate() {
                let generation = cache.generations[shard];
                let key = (query.bits().clone(), shard);
                match cache.entries.get(&key) {
                    Some(&(admitted, cut)) if admitted == generation && serves(cut, top) => {
                        cache.stats.hits += 1;
                        cache.stats.saved_comparisons += saved;
                        effect.shard_hits += 1;
                        effect.saved_comparisons += saved;
                    }
                    held => {
                        let stale = held.is_some_and(|&(admitted, _)| admitted != generation);
                        cache.stats.invalidations += u64::from(stale);
                        cache.stats.misses += 1;
                        effect.shard_misses += 1;
                        cache.entries.insert(key, (generation, top));
                    }
                }
            }
        }
        let counters = &mut self.counters;
        counters.binary_comparisons += stats.comparisons - effect.saved_comparisons;
        counters.comparisons_saved_by_cache += effect.saved_comparisons;
        counters.cache_served_replies += u64::from(effect.fully_cached());
        CacheReport::from(effect)
    }

    fn search_reply(&self, ranked: &Ranked, cache: CacheReport) -> SearchReply {
        let entry = |m: &SearchMatch| SearchResultEntry {
            document_id: m.document_id,
            rank: m.rank,
            metadata: self
                .index
                .document_index(m.document_id)
                .unwrap()
                .levels
                .clone(),
        };
        SearchReply {
            matches: ranked.2.iter().map(entry).collect(),
            cache,
        }
    }

    /// Store `indices` as the store does, up to the first refusal: each
    /// accepted one lands on the next upload position's shard and bumps its
    /// write generation.
    fn insert(&mut self, indices: Vec<RankedDocumentIndex>) -> Result<(), StoreError> {
        self.scans.clear();
        self.shard_comparisons.clear();
        for index in indices {
            let shard = self.index.len() % self.shards;
            self.index.insert(index)?;
            if let Some(cache) = &mut self.cache {
                cache.generations[shard] += 1;
            }
        }
        Ok(())
    }

    /// The judge rules: the requests `op` sends and what the reference answers.
    fn apply(&mut self, op: &Op) -> Step {
        let members: Vec<(usize, Cut)> = match op {
            Op::Query(q, cut) => vec![(*q, *cut)],
            Op::Group(members) => members.clone(),
            Op::Batch(queries, cut) => queries.iter().map(|&q| (q, *cut)).collect(),
            _ => vec![],
        };
        let ranked: Vec<Ranked> = (members.iter())
            .map(|&(q, cut)| self.ranked(q, cut))
            .collect();
        let mut step = Step {
            op: op.clone(),
            requests: vec![],
            replies: vec![],
            ranked,
            lookups: vec![],
        };
        // A corpus without ciphertexts has no served replies to read.
        let served = !self.fixture.seed_upload.documents.is_empty();
        if !members.is_empty() {
            let mut replies = Vec::new();
            for (&(q, _), ranked) in members.iter().zip(&step.ranked) {
                let report = self.read(q, ranked.1, ranked.3);
                replies.extend(served.then(|| self.search_reply(ranked, report)));
            }
            let query = |r: &Ranked| QueryMessage {
                query: r.0.bits().clone(),
                top: r.1,
            };
            if let Op::Batch(..) = op {
                self.counters.requests_served += 1;
                let queries = step.ranked.iter().map(|r| r.0.bits().clone()).collect();
                let top = step.ranked[0].1;
                step.requests = vec![Request::BatchQuery(BatchQueryMessage { queries, top })];
                if served {
                    step.replies = vec![Response::BatchSearch(BatchSearchReply { replies })];
                }
            } else {
                self.counters.requests_served += members.len() as u64;
                step.requests = step.ranked.iter().map(query).map(Request::Query).collect();
                step.replies = replies.into_iter().map(Response::Search).collect();
            }
            return step;
        }
        self.counters.requests_served += 1;
        let (request, reply) = match op {
            Op::Upload(i) => {
                let upload = self.fixture.extra_uploads[*i].clone();
                let reply = match self.insert(upload.indices.clone()) {
                    Ok(()) => {
                        self.keep_ciphertexts(&upload);
                        let documents = self.index.len() as u64;
                        Response::Uploaded { documents }
                    }
                    Err(e) => Response::Error(e.into()),
                };
                (Request::Upload(upload), reply)
            }
            Op::UploadClash => {
                let indices = self.clashes[0].clone();
                let refusal = self.insert(indices.clone()).expect_err("a stored id");
                let documents = vec![];
                let request = Request::Upload(UploadMessage { indices, documents });
                (request, Response::Error(refusal.into()))
            }
            Op::Restore | Op::RestoreGarbage | Op::RestoreClash => {
                let bytes = match op {
                    Op::RestoreClash => serialize_store(&self.fixture.params, &self.clashes[1]),
                    Op::RestoreGarbage => self.restore[..3].to_vec(),
                    _ => self.restore.clone(),
                };
                let reply = match deserialize_store(&self.fixture.params, &bytes) {
                    Ok(indices) => {
                        let documents = indices.len() as u64;
                        let stored = self.insert(indices);
                        // Whatever the store kept, every shard moves on once.
                        if let Some(cache) = &mut self.cache {
                            cache.generations.iter_mut().for_each(|g| *g += 1);
                        }
                        match stored {
                            Ok(()) => Response::Restored { documents },
                            Err(e) => Response::Error(PersistenceError::Store(e).into()),
                        }
                    }
                    Err(e) => Response::Error(e.into()),
                };
                (Request::RestoreIndex(bytes), reply)
            }
            Op::Snapshot => {
                let bytes = serialize_store(&self.fixture.params, self.index.documents());
                (Request::SnapshotIndex, Response::Snapshot(bytes))
            }
            Op::Documents(ids) => {
                for &id in ids {
                    let stored = self.index.document_index(id).cloned();
                    step.lookups.push((id, stored));
                }
                let fetched: Result<Vec<EncryptedDocumentTransfer>, ProtocolError> = (ids.iter())
                    .map(|id| {
                        let document = self.ciphertexts.get(id).cloned();
                        document.ok_or(ProtocolError::UnknownDocument(*id))
                    })
                    .collect();
                let reply = match fetched {
                    Ok(documents) => Response::Documents(DocumentReply { documents }),
                    Err(e) => Response::Error(e),
                };
                let document_ids = ids.clone();
                let request = Request::Documents(DocumentRequest { document_ids });
                (request, reply)
            }
            // A cache starts over: empty, its counters and generations zero.
            Op::EnableCache(capacity_per_shard) => {
                self.cache = Some(CacheModel {
                    stats: CacheStats::default(),
                    generations: vec![0; self.shards],
                    entries: HashMap::new(),
                });
                let capacity_per_shard = *capacity_per_shard;
                (Request::EnableCache { capacity_per_shard }, Response::Ack)
            }
            Op::DisableCache => {
                self.cache = None;
                (Request::DisableCache, Response::Ack)
            }
            Op::CacheStats => {
                let stats = self.cache.as_ref().map(|cache| cache.stats);
                (Request::CacheStats, Response::CacheStats(stats))
            }
            Op::Counters => (Request::Counters, Response::Counters(self.counters)),
            // The Table 2 view rebases on the registry, the reset included.
            Op::ResetCounters => {
                self.counters = OperationCounters::default();
                (Request::ResetCounters, Response::Ack)
            }
            Op::ServerInfo => {
                let params = &self.fixture.params;
                let info = ServerInfo {
                    shards: self.shards as u64,
                    documents: self.index.len() as u64,
                    index_bits: params.index_bits as u64,
                    rank_levels: params.rank_levels() as u64,
                    cache_enabled: self.cache.is_some(),
                };
                (Request::ServerInfo, Response::Info(info))
            }
            Op::Misrouted => {
                let request = BlindDecryptRequest {
                    user_id: 1,
                    blinded_ciphertext: BigUint::from_u64(5),
                    signature: RsaSignature::from_value(BigUint::from_u64(1)),
                };
                let refusal = "BlindDecrypt is served by the data owner, not the cloud server";
                let refusal = ProtocolError::Unsupported(refusal.into());
                (Request::BlindDecrypt(request), Response::Error(refusal))
            }
            Op::Query(..) | Op::Group(_) | Op::Batch(..) => unreachable!("answered above"),
        };
        step.requests.push(request);
        step.replies.push(reply);
        step
    }
}

/// `step` as a fleet answers it, where one server answers the model's
/// replies: cache administration is refused, every `CacheReport` is zero (the
/// nodes serve the cache-off oracle), `Counters` carries `requests_served`
/// alone (comparisons are counted per node), `ServerInfo` reports
/// [`GLOBAL_SHARDS`] shards with the cache off, and a misrouted op gets the
/// coordinator's own refusal.
pub fn fleet_view(mut step: Step) -> Step {
    let refused = |text: String| Response::Error(ProtocolError::Unsupported(text));
    let uncached = |reply: &mut SearchReply| reply.cache = CacheReport::default();
    for (request, reply) in step.requests.iter().zip(&mut step.replies) {
        let name = request.name();
        match (request, reply) {
            (Request::EnableCache { .. } | Request::DisableCache | Request::CacheStats, reply) => {
                let why = "is a per-node knob; the fleet coordinator serves the cache-off oracle";
                *reply = refused(format!("{name} {why}"));
            }
            (Request::BlindDecrypt(_), reply) => {
                let why = "is served by the data owner, not the fleet coordinator";
                *reply = refused(format!("{name} {why}"));
            }
            (_, Response::Search(reply)) => uncached(reply),
            (_, Response::BatchSearch(batch)) => batch.replies.iter_mut().for_each(uncached),
            (_, Response::Counters(counters)) => {
                let requests_served = counters.requests_served;
                *counters = OperationCounters {
                    requests_served,
                    ..OperationCounters::default()
                };
            }
            (_, Response::Info(info)) => {
                info.shards = GLOBAL_SHARDS as u64;
                info.cache_enabled = false;
            }
            _ => {}
        }
    }
    step
}

/// Where a judge stands: the seed that replays it, the row and the op.
pub fn at(seed: u64, row: &str, op: usize, step: &Step) -> String {
    format!("seed {seed}, row {row}, op {op} ({:?})", step.op)
}

/// A row's replies to every step equal the reference's, value and frame
/// bytes alike; the first that differs names its op.
pub fn assert_replies(seed: u64, row: &str, steps: &[Step], got: &[Vec<Response>]) {
    assert_eq!(got.len(), steps.len(), "seed {seed}, row {row}: ops");
    for (i, (got, step)) in got.iter().zip(steps).enumerate() {
        let (at, want) = (at(seed, row, i, step), &step.replies);
        assert!(got == want, "{at}: {got:?}, want {want:?}");
        for (got, want) in got.iter().zip(want) {
            let frames = (
                wire::encode_response(7, got),
                wire::encode_response(7, want),
            );
            assert!(frames.0 == frames.1, "{at}: frame bytes");
        }
    }
}
