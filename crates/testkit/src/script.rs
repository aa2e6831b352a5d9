//! The oracle matrix's script: one seeded list of ops on a served index, and
//! the reference its rows are judged by.
//!
//! [`Script::generate`] draws the ops from a seed; [`Script::resolve`] walks
//! them on the reference — `CloudIndex` and the ciphertexts uploaded — into
//! one [`Step`] per op: the requests a served row sends and what the
//! reference answers, scanning a query once per corpus state however many
//! rows and cuts read it. A new op is one arm of `generate` and one judge
//! rule in `Model::apply`.

use crate::Fixture;
use mkse_core::{
    deserialize_store, serialize_store, CloudIndex, QueryIndex, RankedDocumentIndex, SearchMatch,
    SearchStats,
};
use mkse_crypto::{bigint::BigUint, rsa::RsaSignature};
use mkse_protocol::{
    wire, BatchQueryMessage, BatchSearchReply, BlindDecryptRequest, CloudServer, DocumentReply,
    DocumentRequest, EncryptedDocumentTransfer, ProtocolError, QueryMessage, Request, Response,
    SearchReply, SearchResultEntry, Service, UploadMessage,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

/// An id no corpus stores.
const MISSING: u64 = u64::MAX;

/// Added to a seed document's id to name its copy in the good restore bytes.
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

        // Each working query once, the cuts rotating pass by pass.
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
            vec![Op::Upload(2), Op::Documents(vec![stored, uploaded])],
            vec![Op::Restore],
            pass(),
            vec![Op::Documents(vec![stored, restored, MISSING])],
            vec![Op::RestoreGarbage, Op::CacheStats, Op::Counters],
            vec![Op::ResetCounters, Op::Counters, Op::Upload(1)],
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

    /// Walk the script on the reference: one [`Step`] per op.
    pub fn resolve(&self, fixture: &Fixture) -> Vec<Step> {
        let seeded = &fixture.seed_upload.indices;
        let mut index = CloudIndex::new(fixture.params.clone());
        index.insert_all(seeded.iter().cloned()).expect("seed");
        let copies: Vec<RankedDocumentIndex> = (seeded.iter().take(8))
            .map(|index| RankedDocumentIndex {
                document_id: index.document_id + RESTORED,
                ..index.clone()
            })
            .collect();
        let mut model = Model {
            fixture,
            restore: serialize_store(&fixture.params, &copies),
            index,
            ciphertexts: BTreeMap::new(),
            scans: HashMap::new(),
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
    /// The reference's reply per request, cache reports aside; none where the
    /// twin is the reference, or for a read op on a corpus without
    /// ciphertexts.
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
    index: CloudIndex,
    ciphertexts: BTreeMap<u64, EncryptedDocumentTransfer>,
    /// Each query's uncut scan in this state; a write clears them.
    scans: HashMap<usize, (Vec<SearchMatch>, SearchStats)>,
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

    fn search_reply(&self, ranked: &Ranked) -> SearchReply {
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
            cache: Default::default(),
        }
    }

    /// The judge rules: the requests `op` sends and what the reference answers.
    fn apply(&mut self, op: &Op) -> Step {
        let members: Vec<(usize, Cut)> = match op {
            Op::Query(q, cut) => vec![(*q, *cut)],
            Op::Group(members) => members.clone(),
            Op::Batch(queries, cut) => queries.iter().map(|&q| (q, *cut)).collect(),
            _ => vec![],
        };
        let ranked: Vec<Ranked> = (members.into_iter())
            .map(|(q, cut)| self.ranked(q, cut))
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
        let (request, reply) = match op {
            Op::Query(..) | Op::Group(_) => {
                for (query, top, ..) in &step.ranked {
                    let query = query.bits().clone();
                    let top = *top;
                    step.requests
                        .push(Request::Query(QueryMessage { query, top }));
                }
                if served {
                    let replies = step.ranked.iter().map(|r| self.search_reply(r));
                    step.replies = replies.map(Response::Search).collect();
                }
                return step;
            }
            Op::Batch(..) => {
                let queries = step.ranked.iter().map(|r| r.0.bits().clone()).collect();
                let top = step.ranked[0].1;
                step.requests = vec![Request::BatchQuery(BatchQueryMessage { queries, top })];
                if served {
                    let replies = step.ranked.iter().map(|r| self.search_reply(r)).collect();
                    step.replies = vec![Response::BatchSearch(BatchSearchReply { replies })];
                }
                return step;
            }
            Op::Upload(i) => {
                let upload = self.fixture.extra_uploads[*i].clone();
                self.scans.clear();
                let reply = match self.index.insert_all(upload.indices.iter().cloned()) {
                    Ok(()) => {
                        self.keep_ciphertexts(&upload);
                        let documents = self.index.len() as u64;
                        Response::Uploaded { documents }
                    }
                    Err(e) => Response::Error(e.into()),
                };
                (Request::Upload(upload), Some(reply))
            }
            Op::Restore | Op::RestoreGarbage => {
                let mut bytes = self.restore.clone();
                if let Op::RestoreGarbage = op {
                    bytes.truncate(3);
                }
                self.scans.clear();
                let reply = match deserialize_store(&self.fixture.params, &bytes) {
                    Ok(indices) => {
                        let documents = indices.len() as u64;
                        self.index.insert_all(indices).expect("fresh ids");
                        Response::Restored { documents }
                    }
                    Err(e) => Response::Error(e.into()),
                };
                (Request::RestoreIndex(bytes), Some(reply))
            }
            Op::Snapshot => {
                let bytes = serialize_store(&self.fixture.params, self.index.documents());
                (Request::SnapshotIndex, Some(Response::Snapshot(bytes)))
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
                (request, Some(reply))
            }
            Op::EnableCache(capacity_per_shard) => {
                let capacity_per_shard = *capacity_per_shard;
                (
                    Request::EnableCache { capacity_per_shard },
                    Some(Response::Ack),
                )
            }
            Op::DisableCache => (Request::DisableCache, Some(Response::Ack)),
            // The twin is the reference for counters and deployment facts.
            Op::CacheStats => (Request::CacheStats, None),
            Op::ServerInfo => (Request::ServerInfo, None),
            Op::Counters => (Request::Counters, None),
            Op::ResetCounters => (Request::ResetCounters, Some(Response::Ack)),
            Op::Misrouted => {
                let request = BlindDecryptRequest {
                    user_id: 1,
                    blinded_ciphertext: BigUint::from_u64(5),
                    signature: RsaSignature::from_value(BigUint::from_u64(1)),
                };
                let refusal = "BlindDecrypt is served by the data owner, not the cloud server";
                let refusal = ProtocolError::Unsupported(refusal.into());
                (
                    Request::BlindDecrypt(request),
                    Some(Response::Error(refusal)),
                )
            }
        };
        step.requests.push(request);
        step.replies.extend(reply);
        step
    }
}

/// A served reply without the cache reports the reference does not model.
fn reference_view(reply: &Response) -> Response {
    let mut reply = reply.clone();
    match &mut reply {
        Response::Search(r) => r.cache = Default::default(),
        Response::BatchSearch(b) => {
            for r in &mut b.replies {
                r.cache = Default::default();
            }
        }
        _ => {}
    }
    reply
}

/// Where a judge stands: the seed that replays it, the row and the op.
pub fn at(seed: u64, row: &str, op: usize, step: &Step) -> String {
    format!("seed {seed}, row {row}, op {op} ({:?})", step.op)
}

/// The sequential `CloudServer::call` twin after a script, and its replies
/// per op. What it answers is what every served row must answer.
pub struct Twin {
    pub server: CloudServer,
    pub replies: Vec<Vec<Response>>,
}

/// Run `steps` on `server` one `call` at a time, each reply held to the
/// reference; `row` names it in a failure.
pub fn call_twin(mut server: CloudServer, steps: &[Step], seed: u64, row: &str) -> Twin {
    let mut replies = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let answered: Vec<Response> = (step.requests.iter())
            .map(|request| server.call(request.clone()))
            .collect();
        if !step.replies.is_empty() {
            let seen: Vec<Response> = answered.iter().map(reference_view).collect();
            let want = &step.replies;
            assert!(
                seen == *want,
                "{}: {seen:?}, want {want:?}",
                at(seed, row, i, step)
            );
        }
        replies.push(answered);
    }
    Twin { server, replies }
}

/// A row's replies equal the twin's, value and frame bytes alike.
pub fn assert_same_replies(
    seed: u64,
    row: &str,
    steps: &[Step],
    got: &[Vec<Response>],
    twin: &Twin,
) {
    assert_eq!(got.len(), twin.replies.len(), "seed {seed}, row {row}: ops");
    for (i, (got, want)) in got.iter().zip(&twin.replies).enumerate() {
        let at = at(seed, row, i, &steps[i]);
        assert_eq!(got, want, "{at}");
        for (got, want) in got.iter().zip(want) {
            let frames = (
                wire::encode_response(7, got),
                wire::encode_response(7, want),
            );
            assert!(frames.0 == frames.1, "{at}: frame bytes");
        }
    }
}
