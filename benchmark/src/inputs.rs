//! Everything the system under test is fed, generated from `--seed` and
//! nothing else: the corpus, the pre-indexed upload batches, the query pool
//! and each client's op sequence. The seed never reaches the system itself.

use crate::spec::{self, Workload};
use mkse_core::{
    DocumentIndexer, QueryBuilder, RankedDocumentIndex, SchemeKeys, SystemParams, Trapdoor,
};
use mkse_protocol::QueryMessage;
use mkse_textproc::document::{Document, TermFrequencies};
use rand::rngs::StdRng;
use rand::seq::index;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Generated inputs of one corpus. The corpus itself is never held whole:
/// 64k `Document`s weigh several times what the deployment under test does,
/// and would drown it in `peak_rss_mb`. [`Inputs::corpus_chunks`] regenerates
/// it, identically, a chunk at a time.
pub struct Inputs {
    pub params: SystemParams,
    pub keys: SchemeKeys,
    seed: u64,
    /// Documents in the seed corpus; set-up indexes and uploads exactly these.
    pub num_docs: usize,
    /// Pre-indexed documents with ids following the corpus, consumed
    /// `UPLOAD_DOCS` at a time by `Upload` ops (indexing them is harness
    /// work, not set-up).
    pub upload_pool: Vec<RankedDocumentIndex>,
    /// Randomized 2-keyword queries, each matching at least one document.
    pub pool: Vec<QueryMessage>,
}

/// One client op. Payloads are looked up in [`Inputs`] by index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Query `pool[i]`.
    Query(u32),
    /// Upload batch `k`: `upload_pool[k * UPLOAD_DOCS..][..UPLOAD_DOCS]`.
    Upload(u32),
}

/// The paper's synthetic corpus in the `BenchFixture` geometry: every
/// document draws 20 distinct keywords from a 25k vocabulary, each with a term
/// frequency uniform in 1..=15. Ids start at `first_id`.
fn synthesize(rng: &mut StdRng, first_id: u64, count: usize) -> Vec<Document> {
    (0..count as u64)
        .map(|offset| {
            let mut terms = TermFrequencies::new();
            for position in index::sample(rng, 25_000, 20) {
                terms.add_count(&format!("kw{position:05}"), rng.gen_range(1..=15));
            }
            Document::from_terms(first_id + offset, terms)
        })
        .collect()
}

/// The seed corpus as a stream of `SEED_CHUNK`-document chunks.
pub struct CorpusChunks {
    rng: StdRng,
    next: usize,
    total: usize,
}

impl Iterator for CorpusChunks {
    type Item = Vec<Document>;

    fn next(&mut self) -> Option<Vec<Document>> {
        let count = spec::SEED_CHUNK.min(self.total - self.next);
        if count == 0 {
            return None;
        }
        let docs = synthesize(&mut self.rng, self.next as u64, count);
        self.next += count;
        Some(docs)
    }
}

/// `DocumentIndexer::index_documents` over a chunked corpus: the same
/// per-term trapdoor cache, kept across chunks.
pub struct ChunkIndexer<'a> {
    indexer: DocumentIndexer<'a>,
    trapdoors: HashMap<String, Trapdoor>,
}

impl ChunkIndexer<'_> {
    pub fn index(&mut self, docs: &[Document]) -> Vec<RankedDocumentIndex> {
        docs.iter()
            .map(|d| {
                self.indexer
                    .index_terms_cached(d.id, &d.terms, &mut self.trapdoors)
            })
            .collect()
    }
}

impl Inputs {
    /// Keys, the query pool and `upload_batches` batches of fresh documents
    /// for a corpus of `num_docs` documents (r = 448, eta = 3).
    pub fn generate(seed: u64, num_docs: usize, upload_batches: usize) -> Inputs {
        let params = SystemParams::default();
        let keys = SchemeKeys::generate(&params, &mut StdRng::seed_from_u64(spec::KEY_SEED));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = Inputs {
            params,
            keys,
            seed,
            num_docs,
            upload_pool: Vec::new(),
            pool: Vec::new(),
        };

        // Pool slot i queries one keyword pair of one document, spread over
        // the corpus; when the pool outnumbers the documents, later passes
        // over a document take its next pair.
        let mut wanted: HashMap<usize, Vec<usize>> = HashMap::new();
        for slot in 0..spec::POOL_SIZE {
            wanted.entry(slot * 7919 % num_docs).or_default().push(slot);
        }
        let mut keywords: Vec<Vec<String>> = vec![Vec::new(); spec::POOL_SIZE];
        let mut chunks = inputs.corpus_chunks();
        for chunk in &mut chunks {
            for doc in &chunk {
                for &slot in wanted.get(&(doc.id as usize)).into_iter().flatten() {
                    let pair = 2 * (slot / num_docs % 10);
                    keywords[slot] = doc.keywords()[pair..pair + 2]
                        .iter()
                        .map(|k| k.to_string())
                        .collect();
                }
            }
        }
        // The upload documents continue the corpus stream, so they are fresh.
        let fresh = synthesize(
            &mut chunks.rng,
            num_docs as u64,
            upload_batches * spec::UPLOAD_DOCS,
        );
        let upload_pool = inputs.indexer().index(&fresh);
        inputs.upload_pool = upload_pool;

        let random_pool = inputs.keys.random_pool_trapdoors(&inputs.params);
        inputs.pool = keywords
            .iter()
            .map(|pair| {
                let pair: Vec<&str> = pair.iter().map(String::as_str).collect();
                let trapdoors = inputs.keys.trapdoors_for(&inputs.params, &pair);
                let query = QueryBuilder::new(&inputs.params)
                    .add_trapdoors(&trapdoors)
                    .with_randomization(&random_pool)
                    .build(&mut rng);
                QueryMessage {
                    query: query.bits().clone(),
                    top: Some(spec::TOP_K),
                }
            })
            .collect();
        inputs
    }

    /// The seed corpus, regenerated from the seed: the same documents in the
    /// same order on every call.
    pub fn corpus_chunks(&self) -> CorpusChunks {
        CorpusChunks {
            rng: StdRng::seed_from_u64(self.seed ^ 0xC0_4B05),
            next: 0,
            total: self.num_docs,
        }
    }

    pub fn indexer(&self) -> ChunkIndexer<'_> {
        ChunkIndexer {
            indexer: DocumentIndexer::new(&self.params, &self.keys),
            trapdoors: HashMap::new(),
        }
    }

    /// The whole indexed corpus at once, for callers (the ladder) that seed
    /// many deployments from one copy.
    pub fn indexed_corpus(&self) -> Vec<RankedDocumentIndex> {
        let mut indexer = self.indexer();
        self.corpus_chunks()
            .flat_map(|chunk| indexer.index(&chunk))
            .collect()
    }

    pub fn upload_batch(&self, k: u32) -> &[RankedDocumentIndex] {
        &self.upload_pool[k as usize * spec::UPLOAD_DOCS..][..spec::UPLOAD_DOCS]
    }
}

fn client_rng(seed: u64, client: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1))
}

/// Client `client`'s timed-window op sequence: `ops` ops drawn from a stream
/// seeded by `(seed, client)`. `cached_rw` draws Zipf over the first
/// `CACHED_POOL` queries (the ranking drifting through them, see
/// `CACHED_ROTATE_EVERY`) and every `upload_every`-th op is an upload; every
/// other workload queries uniformly over the pool.
pub fn op_sequence(workload: &Workload, seed: u64, client: usize, ops: usize) -> Vec<Op> {
    let mut rng = client_rng(seed, client);
    if workload.upload_every == 0 {
        return (0..ops)
            .map(|_| Op::Query(rng.gen_range(0..spec::POOL_SIZE as u32)))
            .collect();
    }
    let zipf = Zipf::new(spec::CACHED_POOL, spec::CACHED_ZIPF);
    let mut next_batch = 0u32;
    (1..=ops)
        .map(|n| {
            if n % workload.upload_every == 0 {
                next_batch += 1;
                Op::Upload(next_batch - 1)
            } else {
                let drift = n / spec::CACHED_ROTATE_EVERY * spec::CACHED_ROTATE_BY;
                Op::Query(((zipf.sample(&mut rng) + drift) % spec::CACHED_POOL) as u32)
            }
        })
        .collect()
}

/// Zipf sampler over `0..n`: item `i` with probability proportional to
/// `1 / (i + 1)^exponent`, by inverting the cumulative distribution.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(exponent);
                total
            })
            .collect();
        for weight in &mut cdf {
            *weight /= total;
        }
        Zipf { cdf }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|w| *w <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn same_seed_same_inputs_different_seed_different() {
        let a = Inputs::generate(5, 120, 2);
        let b = Inputs::generate(5, 120, 2);
        let c = Inputs::generate(6, 120, 2);
        let docs = |inputs: &Inputs| inputs.corpus_chunks().flatten().collect::<Vec<_>>();
        assert_eq!(docs(&a), docs(&b));
        assert_eq!(docs(&a), docs(&a), "the stream repeats");
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.upload_pool, b.upload_pool);
        assert_ne!(a.pool, c.pool);
        assert_ne!(docs(&a), docs(&c));
        // Corpus ids are 0..n; upload ids follow without gaps or overlap.
        let corpus_ids: Vec<u64> = docs(&a).iter().map(|d| d.id).collect();
        assert_eq!(corpus_ids, (0..120).collect::<Vec<_>>());
        assert_eq!(a.indexed_corpus().len(), 120);
        let ids: Vec<u64> = a.upload_pool.iter().map(|d| d.document_id).collect();
        assert_eq!(
            ids,
            (120..120 + 2 * spec::UPLOAD_DOCS as u64).collect::<Vec<_>>()
        );
        assert_eq!(
            a.upload_batch(1)[0].document_id,
            120 + spec::UPLOAD_DOCS as u64
        );
        assert_eq!(a.pool.len(), spec::POOL_SIZE);
    }

    #[test]
    fn op_sequences_repeat_per_seed_and_differ_across_seeds_and_clients() {
        let uniform = workload("pair_closed").unwrap();
        let a = op_sequence(uniform, 11, 0, 500);
        assert_eq!(a, op_sequence(uniform, 11, 0, 500));
        assert_ne!(a, op_sequence(uniform, 12, 0, 500));
        assert_ne!(a, op_sequence(uniform, 11, 1, 500));
        assert!(a
            .iter()
            .all(|op| matches!(op, Op::Query(i) if (*i as usize) < spec::POOL_SIZE)));

        let cached = workload("cached_rw").unwrap();
        let z = op_sequence(cached, 11, 0, 1024);
        assert_eq!(z, op_sequence(cached, 11, 0, 1024));
        assert_ne!(z, op_sequence(cached, 12, 0, 1024));
        let uploads: Vec<(usize, Op)> = z
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::Upload(_)))
            .collect();
        assert_eq!(uploads.len(), 8);
        assert_eq!(uploads[0], (127, Op::Upload(0)));
        assert_eq!(uploads[7], (1023, Op::Upload(7)));
        // Zipf: in range, and the head of the pool dominates.
        let draws: Vec<u32> = z
            .iter()
            .filter_map(|op| match op {
                Op::Query(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert!(draws.iter().all(|&i| (i as usize) < spec::CACHED_POOL));
        // Before the first drift step (1024 ops) the head is the pool's head.
        let head = draws.iter().filter(|&&i| i < 8).count();
        let tail = draws.iter().filter(|&&i| i >= 256).count();
        assert!(
            head > draws.len() / 4 && head > tail,
            "head {head} tail {tail}"
        );
        // After it, the most popular query has moved on.
        let long = op_sequence(cached, 11, 0, 2 * spec::CACHED_ROTATE_EVERY);
        let late = &long[spec::CACHED_ROTATE_EVERY..];
        let on_old_head = late.iter().filter(|op| **op == Op::Query(0)).count();
        let on_new_head = late
            .iter()
            .filter(|op| **op == Op::Query(spec::CACHED_ROTATE_BY as u32))
            .count();
        assert!(
            on_new_head > 10 * on_old_head.max(1),
            "{on_new_head} vs {on_old_head}"
        );
    }
}
