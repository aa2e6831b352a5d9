//! The bit-sliced **scan plane**: one bitmap row per index bit, so a query reads
//! only the rows that can reject something.
//!
//! The paper's server cost is dominated by Eq. (3)/Algorithm 1: σ r-bit comparisons
//! per query. The storage layer keeps one heap-allocated [`crate::bitindex::BitIndex`]
//! per level per document, so the reference scan ([`crate::search::scan_ranked`])
//! chases two pointers per document over scattered allocations. A [`ScanPlane`]
//! transposes the same η·r bits per document, [`CHUNK`] documents at a time:
//!
//! * **Rows** (`rows`): per chunk, per level, per index bit one [`CHUNK`]-bit
//!   bitmap — bit `i` of row `(chunk, level, bit)` is that index bit of the
//!   chunk's document `i`. The matching predicate is `doc AND NOT query == 0`, so
//!   a document is rejected at a level exactly when it has a one in some row
//!   where the query has a zero: the level's **reject bitmap** for a chunk is
//!   the OR of those rows, 1,024 documents per 16-word row.
//! * **Live masks** (`live`): per chunk and level the OR of every index pushed
//!   there — which rows hold any one at all. A row that is dead in a chunk
//!   rejects nobody in it and is not read. Under the §6 randomization this is
//!   most rows: every document folds all U fake keywords into every level, so
//!   the majority of the r bit positions are zero across the whole corpus, a
//!   query's V fake keywords put all their zeros there, and only the handful of
//!   zeros its genuine keywords own select a row (~5 of ~179 for a two-keyword
//!   query at the paper's parameters). The sweep reads the rows selected by
//!   `!query & live` and nothing else. Appending a document sets one bit per
//!   one-bit of its index, and a chunk's rows are one allocation made when the
//!   chunk opens — no re-layout, and a growing plane never copies a row.
//! * **All levels are rows.** Algorithm 1 walks level ℓ+1 only for a document
//!   that matched level ℓ; on bitmaps that is the same OR restricted to the
//!   survivors, evaluated only for a chunk that still has one. A chunk with
//!   matches costs a few rows per level instead of a random read per match, and
//!   the plane needs no second, document-major copy of the upper levels.
//! * **Valid slots.** The unfilled tail of the last chunk is all-zero rows, which
//!   no query rejects; every sweep starts from the chunk's valid-slots bitmap
//!   (its first `docs` bits), so a slot nobody pushed never matches.
//!
//! **Ownership**: a plane is derived state with one owner.
//! [`crate::engine::SearchEngine`] keeps one per shard beside its result cache and
//! appends to it in its insert path — the only way a document reaches an engine's
//! store. Stores, snapshots and the wire carry the η·r bits per document and never
//! a plane, so a holder that does not scan does not pay for one.
//!
//! Semantics are **bit-for-bit identical** to the reference scan: matches come back
//! in slot (scan) order — the set bits of the level-1 survivor bitmap, ascending —
//! and a match's rank is the number of levels whose (nested) survivor bitmaps hold
//! its slot. [`SearchStats`] counts whole r-bit comparisons exactly as the
//! reference does, read off the same bitmaps: one per stored document for level 1,
//! plus `popcount(survivors of level ℓ)` for every level ℓ+1 the reference would
//! have walked (each survivor of level ℓ is compared once more, failing level
//! included). Skipping a dead row happens *inside* one r-bit comparison and never
//! changes the count.
//!
//! **One sweep.** [`ScanPlane::scan_ranked_batch_chunks`] is the sweep: chunk-major
//! over a range of chunks with the queries inside, so a chunk's live masks and rows
//! are visited by the whole batch while they are hot; every other ranked entry
//! point is that call with one query or the whole plane. The chunk ranges are the
//! work units of the engine's work-stealing scheduler: chunks are swept
//! independently in ascending order, level 1 counts one comparison per document in
//! range and every further count is per surviving slot, so a partition's matches
//! concatenate and its [`SearchStats`] sum to the whole-shard result byte for byte.
//!
//! **Leakage note (§6)**: which rows a sweep reads is a function of the query
//! index bytes, the public geometry `r` and the `live` masks — i.e. of the *stored
//! indices* as well as the query. Both are bytes the server already holds; nothing
//! is derived from keys or plaintext, and a dead row is exactly what a curious
//! server can already count for itself (a bit position no stored index sets). The
//! skip is the same for every document of a chunk, and evaluating an upper level
//! only where level 1 left a survivor follows the match result the server computes
//! anyway — Algorithm 1's own walk. Batching changes the *order* of memory
//! accesses, never what is observed.

use crate::bitindex::BitIndex;
use crate::document_index::RankedDocumentIndex;
use crate::search::{SearchMatch, SearchStats};
use std::ops::Range;

/// Documents per chunk: the width of a bitmap row, and the grid the engine's
/// scan units are carved on. Appending never moves previously set bits.
pub const CHUNK: usize = 1024;

/// One bit per document of a chunk, slot `i` at bit `i % 64` of word `i / 64`.
type Bitmap = [u64; CHUNK / 64];

/// The bitmap of no document.
const NONE: Bitmap = [0; CHUNK / 64];

/// A per-shard, bit-sliced copy of the shard's document indices — derived
/// state, built, appended and swept by [`crate::engine::SearchEngine`] alone (the
/// store holds the documents, never a plane). See the [module docs](self) for
/// the layout.
#[derive(Clone, Debug, Default)]
pub struct ScanPlane {
    /// Bits per level (r). Zero until the first document is packed.
    bits: usize,
    /// Ranking levels (η). Zero until the first document is packed.
    levels: usize,
    /// 64-bit blocks per level: ⌈r/64⌉.
    blocks: usize,
    /// Document id of every slot, in slot order.
    ids: Vec<u64>,
    /// Rows and live masks, [`CHUNK`] slots at a time.
    chunks: Vec<Chunk>,
}

/// The bits of [`CHUNK`] consecutive slots — allocated once, when the first of
/// them is pushed, and never moved (a plane grows without copying its rows).
#[derive(Clone, Debug)]
struct Chunk {
    /// `rows[level·r + bit]`: which documents of the chunk have index bit `bit`
    /// set at `level`.
    rows: Box<[Bitmap]>,
    /// `live[level·blocks + b]`: the OR of block `b` of every index pushed to
    /// the chunk at `level` — bit `j` set iff row `64·b + j` holds a one. Never
    /// has a bit at or beyond `r` ([`BitIndex`] masks its tail), so
    /// `!query & live` cannot select a row that does not exist.
    live: Box<[u64]>,
}

/// The positions of a word's one-bits, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

/// How many documents a bitmap holds.
fn count(bitmap: &Bitmap) -> u64 {
    bitmap.iter().map(|w| u64::from(w.count_ones())).sum()
}

impl ScanPlane {
    /// An empty plane. Geometry (r, η) is adopted from the first packed document,
    /// so a plane works for any store the geometry-validating insert path feeds it.
    pub fn new() -> Self {
        ScanPlane::default()
    }

    /// Number of packed documents.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no documents are packed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of [`CHUNK`]-document chunks (the last may be partial) — the unit
    /// grid the chunk-range entry points and the engine's work-stealing
    /// scheduler carve into ranges.
    pub fn num_chunks(&self) -> usize {
        self.ids.len().div_ceil(CHUNK)
    }

    /// Clamp a chunk range to the plane's grid (empty stays empty, and
    /// `start > end` collapses to empty).
    fn clamp_chunks(&self, chunks: Range<usize>) -> Range<usize> {
        let n = self.num_chunks();
        let start = chunks.start.min(n);
        start..chunks.end.clamp(start, n)
    }

    /// Documents a chunk range covers, after clamping it to the plane's grid.
    /// Telemetry consumers divide a recorded `unit_scan` duration by this to
    /// normalize per-unit timings to documents swept (the last chunk may be
    /// partial, so `range.len() * CHUNK` over-counts at the plane's tail).
    pub fn docs_in_chunks(&self, chunks: Range<usize>) -> usize {
        let chunks = self.clamp_chunks(chunks);
        (chunks.end * CHUNK).min(self.ids.len()) - (chunks.start * CHUNK).min(self.ids.len())
    }

    /// Bits per level (r); zero while the plane is empty.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Ranking levels (η); zero while the plane is empty.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Document ids in slot order (the shard's insertion order).
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Append one document: set its slot's bit in the row of every one-bit of
    /// every level, and fold the level into the chunk's live mask. The caller
    /// (the engine, with an index its store just accepted) has already
    /// geometry-validated it; the assertions here guard the layout itself.
    pub fn push(&mut self, index: &RankedDocumentIndex) {
        if self.ids.is_empty() {
            self.bits = index.base_level().len();
            self.levels = index.num_levels();
            self.blocks = self.bits.div_ceil(64);
        }
        assert_eq!(index.num_levels(), self.levels, "level count mismatch");

        let slot = self.ids.len();
        if slot.is_multiple_of(CHUNK) {
            // Open a fresh chunk: all-zero rows, nothing live.
            self.chunks.push(Chunk {
                rows: vec![NONE; self.levels * self.bits].into(),
                live: vec![0; self.levels * self.blocks].into(),
            });
        }
        let chunk = &mut self.chunks[slot / CHUNK];
        let (word, bit) = (slot % CHUNK / 64, 1u64 << (slot % 64));
        for (level, index) in index.levels.iter().enumerate() {
            assert_eq!(index.len(), self.bits, "index size mismatch");
            let rows = &mut chunk.rows[level * self.bits..][..self.bits];
            let live = &mut chunk.live[level * self.blocks..][..self.blocks];
            for (b, (&block, live)) in index.as_blocks().iter().zip(live).enumerate() {
                *live |= block;
                for j in ones(block) {
                    rows[b * 64 + j][word] |= bit;
                }
            }
        }
        self.ids.push(index.document_id);
    }

    /// The valid-slots bitmap of a chunk: its first `docs` bits, where `docs` is
    /// how many documents the chunk holds ([`CHUNK`] for all but the last).
    fn valid_slots(&self, chunk: usize) -> Bitmap {
        let docs = (self.ids.len() - chunk * CHUNK).min(CHUNK);
        std::array::from_fn(|w| match docs.saturating_sub(w * 64) {
            0 => 0,
            n if n < 64 => (1 << n) - 1,
            _ => u64::MAX,
        })
    }

    /// The rows of one level of one chunk a query has to read: those where the
    /// query has a zero and some document of the chunk has a one —
    /// `!query & live`.
    fn selected<'a>(
        &'a self,
        chunk: usize,
        level: usize,
        query: &'a BitIndex,
    ) -> impl Iterator<Item = &'a Bitmap> {
        let chunk = &self.chunks[chunk];
        let rows = &chunk.rows[level * self.bits..][..self.bits];
        let live = &chunk.live[level * self.blocks..][..self.blocks];
        (query.as_blocks().iter().zip(live).enumerate())
            .flat_map(move |(b, (&q, &live))| ones(!q & live).map(move |j| &rows[b * 64 + j]))
    }

    /// One level of Eq. (3) for one chunk: the slots of `alive` whose document
    /// has no one where the query has a zero — `alive` minus the OR of the
    /// selected rows.
    fn survivors(&self, chunk: usize, level: usize, query: &BitIndex, mut alive: Bitmap) -> Bitmap {
        let mut reject = NONE;
        for row in self.selected(chunk, level, query) {
            for (reject, row) in reject.iter_mut().zip(row) {
                *reject |= row;
            }
        }
        for (alive, reject) in alive.iter_mut().zip(reject) {
            *alive &= !reject;
        }
        alive
    }

    /// Algorithm 1 for one query over one chunk, appended to `result`. `nested`
    /// is scratch for the per-level survivor bitmaps (one per level).
    fn sweep_chunk(
        &self,
        chunk: usize,
        query: &BitIndex,
        nested: &mut [Bitmap],
        (matches, stats): &mut (Vec<SearchMatch>, SearchStats),
    ) {
        let mut alive = self.valid_slots(chunk);
        for (level, survivors) in nested.iter_mut().enumerate() {
            // Every slot still alive is compared at this level; a chunk with
            // nobody left reads no row.
            stats.comparisons += count(&alive);
            if alive != NONE {
                alive = self.survivors(chunk, level, query, alive);
            }
            *survivors = alive;
        }
        stats.matches += count(&nested[0]);
        for (w, &word) in nested[0].iter().enumerate() {
            for i in ones(word) {
                // Survivor bitmaps are nested, so the levels holding the slot
                // are exactly levels 1..=rank.
                let rank = nested.iter().filter(|level| level[w] >> i & 1 == 1).count();
                matches.push(SearchMatch {
                    document_id: self.ids[chunk * CHUNK + w * 64 + i],
                    rank: rank as u32,
                });
            }
        }
    }

    /// The ranked scan of Algorithm 1 over the whole plane — the plane-backed
    /// equivalent of [`crate::search::scan_ranked`] over the shard's documents.
    /// Matches come back in slot (scan) order with identical ranks and identical
    /// [`SearchStats`]; callers order them with [`crate::search::top_matches`].
    pub fn scan_ranked(&self, query: &BitIndex) -> (Vec<SearchMatch>, SearchStats) {
        self.scan_ranked_chunks(query, 0..self.num_chunks())
    }

    /// [`ScanPlane::scan_ranked`] restricted to a chunk range: a batch of one
    /// through [`ScanPlane::scan_ranked_batch_chunks`].
    pub fn scan_ranked_chunks(
        &self,
        query: &BitIndex,
        chunks: Range<usize>,
    ) -> (Vec<SearchMatch>, SearchStats) {
        let mut batch = self.scan_ranked_batch_chunks(&[query], chunks);
        batch.pop().expect("one result per query")
    }

    /// Algorithm 1 for every query of a batch over the whole plane: exactly
    /// `queries.len()` independent [`ScanPlane::scan_ranked`] calls, swept
    /// chunk-major (see the [module docs](self)).
    pub fn scan_ranked_batch(&self, queries: &[&BitIndex]) -> Vec<(Vec<SearchMatch>, SearchStats)> {
        self.scan_ranked_batch_chunks(queries, 0..self.num_chunks())
    }

    /// **The sweep**, and one work unit of the engine's work-stealing scheduler:
    /// Algorithm 1 for every query over `chunks.start..chunks.end`, chunk-major
    /// with the queries inside. A partition's per-query results concatenate (in
    /// range order) and sum back to [`ScanPlane::scan_ranked_batch`] byte for
    /// byte. Out-of-bounds ranges are clamped to the grid; an empty range (and
    /// so an empty plane, whose geometry is unknown) answers every query, of any
    /// length, with no matches and zeroed stats.
    pub fn scan_ranked_batch_chunks(
        &self,
        queries: &[&BitIndex],
        chunks: Range<usize>,
    ) -> Vec<(Vec<SearchMatch>, SearchStats)> {
        let mut results = vec![(Vec::new(), SearchStats::default()); queries.len()];
        let chunks = self.clamp_chunks(chunks);
        if chunks.is_empty() {
            return results;
        }
        for query in queries {
            assert_eq!(query.len(), self.bits, "length mismatch");
        }
        let mut nested = vec![NONE; self.levels];
        for chunk in chunks {
            for (query, result) in queries.iter().zip(&mut results) {
                self.sweep_chunk(chunk, query, &mut nested, result);
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryIndex;
    use crate::search::scan_ranked;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference scan takes the query wrapper; the plane takes raw bits.
    fn qi(bits: &BitIndex) -> QueryIndex {
        QueryIndex::from_bits(bits.clone())
    }

    fn random_bitindex(rng: &mut StdRng, len: usize, zero_prob: f64) -> BitIndex {
        let bits: Vec<bool> = (0..len)
            .map(|_| rng.gen_range(0.0..1.0) >= zero_prob)
            .collect();
        BitIndex::from_bits(&bits)
    }

    fn random_docs(rng: &mut StdRng, n: usize, r: usize, eta: usize) -> Vec<RankedDocumentIndex> {
        (0..n)
            .map(|id| RankedDocumentIndex {
                document_id: id as u64 * 3 + 1,
                levels: (0..eta).map(|_| random_bitindex(rng, r, 0.5)).collect(),
            })
            .collect()
    }

    fn plane_of(docs: &[RankedDocumentIndex]) -> ScanPlane {
        let mut plane = ScanPlane::new();
        for d in docs {
            plane.push(d);
        }
        plane
    }

    /// Ids of the documents whose level-1 index matches, in slot order.
    fn match_ids(plane: &ScanPlane, query: &BitIndex) -> Vec<u64> {
        let (matches, _) = plane.scan_ranked(query);
        matches.iter().map(|m| m.document_id).collect()
    }

    #[test]
    fn scanplane_empty_plane_matches_reference() {
        let plane = ScanPlane::new();
        assert!(plane.is_empty());
        assert_eq!(plane.len(), 0);
        assert_eq!(plane.bits(), 0);
        assert_eq!(plane.levels(), 0);
        let q = BitIndex::all_ones(64);
        let (matches, stats) = plane.scan_ranked(&q);
        assert!(matches.is_empty());
        assert_eq!(stats, SearchStats::default());
        assert!(match_ids(&plane, &q).is_empty());
    }

    #[test]
    fn scanplane_scan_equals_reference_scan_on_random_workloads() {
        let mut rng = StdRng::seed_from_u64(17);
        // Lengths straddle block boundaries (tail masking) and chunk boundaries
        // would need 1024+ docs — covered by the dedicated test below.
        for &r in &[1usize, 63, 64, 65, 127, 129, 448] {
            for &eta in &[1usize, 3, 5] {
                let docs = random_docs(&mut rng, 37, r, eta);
                let plane = plane_of(&docs);
                assert_eq!(plane.len(), docs.len());
                assert_eq!(plane.bits(), r);
                assert_eq!(plane.levels(), eta);
                for zero_prob in [0.0, 0.02, 0.3, 1.0] {
                    let q = random_bitindex(&mut rng, r, zero_prob);
                    let (expected, expected_stats) = scan_ranked(&docs, &qi(&q));
                    let (got, got_stats) = plane.scan_ranked(&q);
                    assert_eq!(got, expected, "r={r} eta={eta} zp={zero_prob}");
                    assert_eq!(got_stats, expected_stats, "r={r} eta={eta} zp={zero_prob}");
                    let ids: Vec<u64> = docs
                        .iter()
                        .filter(|d| d.base_level().matches_query(&q))
                        .map(|d| d.document_id)
                        .collect();
                    assert_eq!(match_ids(&plane, &q), ids);
                }
            }
        }
    }

    #[test]
    fn scanplane_docs_in_chunks_sizes_clamped_ranges() {
        let mut rng = StdRng::seed_from_u64(23);
        // One full chunk plus a 7-document tail chunk.
        let docs = random_docs(&mut rng, CHUNK + 7, 32, 1);
        let plane = plane_of(&docs);
        assert_eq!(plane.num_chunks(), 2);
        assert_eq!(plane.docs_in_chunks(0..1), CHUNK);
        assert_eq!(plane.docs_in_chunks(1..2), 7, "tail chunk is partial");
        assert_eq!(plane.docs_in_chunks(0..2), CHUNK + 7);
        assert_eq!(plane.docs_in_chunks(0..99), CHUNK + 7, "end clamps");
        assert_eq!(plane.docs_in_chunks(5..9), 0, "past-the-end is empty");
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert_eq!(plane.docs_in_chunks(2..1), 0, "inverted collapses");
        }
        assert_eq!(ScanPlane::new().docs_in_chunks(0..1), 0);
    }

    #[test]
    fn scanplane_all_ones_query_prunes_every_block_and_matches_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let docs = random_docs(&mut rng, 20, 100, 3);
        let plane = plane_of(&docs);
        let q = BitIndex::all_ones(100);
        for level in 0..3 {
            assert_eq!(plane.selected(0, level, &q).count(), 0, "no zeros, no rows");
        }
        let (matches, stats) = plane.scan_ranked(&q);
        let (expected, expected_stats) = scan_ranked(&docs, &qi(&q));
        assert_eq!(matches, expected);
        assert_eq!(stats, expected_stats);
        assert_eq!(stats.matches, 20, "all-ones query matches every document");
        // Every document reaches the top rank: all levels match a zero-free query.
        assert!(matches.iter().all(|m| m.rank == 3));
    }

    #[test]
    fn scanplane_all_zeros_query_only_matches_all_zero_documents() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut docs = random_docs(&mut rng, 10, 70, 2);
        docs.push(RankedDocumentIndex {
            document_id: 999,
            levels: vec![BitIndex::all_zeros(70), BitIndex::all_zeros(70)],
        });
        let plane = plane_of(&docs);
        let q = BitIndex::all_zeros(70);
        let (matches, stats) = plane.scan_ranked(&q);
        let (expected, expected_stats) = scan_ranked(&docs, &qi(&q));
        assert_eq!(matches, expected);
        assert_eq!(stats, expected_stats);
        assert!(matches.iter().any(|m| m.document_id == 999));
    }

    #[test]
    fn scanplane_phantom_tail_bits_never_reject() {
        // r = 70: the tail block has 58 phantom positions where `!query` is all
        // ones. Selecting one would index a row that does not exist (or, below
        // the top level, the next level's rows). `live` never has a phantom bit,
        // so an all-ones query selects nothing and an all-zeros query exactly
        // the 70 real rows — with every real row live.
        let docs = vec![RankedDocumentIndex {
            document_id: 1,
            levels: vec![BitIndex::all_ones(70); 2],
        }];
        let plane = plane_of(&docs);
        for level in 0..2 {
            assert_eq!(plane.selected(0, level, &BitIndex::all_ones(70)).count(), 0);
            assert_eq!(
                plane.selected(0, level, &BitIndex::all_zeros(70)).count(),
                70
            );
        }
        let (matches, _) = plane.scan_ranked(&BitIndex::all_ones(70));
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].rank, 2);
        assert!(plane.scan_ranked(&BitIndex::all_zeros(70)).0.is_empty());
    }

    #[test]
    fn scanplane_crosses_chunk_boundaries() {
        let mut rng = StdRng::seed_from_u64(23);
        // > 2 chunks, with a partial tail chunk.
        let docs = random_docs(&mut rng, 2 * CHUNK + 321, 65, 2);
        let plane = plane_of(&docs);
        for zero_prob in [0.01, 0.5] {
            let q = random_bitindex(&mut rng, 65, zero_prob);
            let (expected, expected_stats) = scan_ranked(&docs, &qi(&q));
            let (got, got_stats) = plane.scan_ranked(&q);
            assert_eq!(got, expected, "zp={zero_prob}");
            assert_eq!(got_stats, expected_stats, "zp={zero_prob}");
        }
    }

    #[test]
    fn scanplane_incremental_pushes_equal_bulk_build() {
        let mut rng = StdRng::seed_from_u64(31);
        let docs = random_docs(&mut rng, 50, 129, 3);
        let bulk = plane_of(&docs);
        let mut incremental = ScanPlane::new();
        let q = random_bitindex(&mut rng, 129, 0.1);
        for (n, d) in docs.iter().enumerate() {
            incremental.push(d);
            let (expected, expected_stats) = scan_ranked(&docs[..n + 1], &qi(&q));
            let (got, got_stats) = incremental.scan_ranked(&q);
            assert_eq!(got, expected, "after {} pushes", n + 1);
            assert_eq!(got_stats, expected_stats);
        }
        assert_eq!(incremental.ids(), bulk.ids());
        assert_eq!(incremental.scan_ranked(&q), bulk.scan_ranked(&q));
    }

    #[test]
    #[should_panic(expected = "level count mismatch")]
    fn scanplane_rejects_mismatched_level_count() {
        let mut plane = ScanPlane::new();
        plane.push(&RankedDocumentIndex {
            document_id: 0,
            levels: vec![BitIndex::all_ones(64); 2],
        });
        plane.push(&RankedDocumentIndex {
            document_id: 1,
            levels: vec![BitIndex::all_ones(64); 3],
        });
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn scanplane_rejects_mismatched_query_length() {
        let mut plane = ScanPlane::new();
        plane.push(&RankedDocumentIndex {
            document_id: 0,
            levels: vec![BitIndex::all_ones(64)],
        });
        let _ = plane.scan_ranked(&BitIndex::all_ones(65));
    }

    #[test]
    fn scanplane_batch_sweep_equals_independent_scans() {
        let mut rng = StdRng::seed_from_u64(47);
        // Straddle block and chunk boundaries; include duplicate queries and the
        // pruning extremes in one batch.
        for &(n_docs, r, eta) in &[(37usize, 65usize, 3usize), (2 * CHUNK + 321, 448, 3)] {
            let docs = random_docs(&mut rng, n_docs, r, eta);
            let plane = plane_of(&docs);
            let mut queries: Vec<BitIndex> = (0..5)
                .map(|i| random_bitindex(&mut rng, r, [0.0, 0.02, 0.3, 0.9, 1.0][i]))
                .collect();
            queries.push(queries[1].clone()); // exact duplicate
            queries.push(BitIndex::all_ones(r));
            queries.push(BitIndex::all_zeros(r));
            let refs: Vec<&BitIndex> = queries.iter().collect();
            let batched = plane.scan_ranked_batch(&refs);
            assert_eq!(batched.len(), queries.len());
            for (qi, (q, got)) in queries.iter().zip(&batched).enumerate() {
                assert_eq!(got, &plane.scan_ranked(q), "n={n_docs} r={r} query {qi}");
            }
        }
    }

    #[test]
    fn scanplane_batch_sweep_edge_batches() {
        let mut rng = StdRng::seed_from_u64(53);
        let docs = random_docs(&mut rng, 30, 129, 2);
        let plane = plane_of(&docs);
        // Empty batch.
        assert!(plane.scan_ranked_batch(&[]).is_empty());
        // Batch of one equals the single scan.
        let q = random_bitindex(&mut rng, 129, 0.1);
        assert_eq!(plane.scan_ranked_batch(&[&q]), vec![plane.scan_ranked(&q)]);
        // Empty plane: zeroed stats for every query, any length.
        let empty = ScanPlane::new();
        let out = empty.scan_ranked_batch(&[&q, &q]);
        assert_eq!(out, vec![(Vec::new(), SearchStats::default()); 2]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn scanplane_batch_rejects_mismatched_query_length() {
        let mut plane = ScanPlane::new();
        plane.push(&RankedDocumentIndex {
            document_id: 0,
            levels: vec![BitIndex::all_ones(64)],
        });
        let good = BitIndex::all_ones(64);
        let bad = BitIndex::all_ones(65);
        let _ = plane.scan_ranked_batch(&[&good, &bad]);
    }

    #[test]
    fn scanplane_chunk_range_scans_stitch_to_the_full_scan() {
        let mut rng = StdRng::seed_from_u64(71);
        // > 2 chunks with a partial tail, straddling a block boundary.
        let docs = random_docs(&mut rng, 2 * CHUNK + 321, 65, 3);
        let plane = plane_of(&docs);
        assert_eq!(plane.num_chunks(), 3);
        let queries: Vec<BitIndex> = [0.02, 0.3, 1.0, 0.3]
            .iter()
            .map(|&zp| random_bitindex(&mut rng, 65, zp))
            .collect();
        let refs: Vec<&BitIndex> = queries.iter().collect();
        let full = plane.scan_ranked_batch(&refs);
        // Every partition granularity must stitch back byte-identically: matches
        // concatenated in range order, stats summed per query.
        for granularity in [1usize, 2, 3, 7] {
            let mut stitched: Vec<(Vec<SearchMatch>, SearchStats)> =
                vec![(Vec::new(), SearchStats::default()); queries.len()];
            let mut lo = 0;
            while lo < plane.num_chunks() {
                let range = lo..(lo + granularity).min(plane.num_chunks());
                let ranged = plane.scan_ranked_batch_chunks(&refs, range.clone());
                for (q, (matches, stats)) in ranged.into_iter().enumerate() {
                    // The batch range equals the single-query range, per query.
                    assert_eq!(
                        plane.scan_ranked_chunks(&queries[q], range.clone()),
                        (matches.clone(), stats),
                        "g={granularity} range={range:?} q={q}"
                    );
                    stitched[q].0.extend(matches);
                    stitched[q].1.merge(&stats);
                }
                lo = range.end;
            }
            assert_eq!(stitched, full, "granularity {granularity}");
        }
        // Out-of-bounds ranges clamp; inverted and empty ranges are empty.
        let q = &queries[0];
        assert_eq!(
            plane.scan_ranked_chunks(q, 0..usize::MAX),
            plane.scan_ranked(q)
        );
        let (matches, stats) = plane.scan_ranked_chunks(q, 5..7);
        assert!(matches.is_empty());
        assert_eq!(stats, SearchStats::default());
        #[allow(clippy::reversed_empty_ranges)] // inverted range IS the case under test
        let (matches, stats) = plane.scan_ranked_chunks(q, 2..1);
        assert!(matches.is_empty());
        assert_eq!(stats, SearchStats::default());
        for got in plane.scan_ranked_batch_chunks(&refs, 3..3) {
            assert_eq!(got, (Vec::new(), SearchStats::default()));
        }
        // A range's level-1 comparison count is exactly the documents it covers
        // (an all-zeros query matches no random document, so no rank walks).
        let (_, tail_stats) = plane.scan_ranked_chunks(&BitIndex::all_zeros(65), 2..3);
        assert_eq!(tail_stats.comparisons, 321);
    }

    #[test]
    fn scanplane_survivors_match_scalar_semantics() {
        // The row OR against the per-document predicate, slot by slot, on every
        // chunk and level — and restricted to an `alive` subset.
        let mut rng = StdRng::seed_from_u64(61);
        let docs = random_docs(&mut rng, CHUNK + 100, 129, 2);
        let plane = plane_of(&docs);
        let evens: Bitmap = [0x5555_5555_5555_5555; CHUNK / 64];
        for zero_prob in [0.0, 0.02, 1.0] {
            let q = random_bitindex(&mut rng, 129, zero_prob);
            for chunk in 0..2 {
                let valid = plane.valid_slots(chunk);
                for level in 0..2 {
                    let all = plane.survivors(chunk, level, &q, valid);
                    let even = plane.survivors(chunk, level, &q, evens);
                    for i in 0..CHUNK {
                        let expected = docs
                            .get(chunk * CHUNK + i)
                            .is_some_and(|d| d.levels[level].matches_query(&q));
                        assert_eq!(all[i / 64] >> (i % 64) & 1 == 1, expected, "slot {i}");
                        // An unfilled slot has all-zero rows: only `alive` keeps it out.
                        let unfilled_ok = i % 2 == 0 && chunk * CHUNK + i >= docs.len();
                        assert_eq!(
                            even[i / 64] >> (i % 64) & 1 == 1,
                            (expected && i % 2 == 0) || unfilled_ok,
                            "slot {i} of the even subset"
                        );
                    }
                }
            }
        }
    }

    /// The OR of block `b` of `level` over `docs` — what `live` must hold.
    fn or_of(docs: &[RankedDocumentIndex], level: usize) -> Vec<u64> {
        let mut acc = vec![0u64; docs[0].levels[level].as_blocks().len()];
        for d in docs {
            for (a, &b) in acc.iter_mut().zip(d.levels[level].as_blocks()) {
                *a |= b;
            }
        }
        acc
    }

    #[test]
    fn scanplane_live_is_the_or_of_everything_pushed() {
        let mut rng = StdRng::seed_from_u64(67);
        // Sparse levels (most rows dead), a ragged r, and a chunk boundary.
        let docs: Vec<RankedDocumentIndex> = (0..CHUNK + 9)
            .map(|id| RankedDocumentIndex {
                document_id: id as u64,
                levels: (0..2)
                    .map(|_| random_bitindex(&mut rng, 70, 0.995))
                    .collect(),
            })
            .collect();
        let mut plane = ScanPlane::new();
        for (n, d) in docs.iter().enumerate() {
            plane.push(d);
            let chunk = n / CHUNK;
            for level in 0..2 {
                assert_eq!(
                    plane.chunks[chunk].live[level * 2..][..2],
                    or_of(&docs[chunk * CHUNK..=n], level)[..],
                    "after {} pushes, level {level}",
                    n + 1
                );
            }
        }
        // The second chunk opened with nothing live and left the first alone.
        assert_eq!(plane.chunks.len(), 2);
        let (first, second) = (&plane.chunks[0].live, &plane.chunks[1].live);
        assert_eq!(first[..2], or_of(&docs[..CHUNK], 0)[..]);
        assert_ne!(first[..2], second[..2], "9 sparse documents");
    }

    #[test]
    fn scanplane_lone_bit_is_live_in_its_chunk_only_and_rejects_its_document_only() {
        let mut rng = StdRng::seed_from_u64(73);
        // Three chunks whose documents only ever use bits 0..40; one document
        // of the middle chunk also sets bit 50.
        let mut docs: Vec<RankedDocumentIndex> = (0..2 * CHUNK + 40)
            .map(|id| {
                let mut level = BitIndex::all_zeros(100);
                for bit in 0..40 {
                    level.set(bit, rng.gen_range(0.0..1.0) < 0.5);
                }
                RankedDocumentIndex {
                    document_id: id as u64,
                    levels: vec![level],
                }
            })
            .collect();
        let lone = CHUNK + 517;
        docs[lone].levels[0].set(50, true);
        let plane = plane_of(&docs);
        let mut q = BitIndex::all_ones(100);
        q.set(50, false);
        q.set(60, false); // a zero nobody owns: dead everywhere
        let rows: Vec<usize> = (0..3).map(|c| plane.selected(c, 0, &q).count()).collect();
        assert_eq!(rows, [0, 1, 0]);
        let (matches, stats) = plane.scan_ranked(&q);
        assert_eq!((matches.clone(), stats), scan_ranked(&docs, &qi(&q)));
        let expected: Vec<u64> = (0..docs.len() as u64)
            .filter(|&id| id != lone as u64)
            .collect();
        let got: Vec<u64> = matches.iter().map(|m| m.document_id).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn scanplane_unfilled_slots_of_the_last_chunk_never_match() {
        // All-zero documents have all-zero rows, exactly like a slot nobody
        // pushed: only the valid-slots mask tells them apart, under the query
        // that reads no row and the one that reads every live row alike.
        for n in [1usize, CHUNK - 1, CHUNK, CHUNK + 1] {
            let docs: Vec<RankedDocumentIndex> = (0..n)
                .map(|id| RankedDocumentIndex {
                    document_id: id as u64,
                    levels: vec![BitIndex::all_zeros(65); 2],
                })
                .collect();
            let plane = plane_of(&docs);
            assert_eq!(plane.len(), n);
            for q in [BitIndex::all_ones(65), BitIndex::all_zeros(65)] {
                let (matches, stats) = plane.scan_ranked(&q);
                assert_eq!(matches.len(), n, "{n} documents");
                assert_eq!((matches, stats), scan_ranked(&docs, &qi(&q)));
                assert_eq!(match_ids(&plane, &q), (0..n as u64).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn scanplane_comparisons_count_each_level_walked_per_surviving_slot() {
        // One chunk, η = 3, one discriminating bit: every third document fails
        // level 1, every second survivor fails level 2, every fifth survivor of
        // that fails level 3 — so level 2 is walked for some slots of the chunk
        // and level 3 for fewer.
        let n = 600usize;
        let docs: Vec<RankedDocumentIndex> = (0..n)
            .map(|id| {
                let level = |fails: bool| {
                    let mut bits = BitIndex::all_zeros(64);
                    bits.set(7, fails);
                    bits
                };
                RankedDocumentIndex {
                    document_id: id as u64,
                    levels: vec![level(id % 3 == 0), level(id % 2 == 0), level(id % 5 == 0)],
                }
            })
            .collect();
        let plane = plane_of(&docs);
        let mut q = BitIndex::all_ones(64);
        q.set(7, false);
        let (matches, stats) = plane.scan_ranked(&q);
        assert_eq!((matches.clone(), stats), scan_ranked(&docs, &qi(&q)));
        let level1 = (0..n).filter(|id| id % 3 != 0).count();
        let level2 = (0..n).filter(|id| id % 3 != 0 && id % 2 != 0).count();
        let level3 = (0..n)
            .filter(|id| id % 3 != 0 && id % 2 != 0 && id % 5 != 0)
            .count();
        assert!(level1 > level2 && level2 > level3 && level3 > 0);
        assert_eq!(stats.matches, level1 as u64);
        assert_eq!(stats.comparisons, (n + level1 + level2) as u64);
        for (rank, want) in [(1, level1 - level2), (2, level2 - level3), (3, level3)] {
            assert_eq!(matches.iter().filter(|m| m.rank == rank).count(), want);
        }
    }
}
