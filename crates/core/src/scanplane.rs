//! The bit-sliced **scan plane**: one bitmap row per index bit, so a query reads
//! only the rows that can reject something.
//!
//! The paper's server cost is dominated by Eq. (3)/Algorithm 1: σ r-bit comparisons
//! per query. The reference ([`crate::search::CloudIndex`]) keeps one heap-allocated
//! [`crate::bitindex::BitIndex`] per level per document, so its scan
//! ([`crate::search::scan_ranked`]) chases two pointers per document over scattered
//! allocations; the store keeps the same bits as packed §5 entries
//! ([`crate::storage`]), document-major. A [`ScanPlane`] transposes the η·r bits
//! per document the store hands it, [`CHUNK`] documents at a time:
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
//! reference does, without counting a whole bitmap: level 1 is one comparison
//! per document of the chunk (arithmetic), and every word that holds a level-1
//! survivor counts its survivors of each rank ρ (the slots set at level ρ and
//! not at ρ + 1), each one match and `min(ρ, η − 1)` comparisons — Algorithm 1
//! compares a match again at each level up to the first one that fails, or up
//! to η. A word with no survivor costs nothing. Skipping a dead row happens
//! *inside* one r-bit comparison and never changes the count.
//!
//! **One sweep.** [`ScanPlane::scan_ranked_batch_chunks`] is the sweep: chunk-major
//! over a range of chunks with the queries inside, so a chunk's live masks and rows
//! are visited by the whole batch while they are hot; every other ranked entry
//! point is that call with one query or the whole plane. The engine's scan units
//! are 8-chunk ranges at every lane count, claimed from one counter: chunks are
//! swept independently in ascending order, level 1 counts one comparison per
//! document in range and every further count is per surviving slot, so a
//! partition's matches concatenate and its [`SearchStats`] sum to the whole-plane
//! result byte for byte.
//!
//! **Top τ in the sweep.** A caller that will reply with only the best `k`
//! matches says so per query, and the sweep keeps no more than it can use.
//! It materializes a word's survivors best rank first; once it holds `2k`
//! matches it cuts them to the best `k`, and the worst of those becomes a bar:
//! a match that does not beat it (lower rank, or the same rank and a higher
//! id) can never make the cut, so it is counted but not materialized, and a
//! rank below the bar is not even walked. The kept list is cut to `k` in the
//! canonical order (rank descending, id ascending — never slot order), so a
//! partition's kept lists, cut to `k` again, are the whole plane's cut; the
//! stats are always the whole sweep's.
//!
//! **Leakage note (§6)**: which rows a sweep reads is a function of the query
//! index bytes, the public geometry `r` and the `live` masks — i.e. of the *stored
//! indices* as well as the query. Both are bytes the server already holds; nothing
//! is derived from keys or plaintext, and a dead row is exactly what a curious
//! server can already count for itself (a bit position no stored index sets). The
//! skip is the same for every document of a chunk, and evaluating an upper level
//! only where level 1 left a survivor follows the match result the server computes
//! anyway — Algorithm 1's own walk. Batching changes the *order* of memory
//! accesses, never what is observed, and a kept sweep writes down fewer
//! matches as a function of the ranks it computes anyway and of the τ the
//! query's own message carries.

use crate::bitindex::BitIndex;
use crate::search::{top_matches, SearchMatch, SearchStats};
use crate::storage::IndexEntry;
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
    /// has a bit at or beyond `r` (a stored [`IndexEntry`] is masked past r),
    /// so `!query & live` cannot select a row that does not exist.
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

/// One query's result in one sweep, built as the chunks go by: the matches
/// held so far and the sweep's [`SearchStats`].
struct Held {
    matches: Vec<SearchMatch>,
    stats: SearchStats,
    /// How many matches the result keeps; `None` keeps every one, in slot order.
    keep: Option<usize>,
    /// For a kept sweep, the worst match held after its last cut: `keep`
    /// held matches are at least as good, so a match that does not beat it
    /// can never make the final cut and is not materialized. `None` until
    /// the first cut.
    bar: Option<SearchMatch>,
}

/// The bar of a sweep that keeps nothing: above every rank, so no match
/// beats it.
const NOTHING: SearchMatch = SearchMatch {
    document_id: 0,
    rank: u32::MAX,
};

impl Held {
    fn new(keep: Option<usize>) -> Self {
        Held {
            matches: Vec::new(),
            stats: SearchStats::default(),
            keep,
            bar: (keep == Some(0)).then_some(NOTHING),
        }
    }

    /// Materialize a match unless the bar shuts it out (rank descending, then
    /// id ascending, as [`top_matches`] orders). Once `2·keep` are held they
    /// are cut to `keep`, and the worst kept becomes the bar.
    fn offer(&mut self, document_id: u64, rank: u32) {
        if let Some(bar) = self.bar {
            if rank < bar.rank || rank == bar.rank && document_id > bar.document_id {
                return;
            }
        }
        self.matches.push(SearchMatch { document_id, rank });
        if let Some(keep) = self
            .keep
            .filter(|&k| self.matches.len() == k.saturating_mul(2))
        {
            self.matches = top_matches(std::mem::take(&mut self.matches), Some(keep), |m| *m);
            self.bar = self.matches.last().copied();
        }
    }

    /// The result: every match in slot order, or the kept ones cut by the
    /// canonical order ([`top_matches`]) — never by slot order.
    fn finish(self) -> (Vec<SearchMatch>, SearchStats) {
        let matches = match self.keep {
            None => self.matches,
            keep => top_matches(self.matches, keep, |m| *m),
        };
        (matches, self.stats)
    }
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
    /// grid [`ScanPlane::scan_ranked_batch_chunks`] and the engine's executor
    /// carve into ranges.
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
    /// (the engine, with the entry its store just accepted) has already
    /// geometry-validated it; the assertions here guard the layout itself.
    pub fn push(&mut self, entry: IndexEntry<'_>) {
        if self.ids.is_empty() {
            self.bits = entry.bits();
            self.levels = entry.num_levels();
            self.blocks = self.bits.div_ceil(64);
        }
        assert_eq!(entry.num_levels(), self.levels, "level count mismatch");
        assert_eq!(entry.bits(), self.bits, "index size mismatch");

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
        for (level, blocks) in entry.levels().enumerate() {
            let rows = &mut chunk.rows[level * self.bits..][..self.bits];
            let live = &mut chunk.live[level * self.blocks..][..self.blocks];
            for (b, (&block, live)) in blocks.iter().zip(live).enumerate() {
                *live |= block;
                for j in ones(block) {
                    rows[b * 64 + j][word] |= bit;
                }
            }
        }
        self.ids.push(entry.document_id);
    }

    /// How many documents a chunk holds: [`CHUNK`] for all but the last.
    fn docs_in(&self, chunk: usize) -> usize {
        (self.ids.len() - chunk * CHUNK).min(CHUNK)
    }

    /// The valid-slots bitmap of a chunk: its first [`ScanPlane::docs_in`] bits.
    fn valid_slots(&self, chunk: usize) -> Bitmap {
        let docs = self.docs_in(chunk);
        std::array::from_fn(|w| match docs.saturating_sub(w * 64) {
            0 => 0,
            n if n < 64 => (1 << n) - 1,
            _ => u64::MAX,
        })
    }

    /// Eq. (3) at one level of one chunk: drop from `alive` every slot whose
    /// document has a one where the query has a zero — the OR of the rows
    /// `!query & live` selects (a zero of the query no document of the chunk
    /// sets there reads nothing).
    fn reject(&self, chunk: usize, level: usize, query: &BitIndex, alive: &mut Bitmap) {
        let chunk = &self.chunks[chunk];
        let rows = &chunk.rows[level * self.bits..][..self.bits];
        let live = &chunk.live[level * self.blocks..][..self.blocks];
        let mut reject = NONE;
        for (b, (&q, &live)) in query.as_blocks().iter().zip(live).enumerate() {
            for j in ones(!q & live) {
                for (reject, row) in reject.iter_mut().zip(&rows[b * 64 + j]) {
                    *reject |= row;
                }
            }
        }
        for (alive, reject) in alive.iter_mut().zip(reject) {
            *alive &= !reject;
        }
    }

    /// Algorithm 1 for one query over one chunk whose valid slots are `valid`,
    /// into `held`. `nested` is scratch for the per-level survivor bitmaps (one
    /// per level).
    fn sweep_chunk(
        &self,
        chunk: usize,
        valid: &Bitmap,
        query: &BitIndex,
        nested: &mut [Bitmap],
        held: &mut Held,
    ) {
        let mut alive = *valid;
        for (level, survivors) in nested.iter_mut().enumerate() {
            // A chunk with nobody left reads no row.
            if alive != NONE {
                self.reject(chunk, level, query, &mut alive);
            }
            *survivors = alive;
        }
        let deepest = self.levels - 1;
        let ids = &self.ids[chunk * CHUNK..];
        let (mut comparisons, mut matches) = (0, 0);
        for (w, &word) in nested[0].iter().enumerate() {
            if word == 0 {
                continue;
            }
            // The bitmaps are nested, so this word's survivors of rank ρ hold
            // level ρ's bit and not level ρ+1's. Each is one match and, past
            // level 1, min(ρ, η − 1) comparisons: Algorithm 1 compares it
            // again at every level up to the first that fails, or up to η.
            let group =
                |rank: usize| nested[rank - 1][w] & !nested.get(rank).map_or(0, |level| level[w]);
            for rank in 1..=self.levels {
                let n = u64::from(group(rank).count_ones());
                matches += n;
                comparisons += n * rank.min(deepest) as u64;
            }
            if held.keep.is_none() {
                // Every match, in slot order.
                for i in ones(word) {
                    let rank = 1
                        + (nested[1..].iter())
                            .map(|level| level[w] >> i & 1)
                            .sum::<u64>();
                    held.matches.push(SearchMatch {
                        document_id: ids[w * 64 + i],
                        rank: rank as u32,
                    });
                }
                continue;
            }
            // Best rank first, so the bar rises as early as it can; a rank
            // below the bar has nothing left to offer.
            for rank in (1..=self.levels).rev() {
                if held.bar.is_some_and(|bar| (rank as u32) < bar.rank) {
                    break;
                }
                for i in ones(group(rank)) {
                    held.offer(ids[w * 64 + i], rank as u32);
                }
            }
        }
        held.stats.comparisons += comparisons;
        held.stats.matches += matches;
    }

    /// The ranked scan of Algorithm 1 over the whole plane — the plane-backed
    /// equivalent of [`crate::search::scan_ranked`] over the shard's documents.
    /// Matches come back in slot (scan) order with identical ranks and identical
    /// [`SearchStats`]; callers order them with [`crate::search::top_matches`].
    pub fn scan_ranked(&self, query: &BitIndex) -> (Vec<SearchMatch>, SearchStats) {
        let mut batch = self.scan_ranked_batch(&[query]);
        batch.pop().expect("one result per query")
    }

    /// Algorithm 1 for every query of a batch over the whole plane: exactly
    /// `queries.len()` independent [`ScanPlane::scan_ranked`] calls, swept
    /// chunk-major (see the [module docs](self)).
    pub fn scan_ranked_batch(&self, queries: &[&BitIndex]) -> Vec<(Vec<SearchMatch>, SearchStats)> {
        let keeps = vec![None; queries.len()];
        self.scan_ranked_batch_chunks(queries, &keeps, 0..self.num_chunks())
    }

    /// **The sweep**, and one scan unit of the engine's executor:
    /// Algorithm 1 for every query over `chunks.start..chunks.end`, chunk-major
    /// with the queries inside. `keeps[q]` is how many of query `q`'s matches
    /// the caller can use: `None` returns every match in slot order, `Some(k)`
    /// the first `k` in the canonical order ([`crate::search::top_matches`]),
    /// and a kept sweep never materializes a match that `k` matches it already
    /// holds beat (see the [module docs](self)). [`SearchStats`] are always the whole
    /// sweep's, kept or not. With every keep `None`, a partition's per-query
    /// results concatenate (in range order) and sum back to
    /// [`ScanPlane::scan_ranked_batch`] byte for byte; with `Some(k)`, its
    /// kept lists, cut to `k` again, equal the whole sweep's cut. Out-of-bounds
    /// ranges are clamped to the grid; an empty range (and so an empty plane,
    /// whose geometry is unknown) answers every query, of any length, with no
    /// matches and zeroed stats.
    ///
    /// # Panics
    ///
    /// If `keeps` and `queries` differ in length, or a query is not r bits long.
    pub fn scan_ranked_batch_chunks(
        &self,
        queries: &[&BitIndex],
        keeps: &[Option<usize>],
        chunks: Range<usize>,
    ) -> Vec<(Vec<SearchMatch>, SearchStats)> {
        assert_eq!(queries.len(), keeps.len(), "one keep per query");
        let chunks = self.clamp_chunks(chunks);
        if chunks.is_empty() {
            return vec![(Vec::new(), SearchStats::default()); queries.len()];
        }
        for query in queries {
            assert_eq!(query.len(), self.bits, "length mismatch");
        }
        let mut held: Vec<Held> = (keeps.iter()).map(|&keep| Held::new(keep)).collect();
        let mut nested = vec![NONE; self.levels];
        for chunk in chunks {
            let valid = self.valid_slots(chunk);
            // Level 1 compares every document of the chunk once.
            let docs = self.docs_in(chunk) as u64;
            for (query, held) in queries.iter().zip(&mut held) {
                held.stats.comparisons += docs;
                self.sweep_chunk(chunk, &valid, query, &mut nested, held);
            }
        }
        held.into_iter().map(Held::finish).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document_index::RankedDocumentIndex;
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

    /// Push a decoded index the way a store hands one over: its levels' words
    /// back to back.
    fn push(plane: &mut ScanPlane, doc: &RankedDocumentIndex) {
        let words: Vec<u64> = (doc.levels.iter())
            .flat_map(|level| level.as_blocks())
            .copied()
            .collect();
        plane.push(IndexEntry::new(
            doc.document_id,
            doc.base_level().len(),
            &words,
        ));
    }

    fn plane_of(docs: &[RankedDocumentIndex]) -> ScanPlane {
        let mut plane = ScanPlane::new();
        for d in docs {
            push(&mut plane, d);
        }
        plane
    }

    /// Ids of the documents whose level-1 index matches, in slot order.
    fn match_ids(plane: &ScanPlane, query: &BitIndex) -> Vec<u64> {
        let (matches, _) = plane.scan_ranked(query);
        matches.iter().map(|m| m.document_id).collect()
    }

    /// The uncut sweep of a chunk range: every match, in slot order.
    fn sweep(
        plane: &ScanPlane,
        queries: &[&BitIndex],
        chunks: Range<usize>,
    ) -> Vec<(Vec<SearchMatch>, SearchStats)> {
        plane.scan_ranked_batch_chunks(queries, &vec![None; queries.len()], chunks)
    }

    /// How many rows of one level of one chunk the sweep ORs for `query`: one
    /// per bit of `!query & live`.
    fn rows_read(plane: &ScanPlane, chunk: usize, level: usize, query: &BitIndex) -> u32 {
        let blocks = plane.blocks;
        let live = &plane.chunks[chunk].live[level * blocks..][..blocks];
        (query.as_blocks().iter().zip(live))
            .map(|(&q, &live)| (!q & live).count_ones())
            .sum()
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
        // The documents a chunk range sweeps, after clamping it to the grid,
        // read as the level-1 comparisons of an all-zeros query (it matches no
        // random document, so nothing walks a further level).
        let zeros = BitIndex::all_zeros(32);
        let docs_in_chunks = |plane: &ScanPlane, chunks: Range<usize>| {
            let [(matches, stats)] = &sweep(plane, &[&zeros], chunks)[..] else {
                panic!("one result per query");
            };
            assert!(matches.is_empty());
            stats.comparisons
        };
        let mut rng = StdRng::seed_from_u64(23);
        // One full chunk plus a 7-document tail chunk.
        let docs = random_docs(&mut rng, CHUNK + 7, 32, 1);
        let plane = plane_of(&docs);
        assert_eq!(plane.num_chunks(), 2);
        assert_eq!(docs_in_chunks(&plane, 0..1), CHUNK as u64);
        assert_eq!(docs_in_chunks(&plane, 1..2), 7, "tail chunk is partial");
        assert_eq!(docs_in_chunks(&plane, 0..2), CHUNK as u64 + 7);
        assert_eq!(
            docs_in_chunks(&plane, 0..99),
            CHUNK as u64 + 7,
            "end clamps"
        );
        assert_eq!(docs_in_chunks(&plane, 5..9), 0, "past-the-end is empty");
        #[allow(clippy::reversed_empty_ranges)]
        {
            assert_eq!(docs_in_chunks(&plane, 2..1), 0, "inverted collapses");
        }
        assert_eq!(docs_in_chunks(&ScanPlane::new(), 0..1), 0);
    }

    #[test]
    fn scanplane_all_ones_query_prunes_every_block_and_matches_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let docs = random_docs(&mut rng, 20, 100, 3);
        let plane = plane_of(&docs);
        let q = BitIndex::all_ones(100);
        for level in 0..3 {
            assert_eq!(rows_read(&plane, 0, level, &q), 0, "no zeros, no rows");
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
            assert_eq!(rows_read(&plane, 0, level, &BitIndex::all_ones(70)), 0);
            assert_eq!(rows_read(&plane, 0, level, &BitIndex::all_zeros(70)), 70);
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
            push(&mut incremental, d);
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
        push(
            &mut plane,
            &RankedDocumentIndex {
                document_id: 0,
                levels: vec![BitIndex::all_ones(64); 2],
            },
        );
        push(
            &mut plane,
            &RankedDocumentIndex {
                document_id: 1,
                levels: vec![BitIndex::all_ones(64); 3],
            },
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn scanplane_rejects_mismatched_query_length() {
        let mut plane = ScanPlane::new();
        push(
            &mut plane,
            &RankedDocumentIndex {
                document_id: 0,
                levels: vec![BitIndex::all_ones(64)],
            },
        );
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
        push(
            &mut plane,
            &RankedDocumentIndex {
                document_id: 0,
                levels: vec![BitIndex::all_ones(64)],
            },
        );
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
                let ranged = sweep(&plane, &refs, range.clone());
                for (q, (matches, stats)) in ranged.into_iter().enumerate() {
                    // The batch range equals a batch of one, per query.
                    assert_eq!(
                        sweep(&plane, &[&queries[q]], range.clone()),
                        [(matches.clone(), stats)],
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
        assert_eq!(sweep(&plane, &refs, 0..usize::MAX), full);
        let nothing = vec![(Vec::new(), SearchStats::default()); refs.len()];
        assert_eq!(sweep(&plane, &refs, 5..7), nothing);
        #[allow(clippy::reversed_empty_ranges)] // inverted range IS the case under test
        let inverted = sweep(&plane, &refs, 2..1);
        assert_eq!(inverted, nothing);
        assert_eq!(sweep(&plane, &refs, 3..3), nothing);
        // A range's level-1 comparison count is exactly the documents it covers
        // (an all-zeros query matches no random document, so no rank walks).
        let zeros = BitIndex::all_zeros(65);
        let tail = sweep(&plane, &[&zeros], 2..3);
        assert_eq!(tail[0].1.comparisons, 321);
    }

    #[test]
    fn scanplane_survivors_match_scalar_semantics() {
        // The row ORs against the per-document predicate, slot by slot, on
        // every chunk: a slot matches iff its level-1 index matches, its rank is
        // the run of levels that match from level 1 up (upper levels are only
        // evaluated on the survivors below them), and the stats are one
        // comparison per document plus min(rank, η − 1) per match.
        let mut rng = StdRng::seed_from_u64(61);
        let eta = 3;
        let docs = random_docs(&mut rng, CHUNK + 100, 129, eta);
        let plane = plane_of(&docs);
        for zero_prob in [0.0, 0.02, 0.1, 1.0] {
            let q = random_bitindex(&mut rng, 129, zero_prob);
            for chunk in 0..2 {
                let slots = &docs[chunk * CHUNK..docs.len().min((chunk + 1) * CHUNK)];
                let want: Vec<SearchMatch> = (slots.iter())
                    .filter_map(|d| {
                        let rank = d.levels.iter().take_while(|l| l.matches_query(&q)).count();
                        (rank > 0).then_some(SearchMatch {
                            document_id: d.document_id,
                            rank: rank as u32,
                        })
                    })
                    .collect();
                let comparisons = slots.len() as u64
                    + (want.iter())
                        .map(|m| u64::from(m.rank).min(eta as u64 - 1))
                        .sum::<u64>();
                let [(got, stats)] = &sweep(&plane, &[&q], chunk..chunk + 1)[..] else {
                    panic!("one result per query");
                };
                let ctx = format!("zp={zero_prob} chunk={chunk}");
                assert_eq!(got, &want, "{ctx}");
                assert_eq!(stats.matches, want.len() as u64, "{ctx}");
                assert_eq!(stats.comparisons, comparisons, "{ctx}");
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
            push(&mut plane, d);
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
        let rows: Vec<u32> = (0..3).map(|c| rows_read(&plane, c, 0, &q)).collect();
        assert_eq!(rows, [0, 1, 0]);
        // Chunk by chunk, the sweep drops the lone document and nothing else.
        for chunk in 0..3 {
            let [(matches, stats)] = &sweep(&plane, &[&q], chunk..chunk + 1)[..] else {
                panic!("one result per query");
            };
            let slots = chunk * CHUNK..docs.len().min((chunk + 1) * CHUNK);
            let want: Vec<u64> = (slots.clone().map(|id| id as u64))
                .filter(|&id| id != lone as u64)
                .collect();
            let got: Vec<u64> = matches.iter().map(|m| m.document_id).collect();
            assert_eq!(got, want, "chunk {chunk}");
            assert_eq!(stats.matches, want.len() as u64, "chunk {chunk}");
            assert_eq!(stats.comparisons, slots.len() as u64, "η = 1: level 1 only");
        }
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

    #[test]
    fn scanplane_hostile_snapshot_plants_no_bit_past_r() {
        use crate::engine::SearchEngine;
        use crate::params::SystemParams;
        use crate::persistence::{deserialize_store, serialize_store};
        use crate::search::CloudIndex;
        // r = 100 is 13 bytes a level: the high nibble of every level's last
        // byte lies past r. A snapshot that sets all of them must restore what
        // `deserialize_store` decodes, which masks them — and no chunk's live
        // mask may hold one, or `!query & live` would select a row that does
        // not exist (the all-ones query's `!query` is all ones past r).
        let (r, eta) = (100, 3);
        let params = SystemParams::new(r, 4, 16, 0, 0, vec![1, 2, 3]).unwrap();
        let mut rng = StdRng::seed_from_u64(79);
        let docs = random_docs(&mut rng, CHUNK + 37, r, eta);
        let clean = serialize_store(&params, &docs);
        let mut hostile = clean.clone();
        let level_bytes = r.div_ceil(8);
        for entry in hostile[20..].chunks_exact_mut(8 + eta * level_bytes) {
            for level in entry[8..].chunks_exact_mut(level_bytes) {
                level[level_bytes - 1] |= 0xf0;
            }
        }
        let decoded = deserialize_store(&params, &hostile).unwrap();
        assert_eq!(decoded, docs, "the reference decoder masks the tail");
        let mut reference = CloudIndex::new(params.clone());
        reference.insert_all(decoded).unwrap();
        let mut queries = vec![BitIndex::all_ones(r), BitIndex::all_zeros(r)];
        queries.extend([0.02, 0.3].map(|zero_prob| random_bitindex(&mut rng, r, zero_prob)));
        for shards in [1, 2, 3] {
            let mut engine = SearchEngine::sharded(params.clone(), shards);
            assert_eq!(engine.restore_snapshot(&hostile), Ok(docs.len()));
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(
                    engine.search_ranked_with_stats(&qi(q)),
                    reference.search_ranked_with_stats(&qi(q)),
                    "{shards} shards, query {i}"
                );
            }
            for shard in 0..shards {
                for chunk in &engine.scan_plane(shard).chunks {
                    for level in chunk.live.chunks_exact(r.div_ceil(64)) {
                        assert_eq!(level[1] >> (r % 64), 0, "{shards} shards, shard {shard}");
                    }
                }
            }
            assert_eq!(engine.snapshot(), clean, "the store holds the masked bytes");
        }
    }
}
