//! The block-major **scan plane**: a bit-sliced, contiguous arena for the server's
//! hottest loop.
//!
//! The paper's server cost is dominated by Eq. (3)/Algorithm 1: σ r-bit comparisons
//! per query. The storage layer keeps one heap-allocated [`crate::bitindex::BitIndex`]
//! per level per document, so the reference scan ([`crate::search::scan_ranked`])
//! chases two pointers per document over scattered allocations. A [`ScanPlane`]
//! re-packs the same bits for linear sweeps:
//!
//! * **Level-1 arena** (`base`): one contiguous `Vec<u64>`, laid out block-major
//!   within fixed-size chunks of [`CHUNK`] documents — column `b` of a chunk holds
//!   64-bit block `b` of every document in the chunk, documents in slot order. A
//!   query sweeps one column at a time over memory the prefetcher can stream, and
//!   appending a document touches exactly η·⌈r/64⌉ words (no re-layout).
//! * **Upper-level arena** (`upper`): levels 2..η packed document-major, walked
//!   only for the (few) documents that matched level 1 — Algorithm 1's rank walk.
//! * **Query-aware block pruning**: the matching predicate is
//!   `doc AND NOT query == 0`. Any block where the query is all-ones contributes
//!   nothing (`NOT query == 0`), so it is skipped *for the whole shard*. Only the
//!   query's **active blocks** — those with at least one zero among the valid `r`
//!   bits — are swept.
//!
//! **Ownership**: a plane is derived state with one owner.
//! [`crate::engine::SearchEngine`] keeps one per shard beside its result cache and
//! appends to it in its insert path — the only way a document reaches an engine's
//! store. Stores, snapshots and the wire carry the η·r bits per document and never
//! a plane, so a holder that does not scan does not pay for one.
//!
//! Semantics are **bit-for-bit identical** to the reference scan: matches come back
//! in slot (scan) order with the same ranks, and [`SearchStats`] counts whole r-bit
//! comparisons exactly as the reference does — block pruning happens *inside* one
//! r-bit comparison and never changes the count (level 1 contributes one comparison
//! per stored document; each upper level walked contributes one more, failing level
//! included).
//!
//! **Fused multi-query sweeps**: [`ScanPlane::scan_ranked_batch`] evaluates a
//! whole batch of queries against each 1024-document chunk while its columns are
//! hot. A single-query sweep is bandwidth-bound — every r-bit column word is
//! fetched from DRAM, used once, and evicted before the next query arrives — so a
//! b-query batch executed query-at-a-time pays b full passes over the same arena.
//! The fused kernel inverts the loop nest (chunk-major outside, query inside, the
//! column-at-a-time discipline of vectorized engines): chunk `c`'s columns are
//! streamed from memory once, every query's active blocks are tested against them
//! into a query-major reject-accumulator matrix (one [`CHUNK`]-word row per
//! query), and only then does the sweep advance to chunk `c + 1`. The arena
//! crosses the memory bus once per batch instead of once per query; the per-query
//! work (identical word count, identical unrolled kernels) becomes compute-bound.
//! Upper levels are still walked doc-major, per query, only on match.
//!
//! **Chunk-range entry points**: every scan has a range-restricted form
//! ([`ScanPlane::scan_ranked_chunks`], [`ScanPlane::scan_ranked_batch_chunks`])
//! that sweeps only `chunks.start..chunks.end` of the plane's [`CHUNK`]-document
//! chunks. These are the work units of the engine's work-stealing scheduler: a
//! shard's plane is carved into fixed-size chunk ranges, each range is scanned
//! independently (same active-block pruning, same fused register tiles — the
//! pruning work is per-query, not per-range, and a range's sweep is exactly the
//! full sweep's iterations over those chunks), and the per-range results
//! concatenate back — matches in slot order, [`SearchStats`] summed — to the
//! byte-identical whole-shard result, because the full scan already processes
//! chunks independently in ascending order and counts one level-1 comparison
//! per stored document (ranges partition the documents) plus one per upper
//! level walked (walks are per-matching-slot, which ranges partition too).
//!
//! **Leakage note (§6)**: pruning is a function of the query index bytes alone —
//! which the server already holds — plus the public geometry `r`. It reveals
//! nothing beyond the search-pattern observation the paper's §6 adversary is
//! already granted; the per-document work it skips is data-independent (the same
//! blocks are skipped for every document in the shard). The same holds for the
//! fused batch sweep: it reads exactly the query bytes and public geometry the
//! server already observes for b sequential queries — batching changes the
//! *order* of memory accesses, never what is observed.

use crate::bitindex::BitIndex;
use crate::document_index::RankedDocumentIndex;
use crate::search::{SearchMatch, SearchStats};
use std::cell::RefCell;

/// Documents per block-major chunk. With the paper's r = 448 (7 blocks) a chunk's
/// columns span 56 KiB — resident in L2 while its 8 KiB reject accumulator stays
/// in L1 — and appending never moves previously packed blocks.
pub const CHUNK: usize = 1024;

/// A per-shard, block-major (bit-sliced) copy of the shard's document indices —
/// derived state, built, appended and swept by [`crate::engine::SearchEngine`]
/// alone (the store holds the documents, never a plane). See the
/// [module docs](self) for the layout.
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
    /// Level-1 blocks, chunked block-major:
    /// `base[chunk·CHUNK·blocks + b·CHUNK + i]` is block `b` of slot `chunk·CHUNK + i`.
    base: Vec<u64>,
    /// Levels 2..η, document-major:
    /// `upper[(slot·(η−1) + lvl)·blocks + b]` is block `b` of level `lvl + 2` of `slot`.
    upper: Vec<u64>,
}

/// One active column of a query: the block position and the query's negated
/// (zero-selecting) word there, already masked to the valid `r` bits.
type ActiveBlock = (usize, u64);

/// Reusable per-worker scan buffers: the active-block lists (flattened, one span
/// per query) and the reject-accumulator matrix (one [`CHUNK`]-word row per
/// query). Scans used to allocate a fresh active-block `Vec` per query and —
/// in the batch path — an accumulator per query per pass; the engine's scan
/// lanes are persistent threads, so one thread-local scratch per worker turns
/// every scan after the first into an allocation-free sweep (visible on the
/// b = 1 profile too).
#[derive(Default)]
struct ScanScratch {
    /// Every query's active blocks, back to back.
    active: Vec<ActiveBlock>,
    /// Per-query spans into `active`: query `q` owns `active[ranges[q].0..ranges[q].1]`.
    ranges: Vec<(usize, usize)>,
    /// Query-major reject-accumulator matrix: row `q` is `acc[q·CHUNK..(q+1)·CHUNK]`.
    acc: Vec<u64>,
    /// Per-group fused active lists (the union of each [`GROUP`]-query group's
    /// active blocks, inactive lanes zero-padded), back to back. Each lane's
    /// negated word is stored **pre-broadcast** (four copies) so the kernel's
    /// AND folds a plain vector load instead of re-broadcasting per strip.
    unions: Vec<(usize, GroupNq)>,
    /// Per-group spans into `unions`.
    union_ranges: Vec<(usize, usize)>,
    /// Per-query match-summary bitmaps for the chunk being swept (one bit per
    /// strip), written by the kernel while the tile is register-resident.
    summaries: Vec<MatchSummary>,
}

thread_local! {
    /// One scratch per thread — i.e. one per persistent engine scan lane.
    static SCRATCH: RefCell<ScanScratch> = RefCell::new(ScanScratch::default());
}

/// Run `f` with the calling thread's scan scratch. Scans never nest (the plane
/// never calls back into itself while the scratch is borrowed), so the borrow is
/// always free.
fn with_scratch<T>(f: impl FnOnce(&mut ScanScratch) -> T) -> T {
    SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
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
    fn clamp_chunks(&self, chunks: std::ops::Range<usize>) -> std::ops::Range<usize> {
        let n = self.num_chunks();
        let start = chunks.start.min(n);
        start..chunks.end.clamp(start, n)
    }

    /// Documents covered by an (already clamped) chunk range.
    fn docs_in(&self, chunks: &std::ops::Range<usize>) -> usize {
        if chunks.is_empty() {
            0
        } else {
            (chunks.end * CHUNK).min(self.ids.len()) - chunks.start * CHUNK
        }
    }

    /// Documents a chunk range covers, after clamping it to the plane's grid —
    /// the public form of the sizing the chunk-range scans use. Telemetry
    /// consumers divide a recorded `unit_scan` duration by this to normalize
    /// per-unit timings to documents swept (the last chunk may be partial, so
    /// `range.len() * CHUNK` over-counts at the plane's tail).
    pub fn docs_in_chunks(&self, chunks: std::ops::Range<usize>) -> usize {
        let chunks = self.clamp_chunks(chunks);
        self.docs_in(&chunks)
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

    /// Append one document's blocks to the arenas. The caller (the engine, with
    /// an index its store just accepted) has already geometry-validated it; the
    /// assertions here guard the arena layout itself.
    pub fn push(&mut self, index: &RankedDocumentIndex) {
        if self.ids.is_empty() {
            self.bits = index.base_level().len();
            self.levels = index.num_levels();
            self.blocks = self.bits.div_ceil(64);
        }
        assert_eq!(index.num_levels(), self.levels, "level count mismatch");
        assert_eq!(index.base_level().len(), self.bits, "index size mismatch");

        let slot = self.ids.len();
        if slot.is_multiple_of(CHUNK) {
            // Open a fresh chunk: zero columns the tail slots never dirty.
            self.base.resize(self.base.len() + CHUNK * self.blocks, 0);
        }
        let chunk_off = (slot / CHUNK) * CHUNK * self.blocks;
        let i = slot % CHUNK;
        for (b, &block) in index.base_level().as_blocks().iter().enumerate() {
            self.base[chunk_off + b * CHUNK + i] = block;
        }
        for level in index.levels.iter().skip(1) {
            assert_eq!(level.len(), self.bits, "index size mismatch");
            self.upper.extend_from_slice(level.as_blocks());
        }
        self.ids.push(index.document_id);
    }

    /// Append the query's active block list to `out`: every block position where
    /// the query has at least one zero among the valid `r` bits, paired with the
    /// negated query word (masked to valid bits). A block absent from this list
    /// can never reject any document — `doc AND NOT query` is zero there for the
    /// whole shard. Appending into a caller-owned buffer keeps the hot path free
    /// of per-query allocations (see [`ScanScratch`]).
    fn active_blocks_into(&self, query: &BitIndex, out: &mut Vec<ActiveBlock>) {
        assert_eq!(query.len(), self.bits, "length mismatch");
        let tail = self.bits % 64;
        out.extend(query.as_blocks().iter().enumerate().filter_map(|(b, &q)| {
            let valid = if tail != 0 && b == self.blocks - 1 {
                (1u64 << tail) - 1
            } else {
                u64::MAX
            };
            let nq = !q & valid;
            (nq != 0).then_some((b, nq))
        }));
    }

    /// The query's active block list as an owned `Vec` (test/diagnostic helper;
    /// the scan paths use [`ScanPlane::active_blocks_into`] with reused buffers).
    #[cfg(test)]
    fn active_blocks(&self, query: &BitIndex) -> Vec<ActiveBlock> {
        let mut out = Vec::new();
        self.active_blocks_into(query, &mut out);
        out
    }

    /// Sweep one chunk's active columns into the reject accumulator: after the
    /// call, `acc[i] == 0` iff document `i` of the chunk matches the query at
    /// level 1. The first column initializes the accumulator (no pre-zeroing);
    /// with no active columns every document matches.
    fn sweep_chunk(&self, chunk: usize, docs: usize, active: &[ActiveBlock], acc: &mut [u64]) {
        let cols = &self.base[chunk * CHUNK * self.blocks..];
        match active.split_first() {
            None => acc[..docs].fill(0),
            Some((&(b0, nq0), rest)) => {
                and_into(&mut acc[..docs], &cols[b0 * CHUNK..b0 * CHUNK + docs], nq0);
                for &(b, nq) in rest {
                    or_and_into(&mut acc[..docs], &cols[b * CHUNK..b * CHUNK + docs], nq);
                }
            }
        }
    }

    /// Algorithm 1's upward walk for one matching document, on the document-major
    /// upper arena. Counts one r-bit comparison per level walked (failing level
    /// included), exactly like the reference loop.
    fn walk_upper(&self, slot: usize, active: &[ActiveBlock], stats: &mut SearchStats) -> u32 {
        let mut rank = 1u32;
        let doc_off = slot * (self.levels - 1) * self.blocks;
        for lvl in 0..self.levels - 1 {
            stats.comparisons += 1;
            let level = &self.upper[doc_off + lvl * self.blocks..doc_off + (lvl + 1) * self.blocks];
            if active.iter().all(|&(b, nq)| level[b] & nq == 0) {
                rank += 1;
            } else {
                break;
            }
        }
        rank
    }

    /// The single home of the chunk-sweep protocol: prune, sweep each chunk's
    /// active columns through the reject accumulator, and visit every matching
    /// slot in scan order (the active list is passed along for rank walks).
    /// Both public scans are thin consumers, so the iteration and accumulator
    /// scheme can never diverge between the ranked and unranked paths.
    fn for_each_matching_slot<F: FnMut(usize, &[ActiveBlock])>(&self, query: &BitIndex, visit: F) {
        self.for_each_matching_slot_in(query, 0..self.num_chunks(), visit)
    }

    /// [`ScanPlane::for_each_matching_slot`] restricted to a chunk range: the
    /// same pruned sweep over `chunks.start..chunks.end` only. Slots are global
    /// (`chunk · CHUNK + i`), so range results splice back verbatim.
    fn for_each_matching_slot_in<F: FnMut(usize, &[ActiveBlock])>(
        &self,
        query: &BitIndex,
        chunks: std::ops::Range<usize>,
        mut visit: F,
    ) {
        if self.ids.is_empty() || chunks.is_empty() {
            return;
        }
        with_scratch(|scratch| {
            scratch.active.clear();
            self.active_blocks_into(query, &mut scratch.active);
            scratch.acc.resize(CHUNK.max(scratch.acc.len()), 0);
            let (active, acc) = (&scratch.active, &mut scratch.acc[..CHUNK]);
            for chunk in chunks {
                let docs = (self.ids.len() - chunk * CHUNK).min(CHUNK);
                self.sweep_chunk(chunk, docs, active, acc);
                for (i, &a) in acc[..docs].iter().enumerate() {
                    if a == 0 {
                        visit(chunk * CHUNK + i, active);
                    }
                }
            }
        })
    }

    /// The ranked scan of Algorithm 1 over the whole plane — the plane-backed
    /// equivalent of [`crate::search::scan_ranked`] over the shard's documents.
    /// Matches come back in slot (scan) order with identical ranks and identical
    /// [`SearchStats`]; callers sort with [`crate::search::sort_matches`].
    pub fn scan_ranked(&self, query: &BitIndex) -> (Vec<SearchMatch>, SearchStats) {
        self.scan_ranked_chunks(query, 0..self.num_chunks())
    }

    /// [`ScanPlane::scan_ranked`] restricted to a chunk range — one work unit of
    /// the engine's work-stealing scheduler. The range's sweep is exactly the
    /// full scan's iterations over those chunks (pruning, accumulator, rank
    /// walks), so concatenating a partition's matches in range order and summing
    /// its [`SearchStats`] (level 1 counts one comparison per document in range)
    /// reproduces [`ScanPlane::scan_ranked`] byte for byte. Out-of-bounds ranges
    /// are clamped to the grid.
    pub fn scan_ranked_chunks(
        &self,
        query: &BitIndex,
        chunks: std::ops::Range<usize>,
    ) -> (Vec<SearchMatch>, SearchStats) {
        let chunks = self.clamp_chunks(chunks);
        let mut stats = SearchStats {
            comparisons: self.docs_in(&chunks) as u64,
            matches: 0,
        };
        let mut matches = Vec::new();
        self.for_each_matching_slot_in(query, chunks, |slot, active| {
            stats.matches += 1;
            let rank = if self.levels > 1 {
                self.walk_upper(slot, active, &mut stats)
            } else {
                1
            };
            matches.push(SearchMatch {
                document_id: self.ids[slot],
                rank,
            });
        });
        (matches, stats)
    }

    /// Slots (in scan order) whose level-1 index matches the query — the
    /// plane-backed filter behind unranked search and metadata retrieval.
    pub fn matching_slots(&self, query: &BitIndex) -> Vec<usize> {
        let mut slots = Vec::new();
        self.for_each_matching_slot(query, |slot, _| slots.push(slot));
        slots
    }

    /// The **fused multi-query sweep**: Algorithm 1 for every query of a batch in
    /// one pass over the plane, amortizing the arena's memory traffic across the
    /// whole batch (see the [module docs](self)).
    ///
    /// Each chunk's columns are streamed once; every query's active blocks are
    /// swept against them while they are cache-hot, each query rejecting into its
    /// own row of a query-major accumulator matrix; matching documents then walk
    /// the doc-major upper levels per query, in slot order. The result is
    /// **byte-identical** to `queries.len()` independent [`ScanPlane::scan_ranked`]
    /// calls — same matches, same scan order, same per-query [`SearchStats`]
    /// (the batch changes memory access order, not what is computed; the
    /// release-mode proptest in `scanplane_equivalence.rs` holds it to that).
    pub fn scan_ranked_batch(&self, queries: &[&BitIndex]) -> Vec<(Vec<SearchMatch>, SearchStats)> {
        self.scan_ranked_batch_chunks(queries, 0..self.num_chunks())
    }

    /// [`ScanPlane::scan_ranked_batch`] restricted to a chunk range — the fused
    /// work unit of the engine's work-stealing scheduler. Exactly the full fused
    /// sweep's iterations over those chunks (group unions, register tiles, match
    /// summaries, rank walks), so a partition's per-query results concatenate
    /// and sum back to [`ScanPlane::scan_ranked_batch`] byte for byte, query by
    /// query. Out-of-bounds ranges are clamped to the grid.
    pub fn scan_ranked_batch_chunks(
        &self,
        queries: &[&BitIndex],
        chunks: std::ops::Range<usize>,
    ) -> Vec<(Vec<SearchMatch>, SearchStats)> {
        let n = queries.len();
        if n == 0 {
            return Vec::new();
        }
        let chunks = self.clamp_chunks(chunks);
        if n == 1 {
            // A batch of one is exactly the single-query sweep; skip the group
            // machinery (the two paths are byte-identical, this is just faster).
            return vec![self.scan_ranked_chunks(queries[0], chunks)];
        }
        if self.ids.is_empty() || chunks.is_empty() {
            // Empty plane (geometry unknown; match the single-query contract for
            // any query length) or empty range: empty matches, zeroed stats.
            return (0..n)
                .map(|_| (Vec::new(), SearchStats::default()))
                .collect();
        }
        let mut results: Vec<(Vec<SearchMatch>, SearchStats)> = (0..n)
            .map(|_| {
                (
                    Vec::new(),
                    SearchStats {
                        comparisons: self.docs_in(&chunks) as u64,
                        matches: 0,
                    },
                )
            })
            .collect();
        with_scratch(|scratch| {
            scratch.active.clear();
            scratch.ranges.clear();
            for query in queries {
                let start = scratch.active.len();
                self.active_blocks_into(query, &mut scratch.active);
                scratch.ranges.push((start, scratch.active.len()));
            }
            // Fuse the per-query active lists into per-GROUP union lists: one
            // entry per block where any lane of the group is active, inactive
            // lanes zero-padded (`col & 0` contributes nothing, so each lane
            // still sees exactly its own active blocks).
            scratch.unions.clear();
            scratch.union_ranges.clear();
            for group in scratch.ranges.chunks(GROUP) {
                let start = scratch.unions.len();
                for b in 0..self.blocks {
                    let mut nqs: GroupNq = [[0u64; 4]; GROUP];
                    let mut any = false;
                    for (lane, &(lo, hi)) in group.iter().enumerate() {
                        if let Some(&(_, nq)) =
                            scratch.active[lo..hi].iter().find(|&&(ab, _)| ab == b)
                        {
                            nqs[lane] = [nq; 4];
                            any = true;
                        }
                    }
                    if any {
                        scratch.unions.push((b, nqs));
                    }
                }
                scratch.union_ranges.push((start, scratch.unions.len()));
            }
            scratch.acc.resize((n * CHUNK).max(scratch.acc.len()), 0);
            scratch.summaries.clear();
            scratch.summaries.resize(n, 0);
            for chunk in chunks {
                let docs = (self.ids.len() - chunk * CHUNK).min(CHUNK);
                // Sweep every query group over this chunk's columns while they
                // are resident: one column load serves the whole group, the
                // group's accumulator tiles live in registers, and only the
                // first group pays the DRAM fetch — the rest hit cache.
                let cols = &self.base[chunk * CHUNK * self.blocks..];
                for (g, &(lo, hi)) in scratch.union_ranges.iter().enumerate() {
                    let lanes = GROUP.min(n - g * GROUP);
                    let union_active = &scratch.unions[lo..hi];
                    let acc = &mut scratch.acc[g * GROUP * CHUNK..];
                    let summary = &mut scratch.summaries[g * GROUP..];
                    match lanes {
                        4 => sweep_chunk_group::<4>(cols, docs, union_active, acc, summary),
                        3 => sweep_chunk_group::<3>(cols, docs, union_active, acc, summary),
                        2 => sweep_chunk_group::<2>(cols, docs, union_active, acc, summary),
                        _ => sweep_chunk_group::<1>(cols, docs, union_active, acc, summary),
                    }
                }
                // Then resolve matches per query, in slot order — identical to
                // the single-query visit. Rejections dominate (a handful of
                // matches per tens of thousands of documents), so the visit
                // skims each row's match-summary bitmap and inspects only the
                // strips that actually hold a match.
                for (q, &(lo, hi)) in scratch.ranges.iter().enumerate() {
                    let mut summary = scratch.summaries[q];
                    if summary == 0 {
                        continue;
                    }
                    let active = &scratch.active[lo..hi];
                    let (matches, stats) = &mut results[q];
                    let row = &scratch.acc[q * CHUNK..q * CHUNK + docs];
                    while summary != 0 {
                        let s = summary.trailing_zeros() as usize;
                        summary &= summary - 1;
                        for (j, &a) in row[s * STRIP..docs.min((s + 1) * STRIP)].iter().enumerate()
                        {
                            if a != 0 {
                                continue;
                            }
                            let slot = chunk * CHUNK + s * STRIP + j;
                            stats.matches += 1;
                            let rank = if self.levels > 1 {
                                self.walk_upper(slot, active, stats)
                            } else {
                                1
                            };
                            matches.push(SearchMatch {
                                document_id: self.ids[slot],
                                rank,
                            });
                        }
                    }
                }
            }
        });
        results
    }
}

/// Queries per fused sweep group: each group's accumulators live in registers
/// while a column strip is swept, so one column load serves [`GROUP`] queries.
const GROUP: usize = 4;

/// Documents per match-summary bit and per register strip of the portable fused
/// kernel: 8 docs × 4 queries is 16 vector accumulators on AVX2 (two ymm per
/// lane) plus the two-register column strip — spill-free, with the
/// pre-broadcast negated words folded from memory. The AVX-512 build widens its
/// strip to [`WIDE_STRIP`] but keeps this summary granularity.
const STRIP: usize = 8;

/// Documents per register strip of the AVX-512 kernel: a 16-doc tile is two zmm
/// registers per lane (8 of 32 total), and each negated-word broadcast is
/// reused for both halves — the per-strip fixed costs (broadcasts, summary,
/// loop) amortize over twice the documents.
const WIDE_STRIP: usize = 16;

/// One group's negated query words for one block, each lane pre-broadcast to a
/// vector-width quadruple so the kernel's AND reads it as a plain 32-byte load.
type GroupNq = [[u64; 4]; GROUP];

/// One bit per [`STRIP`] of a chunk (`CHUNK / STRIP` = 128 bits): set whenever
/// the strip **may** contain a matching document (the kernel tests once per
/// register tile, so the bits over-approximate at tile granularity; a zero bit
/// is a guaranteed miss). Computed inside the sweep while the accumulator tile
/// is register-resident, so the match-visit pass skims two words per row — and
/// verifies the flagged strips word by word — instead of re-reading the whole
/// 8 KiB row.
type MatchSummary = u128;

/// The fused group sweep over one chunk: `G ≤ GROUP` queries' reject rows
/// computed in a single pass over the chunk's columns. `acc` holds the group's
/// rows back to back with stride [`CHUNK`] (`acc[g·CHUNK + i]` is document `i`'s
/// word for lane `g`); `union_active` lists every block where **any** lane is
/// active, with inactive lanes' words zeroed (OR-ing `col & 0` is the identity,
/// so per-lane pruning semantics are preserved exactly).
///
/// The loop nest is the point: a [`STRIP`]-document accumulator tile lives in
/// registers across all blocks, so each column word is **loaded once for the
/// whole group** and the accumulators never round-trip through memory — the
/// single-query kernels pay one accumulator load *and* store per column word.
#[inline(always)]
fn sweep_chunk_group_body<const G: usize, const S: usize>(
    cols: &[u64],
    docs: usize,
    union_active: &[(usize, GroupNq)],
    acc: &mut [u64],
    summary: &mut [MatchSummary],
) {
    debug_assert!(G <= GROUP && acc.len() >= (G - 1) * CHUNK + docs);
    debug_assert!(S.is_multiple_of(STRIP) && summary.len() >= G);
    let mut found = [0 as MatchSummary; G];
    let mut i = 0;
    while i + S <= docs {
        let mut tile = [[0u64; S]; G];
        for &(b, ref nqs) in union_active {
            let col: &[u64; S] = cols[b * CHUNK + i..b * CHUNK + i + S]
                .try_into()
                .expect("strip-sized column slice");
            for (lane, nq) in tile.iter_mut().zip(nqs) {
                for (j, a) in lane.iter_mut().enumerate() {
                    *a |= col[j] & nq[j % 4];
                }
            }
        }
        for (g, lane) in tile.iter().enumerate() {
            // While the tile is still in registers, note whether this strip may
            // hold a match (a zero word): the visit pass then skims the summary
            // bitmap instead of re-reading the whole accumulator row. One test
            // covers the whole tile — the bits over-approximate at tile
            // granularity and the (rare) visit verifies word by word.
            if lane.contains(&0) {
                found[g] |= (((1 as MatchSummary) << (S / STRIP)) - 1) << (i / STRIP);
            }
            acc[g * CHUNK + i..g * CHUNK + i + S].copy_from_slice(lane);
        }
        i += S;
    }
    if i < docs {
        // Ragged tail of the last (partial) chunk — full chunks are a multiple
        // of every strip width.
        let rem = docs - i;
        let mut tile = [[0u64; S]; G];
        for &(b, ref nqs) in union_active {
            let col = &cols[b * CHUNK + i..b * CHUNK + i + rem];
            for (lane, nq) in tile.iter_mut().zip(nqs) {
                for (j, (a, &c)) in lane.iter_mut().zip(col).enumerate() {
                    *a |= c & nq[j % 4];
                }
            }
        }
        for (g, lane) in tile.iter().enumerate() {
            if lane[..rem].contains(&0) {
                found[g] |= (((1 as MatchSummary) << rem.div_ceil(STRIP)) - 1) << (i / STRIP);
            }
            acc[g * CHUNK + i..g * CHUNK + docs].copy_from_slice(&lane[..rem]);
        }
    }
    summary[..G].copy_from_slice(&found);
}

/// [`sweep_chunk_group_body`] compiled for the baseline target (SSE2 on x86-64).
fn sweep_chunk_group_generic<const G: usize>(
    cols: &[u64],
    docs: usize,
    union_active: &[(usize, GroupNq)],
    acc: &mut [u64],
    summary: &mut [MatchSummary],
) {
    sweep_chunk_group_body::<G, STRIP>(cols, docs, union_active, acc, summary);
}

/// [`sweep_chunk_group_body`] compiled with AVX2 enabled: the strip tile fits in
/// ymm registers (two per lane plus the column strip), doubling the
/// per-instruction width over the portable build. Selected at runtime by
/// [`sweep_chunk_group`]; never called unless the CPU reports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_chunk_group_avx2<const G: usize>(
    cols: &[u64],
    docs: usize,
    union_active: &[(usize, GroupNq)],
    acc: &mut [u64],
    summary: &mut [MatchSummary],
) {
    sweep_chunk_group_body::<G, STRIP>(cols, docs, union_active, acc, summary);
}

/// [`sweep_chunk_group_body`] compiled with AVX-512F enabled: a lane's whole
/// [`STRIP`]-document tile is one zmm register, halving the instruction count
/// again over AVX2. Selected at runtime by [`sweep_chunk_group`]; never called
/// unless the CPU reports the feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sweep_chunk_group_avx512<const G: usize>(
    cols: &[u64],
    docs: usize,
    union_active: &[(usize, GroupNq)],
    acc: &mut [u64],
    summary: &mut [MatchSummary],
) {
    sweep_chunk_group_body::<G, WIDE_STRIP>(cols, docs, union_active, acc, summary);
}

/// Runtime-dispatched fused group sweep (see [`sweep_chunk_group_body`]).
#[inline]
fn sweep_chunk_group<const G: usize>(
    cols: &[u64],
    docs: usize,
    union_active: &[(usize, GroupNq)],
    acc: &mut [u64],
    summary: &mut [MatchSummary],
) {
    // SAFETY (both arms): the feature requirement is checked right above each
    // call; the detection macro caches, so the branch costs one predictable
    // load per call.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        unsafe {
            return sweep_chunk_group_avx512::<G>(cols, docs, union_active, acc, summary);
        }
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        unsafe {
            return sweep_chunk_group_avx2::<G>(cols, docs, union_active, acc, summary);
        }
    }
    sweep_chunk_group_generic::<G>(cols, docs, union_active, acc, summary);
}

/// `acc[i] = col[i] & nq`, 4-wide unrolled so the autovectorizer stays on the
/// packed-SIMD path even without profile information.
fn and_into(acc: &mut [u64], col: &[u64], nq: u64) {
    debug_assert_eq!(acc.len(), col.len());
    let mut a = acc.chunks_exact_mut(4);
    let mut c = col.chunks_exact(4);
    for (a4, c4) in (&mut a).zip(&mut c) {
        a4[0] = c4[0] & nq;
        a4[1] = c4[1] & nq;
        a4[2] = c4[2] & nq;
        a4[3] = c4[3] & nq;
    }
    for (ai, &ci) in a.into_remainder().iter_mut().zip(c.remainder()) {
        *ai = ci & nq;
    }
}

/// `acc[i] |= col[i] & nq`, unrolled like [`and_into`].
fn or_and_into(acc: &mut [u64], col: &[u64], nq: u64) {
    debug_assert_eq!(acc.len(), col.len());
    let mut a = acc.chunks_exact_mut(4);
    let mut c = col.chunks_exact(4);
    for (a4, c4) in (&mut a).zip(&mut c) {
        a4[0] |= c4[0] & nq;
        a4[1] |= c4[1] & nq;
        a4[2] |= c4[2] & nq;
        a4[3] |= c4[3] & nq;
    }
    for (ai, &ci) in a.into_remainder().iter_mut().zip(c.remainder()) {
        *ai |= ci & nq;
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
        assert!(plane.matching_slots(&q).is_empty());
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
                    let slots: Vec<usize> = docs
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| d.base_level().matches_query(&q))
                        .map(|(i, _)| i)
                        .collect();
                    assert_eq!(plane.matching_slots(&q), slots);
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
        assert!(
            plane.active_blocks(&q).is_empty(),
            "no zeros, no active blocks"
        );
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
        // r = 70: the query's tail block has 58 phantom positions. An active-block
        // computation that forgot to mask them would sweep a block whose only
        // "zeros" are phantom, and a document could never be rejected by it — but
        // an unmasked negated word would also corrupt the accumulator if document
        // tails were dirty. The invariant test: a query that is all-ones on the
        // valid bits has NO active blocks, tail included.
        let q = BitIndex::all_ones(70);
        let docs = vec![RankedDocumentIndex {
            document_id: 1,
            levels: vec![BitIndex::all_ones(70)],
        }];
        let plane = plane_of(&docs);
        assert!(plane.active_blocks(&q).is_empty());
        let (matches, _) = plane.scan_ranked(&q);
        assert_eq!(matches.len(), 1);
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
    fn scanplane_unrolled_kernels_match_scalar_semantics() {
        // Exercise every remainder length of the 4-wide unroll.
        for len in 0..9usize {
            let col: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            let nq = 0x0f0f_0f0f_0f0f_0f0fu64;
            let mut acc = vec![u64::MAX; len];
            and_into(&mut acc, &col, nq);
            assert_eq!(acc, col.iter().map(|&c| c & nq).collect::<Vec<_>>());
            let mut acc2 = vec![1u64; len];
            or_and_into(&mut acc2, &col, nq);
            assert_eq!(acc2, col.iter().map(|&c| 1 | (c & nq)).collect::<Vec<_>>());
        }
    }
}
