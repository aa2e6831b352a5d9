//! The read path: every ranked execution is one batch through
//! [`SearchEngine::search_batch_with_effects`] (see the [engine docs](crate::engine),
//! "One read path").

use super::executor::PlanRow;
use super::{Reply, SearchEngine, ShardScan};
use crate::bitindex::BitIndex;
use crate::cache::{serves, CacheEffect};
use crate::query::QueryIndex;
use crate::search::{top_matches, SearchMatch, SearchStats};
use crate::telemetry::{Counter, LabelledCounter, Stage};
use std::borrow::Cow;
use std::collections::HashMap;

/// The per-shard counter a cache lookup's outcome adds to.
fn lookup_outcome(hit: bool) -> LabelledCounter {
    if hit {
        LabelledCounter::ShardCacheHits
    } else {
        LabelledCounter::ShardCacheMisses
    }
}

/// What a representative's lookup found for one shard, with the cache on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Found {
    /// A miss: the shard is scanned and the representative admits it.
    Miss,
    /// A hit whose entry serves the distinct query's widest `top`: no scan.
    Served,
    /// A hit at the representative's own `top` whose entry a wider duplicate
    /// outgrows: the shard is scanned, and the duplicate's own lookup misses
    /// and admits it.
    Narrow,
}

/// One distinct query of a batch: the positions that carry its bits share
/// one scan and one merge.
struct Distinct {
    /// Its first position — the representative, whose lookups and admissions
    /// are the distinct query's.
    first: usize,
    /// Its last position, which takes the merged list itself.
    last: usize,
    /// The widest `top` among its positions (`None` keeps everything).
    widest: Option<usize>,
    /// The representative's cache effect.
    effect: CacheEffect,
}

impl Distinct {
    /// The distinct queries of a batch, in order of first occurrence, and
    /// each position's index among them. A batch of one has nothing to
    /// deduplicate and builds neither a map nor a position table.
    fn of(
        queries: &[QueryIndex],
        tops: &[Option<usize>],
    ) -> (Vec<Distinct>, Cow<'static, [usize]>) {
        let mut distinct = Vec::with_capacity(1);
        let mut add = |first: usize| {
            distinct.push(Distinct {
                first,
                last: first,
                widest: Some(0),
                effect: CacheEffect::default(),
            });
            distinct.len() - 1
        };
        let rows = match queries {
            [_] => {
                add(0);
                Cow::Borrowed(&[0][..])
            }
            _ => {
                let mut first_of: HashMap<&BitIndex, usize> = HashMap::with_capacity(queries.len());
                Cow::Owned(
                    (queries.iter().enumerate())
                        .map(|(i, query)| *first_of.entry(query.bits()).or_insert_with(|| add(i)))
                        .collect(),
                )
            }
        };
        for (i, (&row, &top)) in rows.iter().zip(tops).enumerate() {
            let unique = &mut distinct[row];
            unique.widest = unique.widest.zip(top).map(|(w, t)| w.max(t));
            unique.last = i;
        }
        (distinct, rows)
    }
}

impl SearchEngine {
    /// Ranked search (Algorithm 1) with execution statistics, merged across shards.
    pub fn search_ranked_with_stats(&self, query: &QueryIndex) -> (Vec<SearchMatch>, SearchStats) {
        let (matches, stats, _) = self.search_one(query, None);
        (matches, stats)
    }

    /// One query as a batch of one through
    /// [`SearchEngine::search_batch_with_effects`], its reply cut to `top`.
    pub(super) fn search_one(&self, query: &QueryIndex, top: Option<usize>) -> Reply {
        let mut replies = self.search_batch_with_effects(std::slice::from_ref(query), &[top]);
        replies.pop().expect("one reply per query")
    }

    /// The single merge point for ranked execution: extend in shard order, sum
    /// the stats, and keep the first `top` matches of the (rank desc, id asc)
    /// total order — selected, and only those sorted
    /// ([`crate::search::top_matches`]). Cached and fresh shard results flow
    /// through this identically; the first result's list is the buffer the
    /// others join.
    fn merge_ranked<I: IntoIterator<Item = ShardScan>>(
        per_shard: I,
        top: Option<usize>,
    ) -> ShardScan {
        let mut per_shard = per_shard.into_iter();
        let (mut matches, mut stats) = per_shard.next().unwrap_or_default();
        for (shard_matches, shard_stats) in per_shard {
            matches.extend(shard_matches);
            stats.merge(&shard_stats);
        }
        (top_matches(matches, top, |m| *m), stats)
    }

    /// Ranked search without statistics.
    pub fn search(&self, query: &QueryIndex) -> Vec<SearchMatch> {
        self.search_one(query, None).0
    }

    /// Ranked search returning only the top `tau` matches (§5: "the user can
    /// retrieve only the top τ matches"). `tau` reaches every lane, which
    /// keeps only its best `tau` across the units it claims; the merge selects
    /// the `tau` kept and sorts only those. With the cache on, each shard's
    /// kept list is what the cache admits, and it serves any later `top ≤ tau`.
    pub fn search_top(&self, query: &QueryIndex, tau: usize) -> Vec<SearchMatch> {
        self.search_one(query, Some(tau)).0
    }

    /// **The** read path: every ranked execution, a single query included, is
    /// this batched ranked search with per-query statistics and cache effects
    /// (see the [module docs](crate::engine)). Replies come back in batch order; reply
    /// `i` keeps the first `tops[i]` matches (all of them for `None`), and the
    /// cut touches only the matches — the stats and the effect are the whole
    /// scan's. With the cache disabled every effect is all zeros.
    ///
    /// Execution is **fused and deduplicated**: queries carrying identical
    /// bits are scanned once (the first occurrence is the representative;
    /// every duplicate position receives a copy of its reply),
    /// and every scan unit of a shard sweeps the shard's whole remaining
    /// query set in one [`crate::scanplane::ScanPlane::sweep`]
    /// pass — one lane hand-off and one merge per batch, not per query. Each
    /// lane keeps only the best `tops[i]` matches of query `i` (the widest
    /// `top` among a query's duplicates), cache on or off.
    /// With the cache enabled, each distinct query looks each shard up at its
    /// representative's own `top`, and each shard scans exactly the unique
    /// queries whose entry cannot serve their widest `top` (fully cached
    /// queries trigger no scan at all); duplicates are resolved through real
    /// cache lookups at their own `top` against what the representative
    /// admitted — so their [`CacheEffect`]s report the same hits, and the same
    /// saved comparisons, that issuing the b queries one at a time would have
    /// produced. Replies, per-query [`SearchStats`] and merge order are
    /// byte-identical to b independent single-query executions either way.
    ///
    /// One scoped caveat on the *diagnostics*: the distinct queries' cache
    /// lookups are phased (all before the fused scans — that is what makes one
    /// plane pass per shard possible), so when the cache is under eviction
    /// pressure **within a single batch** (`capacity_per_shard` smaller than the
    /// batch's distinct working set plus the warm entries it displaces), a
    /// [`CacheEffect`]/[`crate::cache::CacheStats`] entry may differ from strict one-at-a-time
    /// issue order — an earlier query's admission cannot evict an entry a later
    /// distinct query already looked up. Replies and [`SearchStats`] are never
    /// affected (the cache may change work accounting, never bytes), and
    /// duplicate positions always replay sequential cache traffic exactly.
    ///
    /// # Panics
    ///
    /// If `tops` and `queries` differ in length.
    pub fn search_batch_with_effects(
        &self,
        queries: &[QueryIndex],
        tops: &[Option<usize>],
    ) -> Vec<(Vec<SearchMatch>, SearchStats, CacheEffect)> {
        assert_eq!(queries.len(), tops.len(), "one top per query");
        if queries.is_empty() {
            return Vec::new();
        }
        self.telemetry.add(Counter::Batches, 1);
        self.telemetry
            .add(Counter::BatchQueries, queries.len() as u64);
        let _batch_span = self.telemetry.span(Stage::EngineBatch);
        let shards = self.store.num_shards();
        let (mut distinct, rows) = Distinct::of(queries, tops);
        let tally = |effect: &mut CacheEffect, hit: Option<&SearchStats>| match hit {
            Some(stats) => {
                effect.shard_hits += 1;
                effect.saved_comparisons += stats.comparisons;
            }
            None => effect.shard_misses += 1,
        };

        // One result per distinct query and shard with the cache on — what
        // the cache looks up and admits is a shard's list — at `row * shards +
        // shard`, and one per distinct query with it off, gathered across
        // every shard, at `row`.
        let per = if self.cache.is_some() { shards } else { 1 };
        let mut results: Vec<ShardScan> = vec![Default::default(); distinct.len() * per];

        // Phase 1 — the distinct queries' lookups, in batch order, each at
        // its representative's own `top`. found[i] says what result i's
        // lookup found; a served hit is the result, every other result is
        // scanned.
        let mut found: Vec<Found> = Vec::new();
        let mut generations: Vec<u64> = Vec::new();
        if let Some(cache) = &self.cache {
            let _lookup_span = self.telemetry.span(Stage::CacheLookup);
            let mut cache = cache.lock().unwrap();
            generations = (0..shards).map(|shard| cache.generation(shard)).collect();
            found = vec![Found::Miss; results.len()];
            for (row, unique) in distinct.iter_mut().enumerate() {
                let (bits, top) = (queries[unique.first].bits(), tops[unique.first]);
                for shard in 0..shards {
                    let hit = cache.lookup(shard, bits, top);
                    self.telemetry
                        .add_at(lookup_outcome(hit.is_some()), shard, 1);
                    tally(&mut unique.effect, hit.as_ref().map(|(_, stats, _)| stats));
                    if let Some((matches, stats, kept)) = hit {
                        let result = row * per + shard;
                        found[result] = if serves(kept, unique.widest) {
                            results[result] = (matches.to_vec(), stats);
                            Found::Served
                        } else {
                            Found::Narrow
                        };
                    }
                }
            }
        }

        // Phase 2 — fused scans: each shard sweeps exactly the distinct queries
        // it does not serve from the cache, in one plane pass. With the cache
        // off that is every distinct query on every shard, so the shards share
        // one work list. Each distinct query is scanned and merged once, at the
        // widest `top` any of its positions asks for (`None` — everything —
        // outranks any cut), and that is what each lane keeps of it.
        let bits = |row: usize| queries[distinct[row].first].bits();
        let mut work: Vec<(&BitIndex, usize)> = Vec::new();
        let plan: Vec<PlanRow> = if self.cache.is_none() {
            work.extend((0..distinct.len()).map(|row| (bits(row), row)));
            (0..shards).map(|shard| (shard, 0..work.len())).collect()
        } else {
            (0..shards)
                .filter_map(|shard| {
                    let start = work.len();
                    work.extend(
                        (0..distinct.len())
                            .filter(|&row| found[row * per + shard] != Found::Served)
                            .map(|row| (bits(row), row * per + shard)),
                    );
                    (work.len() > start).then_some((shard, start..work.len()))
                })
                .collect()
        };
        if !plan.is_empty() {
            self.telemetry.add(Counter::ShardScans, plan.len() as u64);
            let keep = |result: usize| distinct[result / per].widest;
            self.scan_plan(&plan, &work, keep, &mut results);
        }

        // Phase 3 — one pass over the batch in position order, replaying the
        // cache traffic sequential execution would generate: a representative
        // admits the shards it missed, at its own `top` (the list may be the
        // row's wider scan, which serves it too); a duplicate resolves through
        // real lookups at its own `top`, hitting whatever is cached *at its
        // position in the batch* (normally what its representative just
        // admitted — but an entry kept narrower than the duplicate's `top`
        // misses, and under LRU pressure an intervening admission may have
        // evicted it; then, like sequential execution, the duplicate reports a
        // miss and re-admits the row's scan, which serves its `top`). Distinct
        // queries' *lookups* stay phased (the caveat above), so
        // only their diagnostics can deviate under intra-batch eviction
        // pressure; the admission order and every duplicate's traffic match
        // sequential execution exactly. Nothing to admit or resolve, no span.
        let mut duplicate_effects = Vec::new();
        let has_duplicates = distinct.len() < queries.len();
        if let Some(cache) = (self.cache.as_ref()).filter(|_| !plan.is_empty() || has_duplicates) {
            let _admit_span = self.telemetry.span(Stage::CacheAdmit);
            let mut cache = cache.lock().unwrap();
            duplicate_effects = vec![CacheEffect::default(); queries.len()];
            for (i, ((query, &top), &row)) in queries.iter().zip(tops).zip(rows.iter()).enumerate()
            {
                let first = distinct[row].first == i;
                for (shard, &generation) in generations.iter().enumerate() {
                    let result = row * per + shard;
                    let missed = if first {
                        found[result] == Found::Miss
                    } else {
                        let hit = cache.lookup(shard, query.bits(), top);
                        self.telemetry
                            .add_at(lookup_outcome(hit.is_some()), shard, 1);
                        tally(
                            &mut duplicate_effects[i],
                            hit.as_ref().map(|(_, stats, _)| stats),
                        );
                        hit.is_none()
                    };
                    if missed {
                        let scan = results[result].clone();
                        cache.admit(shard, query.bits().clone(), top, scan, generation);
                    }
                }
            }
        }

        // Merge each distinct query once, at its widest `top`, into its first
        // result. Every position is then that list cut to its own `top`,
        // beside its own cache effect; a row's last position takes the list
        // itself.
        for (row, unique) in results.chunks_mut(per).zip(&distinct) {
            row[0] = Self::merge_ranked(row.iter_mut().map(std::mem::take), unique.widest);
        }
        (rows.iter().zip(tops).enumerate())
            .map(|(i, (&row, &top))| {
                let unique = &distinct[row];
                // With the cache off every effect is all zeros.
                let effect = if unique.first == i {
                    unique.effect
                } else {
                    duplicate_effects.get(i).copied().unwrap_or_default()
                };
                let (matches, stats) = &mut results[row * per];
                let keep = top.map_or(matches.len(), |k| k.min(matches.len()));
                let matches = if unique.last == i {
                    matches.truncate(keep);
                    std::mem::take(matches)
                } else {
                    matches[..keep].to_vec()
                };
                (matches, *stats, effect)
            })
            .collect()
    }
}
