//! The correctness oracle: a sequential in-process `CloudServer` twin driven
//! one `Service::call` at a time. Every reply a workload or a ladder rung
//! receives is reduced to a digest and compared with the twin's; a mismatch,
//! an error reply or a client error is a failed op.

use crate::inputs::{Inputs, Op};
use crate::spec;
use mkse_protocol::{CloudServer, Request, Response, Service, UploadMessage};

/// Digest of a client-side failure; no reply digests to it.
pub const FAILED: u64 = 0;

fn mix(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x0000_0100_0000_01b3)
        .rotate_left(23)
}

/// Order-sensitive digest over everything a search or upload reply carries:
/// match ids, ranks, order, every metadata block, and the `CacheReport`.
/// Other reply kinds (none are expected on a timed path) digest by name.
pub fn digest(response: &Response) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    match response {
        Response::Search(reply) => {
            h = mix(h, 1 + reply.matches.len() as u64);
            for entry in &reply.matches {
                h = mix(h, entry.document_id);
                h = mix(h, u64::from(entry.rank));
                for level in &entry.metadata {
                    h = mix(h, level.len() as u64);
                    for block in level.as_blocks() {
                        h = mix(h, *block);
                    }
                }
            }
            let cache = &reply.cache;
            h = mix(h, cache.shard_hits);
            h = mix(h, cache.shard_misses);
            h = mix(h, cache.saved_comparisons);
            h = mix(h, u64::from(cache.served_from_cache));
        }
        Response::Uploaded { documents } => {
            h = mix(h, u64::MAX);
            h = mix(h, *documents);
        }
        other => {
            for byte in other.name().bytes() {
                h = mix(h, u64::from(byte));
            }
        }
    }
    h.max(FAILED + 1)
}

fn seeded_twin(inputs: &Inputs, shards: usize) -> CloudServer {
    let mut twin = CloudServer::with_shards(inputs.params.clone(), shards);
    let mut indexer = inputs.indexer();
    for docs in inputs.corpus_chunks() {
        let reply = twin.call(Request::Upload(UploadMessage {
            indices: indexer.index(&docs),
            documents: vec![],
        }));
        assert!(
            matches!(reply, Response::Uploaded { .. }),
            "twin seed upload"
        );
    }
    twin
}

/// What a 1-shard, cache-off twin says the cache-off clients must receive.
pub struct Uncached {
    /// Digest of the reply to every pool query on the seed corpus.
    pub pool: Vec<u64>,
    /// Expected digest of every op, per client.
    pub per_client: Vec<Vec<u64>>,
}

/// The cache-off workloads only query, so the corpus stays the seed corpus
/// and every op is looked up in the pool answers.
pub fn expect_uncached(inputs: &Inputs, clients: &[Vec<Op>]) -> Uncached {
    let mut twin = seeded_twin(inputs, 1);
    let pool: Vec<u64> = inputs
        .pool
        .iter()
        .map(|q| digest(&twin.call(Request::Query(q.clone()))))
        .collect();
    let per_client = clients
        .iter()
        .map(|ops| {
            ops.iter()
                .map(|op| match op {
                    Op::Query(i) => pool[*i as usize],
                    Op::Upload(_) => panic!("cache-off workloads do not upload"),
                })
                .collect()
        })
        .collect();
    Uncached { pool, per_client }
}

/// Replay `ops` on a twin with the server's shard count and cache capacity
/// (the `CacheReport` counts shards, so it is only comparable like for
/// like), returning the digest of every reply.
pub fn replay_cached(inputs: &Inputs, ops: &[Op], cache_capacity: u64) -> Vec<u64> {
    let mut twin = seeded_twin(inputs, spec::SERVER_SHARDS);
    let ack = twin.call(Request::EnableCache {
        capacity_per_shard: cache_capacity,
    });
    assert_eq!(ack, Response::Ack, "twin EnableCache");
    ops.iter()
        .map(|op| digest(&twin.call(request_for(inputs, *op))))
        .collect()
}

/// The envelope an op sends.
pub fn request_for(inputs: &Inputs, op: Op) -> Request {
    match op {
        Op::Query(i) => Request::Query(inputs.pool[i as usize].clone()),
        Op::Upload(k) => Request::Upload(UploadMessage {
            indices: inputs.upload_batch(k).to_vec(),
            documents: vec![],
        }),
    }
}

/// Ops whose actual digest differs from the expected one.
pub fn count_failures(actual: &[u64], expected: &[u64]) -> u64 {
    assert_eq!(actual.len(), expected.len(), "one digest per op");
    actual
        .iter()
        .zip(expected)
        .filter(|(a, e)| a != e || **a == FAILED)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mkse_protocol::{CacheReport, SearchReply, SearchResultEntry};

    fn reply(ids: &[(u64, u32)]) -> Response {
        Response::Search(SearchReply {
            matches: ids
                .iter()
                .map(|&(document_id, rank)| SearchResultEntry {
                    document_id,
                    rank,
                    metadata: vec![],
                })
                .collect(),
            cache: CacheReport::default(),
        })
    }

    #[test]
    fn digest_sees_ids_ranks_order_and_cache_report() {
        let base = digest(&reply(&[(1, 3), (2, 3)]));
        assert_eq!(base, digest(&reply(&[(1, 3), (2, 3)])));
        assert_ne!(base, digest(&reply(&[(2, 3), (1, 3)])), "order");
        assert_ne!(base, digest(&reply(&[(1, 3), (2, 2)])), "rank");
        assert_ne!(base, digest(&reply(&[(1, 3)])), "length");
        let mut hit = reply(&[(1, 3), (2, 3)]);
        if let Response::Search(r) = &mut hit {
            r.cache.shard_hits = 2;
            r.cache.served_from_cache = true;
        }
        assert_ne!(base, digest(&hit), "cache report");
        assert_ne!(
            digest(&Response::Uploaded { documents: 16 }),
            digest(&Response::Uploaded { documents: 32 })
        );
        assert_ne!(digest(&Response::Ack), FAILED);
    }

    #[test]
    fn twin_expectations_follow_the_op_sequence() {
        let inputs = Inputs::generate(3, 150, 2);
        let ops = vec![
            vec![Op::Query(0), Op::Query(7), Op::Query(7)],
            vec![Op::Query(9), Op::Query(0)],
        ];
        let expected = expect_uncached(&inputs, &ops);
        assert_eq!(expected.pool.len(), inputs.pool.len());
        assert_eq!(
            expected.per_client[0],
            vec![expected.pool[0], expected.pool[7], expected.pool[7]]
        );
        assert_eq!(
            expected.per_client[1],
            vec![expected.pool[9], expected.pool[0]]
        );
        // Uploads are replayed op by op on the cached twin, so a query after
        // one is judged against the corpus as it then stands.
        let replayed = replay_cached(&inputs, &[Op::Upload(0), Op::Upload(1)], 8);
        assert_eq!(
            replayed[1],
            digest(&Response::Uploaded {
                documents: 150 + 2 * spec::UPLOAD_DOCS as u64
            })
        );
        // A second visit to the same query is a cache hit on the cached twin:
        // same matches, different CacheReport, so a different digest.
        let cached = replay_cached(&inputs, &[Op::Query(0), Op::Query(0)], 8);
        assert_ne!(cached[0], cached[1]);
        assert_eq!(count_failures(&cached, &cached), 0);
        assert_eq!(
            count_failures(&[cached[0], FAILED], &[cached[0], FAILED]),
            1
        );
        assert_eq!(count_failures(&[cached[0]], &[cached[1]]), 1);
    }
}
