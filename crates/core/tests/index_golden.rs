//! Golden digest over every bit the keyword-index path produces.
//!
//! One SHA-512 covers the owner's trapdoors for 2,000 keywords (short, long, empty and
//! non-ASCII ones), the random-pool trapdoors, the user-side `trapdoor_from_bin_key` for a few
//! bins, `keyword_index` at ragged geometries (digits that straddle a byte and a 64-bit word,
//! `r` that is not a multiple of 64) and the levels that `index_terms` and
//! `index_terms_cached` give for a small fixed corpus at η = 3 and η = 5. Any change to
//! SHA-2, HMAC, the long-output PRF, the Eq. 1 reduction or the Eq. 2 level assembly that
//! moves one output bit fails it. The constant is re-recorded only when the index bytes are
//! *meant* to change, which breaks every stored index and every issued trapdoor.

use mkse_core::{
    get_bin, keyword_index, trapdoor_from_bin_key, BitIndex, DocumentIndexer, SchemeKeys,
    SystemParams,
};
use mkse_crypto::Sha512;
use mkse_textproc::document::TermFrequencies;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn absorb(hasher: &mut Sha512, index: &BitIndex) {
    hasher.update(&(index.len() as u64).to_le_bytes());
    for block in index.as_blocks() {
        hasher.update(&block.to_le_bytes());
    }
}

/// 2,000 keywords: dictionary-like, empty, longer than one SHA-512 block, and non-ASCII.
fn keywords() -> Vec<String> {
    (0..2000usize)
        .map(|i| match i % 5 {
            0 | 1 => format!("kw{i}"),
            2 => "x".repeat(i % 300),
            3 => format!("mot-clé-{i}-ünïcödé"),
            _ => format!("{i:0>width$}", width = 1 + i % 160),
        })
        .collect()
}

/// A small corpus with frequencies 0..=14: a zero-count term reaches no level.
fn corpus(seed: u64) -> Vec<TermFrequencies> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..40)
        .map(|doc| {
            let terms = rng.gen_range(0..25usize);
            TermFrequencies::from_pairs((0..terms).map(|_| {
                let term = format!("term{}", rng.gen_range(0..120u32));
                (term, rng.gen_range(0..15u32) + (doc % 2))
            }))
        })
        .collect()
}

fn golden_digest() -> String {
    let mut hasher = Sha512::new();
    let params = SystemParams::default();
    let keys = SchemeKeys::generate(&params, &mut StdRng::seed_from_u64(42));

    for keyword in keywords() {
        absorb(&mut hasher, keys.trapdoor_for(&params, &keyword).index());
    }
    for trapdoor in keys.random_pool_trapdoors(&params) {
        absorb(&mut hasher, trapdoor.index());
    }
    for keyword in ["cloud", "privacy", "network", ""] {
        let bin = get_bin(&params, keyword);
        let (_, key) = &keys.keys_for_bins(&[bin])[0];
        absorb(
            &mut hasher,
            trapdoor_from_bin_key(&params, key, keyword).index(),
        );
    }

    for (r, d) in [
        (1, 1),
        (63, 8),
        (64, 7),
        (100, 5),
        (131, 13),
        (448, 6),
        (257, 32),
    ] {
        let geometry = SystemParams::new(r, d, 1, 0, 0, vec![1]).unwrap();
        for keyword in ["alpha", "beta", "", "a much longer keyword than the others"] {
            absorb(
                &mut hasher,
                &keyword_index(&geometry, b"golden bin key", keyword),
            );
        }
    }

    for (seed, params) in [
        (5, SystemParams::default()),
        (6, SystemParams::with_five_levels()),
    ] {
        let keys = SchemeKeys::generate(&params, &mut StdRng::seed_from_u64(seed));
        let indexer = DocumentIndexer::new(&params, &keys);
        let mut cache = HashMap::new();
        for (id, terms) in corpus(seed).iter().enumerate() {
            for index in [
                indexer.index_terms(id as u64, terms),
                indexer.index_terms_cached(id as u64, terms, &mut cache),
            ] {
                hasher.update(&index.document_id.to_le_bytes());
                for level in &index.levels {
                    absorb(&mut hasher, level);
                }
            }
        }
        hasher.update(&(cache.len() as u64).to_le_bytes());
    }

    hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[test]
fn golden_digest_pins_every_index_bit() {
    assert_eq!(golden_digest(), GOLDEN_INDEX_SHA512);
}

const GOLDEN_INDEX_SHA512: &str =
    "72e257b3824d4952bf6c97a2ce3bb46576263f094e70a68daf0ed2964737e87e\
     61ffe21190e7fc194873e0b344e92d84f3fde4d4473cb62638490e085ed087c7";
