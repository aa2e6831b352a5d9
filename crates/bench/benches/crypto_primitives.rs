//! Micro-benchmarks of the cryptographic substrate: the long-output PRF behind keyword
//! indices, keyword-index derivation (PRF + reduction), AES-CTR document encryption, and the
//! RSA operations of the blind-decryption protocol.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mkse_core::keyword::keyword_index_with_prf;
use mkse_core::{keyword_index, SystemParams};
use mkse_crypto::aes::AesCtr;
use mkse_crypto::prf::LongPrf;
use mkse_crypto::rsa::RsaKeyPair;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_prf_and_keyword_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto_prf");
    let prf = LongPrf::new(b"bin-key");
    group.bench_function("longprf_2688bits", |b| {
        b.iter(|| prf.evaluate(b"keyword", 336))
    });
    let params = SystemParams::default();
    // A fresh PRF per call derives both HMAC key schedules (four compressions) every time —
    // what a caller holding only key bytes pays. A keyed PRF, as `SchemeKeys` and `User`
    // hold one per bin, pays them once.
    group.bench_function("keyword_index_r448_d6_fresh_prf", |b| {
        b.iter(|| keyword_index(&params, b"bin-key", "keyword"))
    });
    group.bench_function("keyword_index_r448_d6_keyed_prf", |b| {
        b.iter(|| keyword_index_with_prf(&params, &prf, "keyword"))
    });
    group.finish();
}

fn bench_aes(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto_aes_ctr");
    let cipher = AesCtr::new(&[7u8; 16]);
    for &size in &[1024usize, 64 * 1024] {
        let data = vec![0xa5u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("encrypt_{size}B"), |b| {
            b.iter(|| cipher.encrypt(&[1u8; 8], &data))
        });
    }
    group.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto_rsa_1024");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let owner = RsaKeyPair::generate(1024, &mut rng);
    let sk = [0x42u8; 16];
    let ciphertext = owner.public_key().encrypt_bytes(&sk).unwrap();
    let blinding = owner.public_key().random_blinding(&mut rng);

    group.bench_function("encrypt_document_key", |b| {
        b.iter(|| owner.public_key().encrypt_bytes(&sk).unwrap())
    });
    group.bench_function("blind", |b| {
        b.iter(|| owner.public_key().blind(&ciphertext, &blinding).unwrap())
    });
    group.bench_function("decrypt_owner_side", |b| {
        b.iter(|| owner.decrypt_value(&ciphertext).unwrap())
    });
    group.bench_function("sign", |b| b.iter(|| owner.sign(b"trapdoor request")));
    group.finish();
}

criterion_group!(benches, bench_prf_and_keyword_index, bench_aes, bench_rsa);
criterion_main!(benches);
