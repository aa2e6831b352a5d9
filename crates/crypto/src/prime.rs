//! Primality testing and prime generation for RSA key generation.
//!
//! The paper uses a 1024-bit RSA modulus built from two random 512-bit primes (§8.1). This
//! module provides Miller–Rabin primality testing with a small-prime trial-division prefilter
//! and a generator for random primes of a requested bit length.

use crate::bigint::BigUint;
use rand::Rng;

/// Small primes used for trial division before the (much more expensive) Miller–Rabin rounds.
const SMALL_PRIMES: [u32; 60] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
];

/// Number of Miller–Rabin rounds. 32 rounds push the error probability below 2⁻⁶⁴ for the
/// key sizes used here, far below the probability of hardware failure.
const MILLER_RABIN_ROUNDS: usize = 16;

/// Returns `true` if `n` is (probably) prime.
///
/// Deterministically correct for all `n < 283²` (covered by trial division); probabilistic
/// with error < 4^-rounds beyond that.
fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let pb = BigUint::from_u64(p as u64);
        if n == &pb {
            return true;
        }
        if n.div_rem_u32(p).1 == 0 {
            return false;
        }
    }
    miller_rabin(n, MILLER_RABIN_ROUNDS, rng)
}

/// Miller–Rabin with `rounds` random bases. `n` must be odd and > 3 when this is called.
fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let one = BigUint::one();
    let two = BigUint::from_u64(2);
    let n_minus_1 = n.sub(&one);
    // Write n-1 = d * 2^s with d odd.
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    'witness: for _ in 0..rounds {
        // Random base in [2, n-2].
        let a = loop {
            let candidate = BigUint::random_below(rng, &n_minus_1);
            if candidate > one {
                break candidate;
            }
        };
        let mut x = a.modpow(&d, n);
        if x == one || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = x.modpow(&two, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generate a random (probable) prime with exactly `bits` bits.
///
/// The candidate's top bit and lowest bit are forced to 1 so the product of two such primes
/// has exactly `2·bits` bits, as RSA key generation expects.
pub fn generate_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 8, "prime size too small to be meaningful");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
        }
        // Force the second-highest bit too so p*q keeps the full modulus length.
        candidate.set_bit(bits - 1);
        candidate.set_bit(bits - 2);
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_primes_are_prime() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 7, 11, 13, 97, 101, 257, 65537, 1009, 104729] {
            assert!(is_probable_prime(&big(p), &mut rng), "{p} should be prime");
        }
    }

    #[test]
    fn small_composites_are_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        for c in [
            0u64, 1, 4, 6, 9, 15, 21, 25, 91, 561, 1105, 6601, 65536, 100000,
        ] {
            assert!(
                !is_probable_prime(&big(c), &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_are_rejected() {
        // Carmichael numbers fool the Fermat test but not Miller–Rabin.
        let mut rng = StdRng::seed_from_u64(3);
        for c in [
            561u64, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
        ] {
            assert!(!is_probable_prime(&big(c), &mut rng), "{c} is Carmichael");
        }
    }

    #[test]
    fn large_known_prime_is_accepted() {
        // 2^61 - 1 is a Mersenne prime.
        let mut rng = StdRng::seed_from_u64(4);
        let p = big((1u64 << 61) - 1);
        assert!(is_probable_prime(&p, &mut rng));
        // 2^67 - 1 = 193707721 × 761838257287 is composite (Mersenne's famous error).
        let c = BigUint::one().shl(67).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, &mut rng));
    }

    #[test]
    fn product_of_two_primes_is_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = generate_prime(64, &mut rng);
        let q = generate_prime(64, &mut rng);
        assert!(!is_probable_prime(&p.mul(&q), &mut rng));
    }

    #[test]
    fn generated_primes_have_requested_length() {
        let mut rng = StdRng::seed_from_u64(6);
        for bits in [16usize, 32, 64, 128] {
            let p = generate_prime(bits, &mut rng);
            assert_eq!(p.bit_len(), bits, "bits {bits}");
            assert!(!p.is_even());
            assert!(is_probable_prime(&p, &mut rng));
        }
    }

    #[test]
    fn generated_primes_differ() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = generate_prime(64, &mut rng);
        let b = generate_prime(64, &mut rng);
        assert_ne!(a, b);
    }
}
