//! Small helpers for dense `f64` vectors (the MRSE baseline works on dictionary-sized
//! index/query vectors and scores documents by inner products).

/// Inner (dot) product of two equal-length vectors.
///
/// Panics if the lengths differ — the MRSE code always works with dictionary-sized vectors,
/// so a mismatch is a programming error rather than a recoverable condition.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean norm.
#[cfg(test)]
fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Element-wise addition.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x + y).collect()
}

/// Element-wise subtraction.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x - y).collect()
}

/// Multiply every element by a scalar.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|x| x * s).collect()
}

/// Split a vector into two shares `(a', a'')` according to a random bit string, as the secure
/// kNN construction requires: where `split_bits[i]` is `true` the two shares both receive the
/// original value; where it is `false` they receive two random values summing to the original.
///
/// (Cao et al. use the complementary convention for query vs. index vectors; the caller picks
/// which side gets the "split" treatment.)
pub fn split_vector<R: rand::Rng + ?Sized>(
    v: &[f64],
    split_bits: &[bool],
    rng: &mut R,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(v.len(), split_bits.len());
    let mut a = vec![0.0; v.len()];
    let mut b = vec![0.0; v.len()];
    for i in 0..v.len() {
        if split_bits[i] {
            a[i] = v[i];
            b[i] = v[i];
        } else {
            let r: f64 = rng.gen_range(-1.0..1.0);
            a[i] = v[i] / 2.0 + r;
            b[i] = v[i] / 2.0 - r;
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dot_known_values() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "unequal lengths")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm_of_unit_vectors() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(norm(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn add_sub_scale() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[3.0, 4.0], &[1.0, 2.0]), vec![2.0, 2.0]);
        assert_eq!(scale(&[1.0, -2.0], 3.0), vec![3.0, -6.0]);
    }

    #[test]
    fn split_preserves_sum_on_random_positions() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let bits = vec![false, true, false, true];
        let (a, b) = split_vector(&v, &bits, &mut rng);
        // Where the bit is false, shares sum to the original; where true, both equal it.
        assert!((a[0] + b[0] - 1.0).abs() < 1e-12);
        assert_eq!(a[1], 2.0);
        assert_eq!(b[1], 2.0);
        assert!((a[2] + b[2] - 3.0).abs() < 1e-12);
        assert_eq!(a[3], 4.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_split_inner_product_is_preserved(seed in 0u64..u64::MAX) {
            // The secure kNN core identity: if the *query* is split on complementary bits,
            // dot(p', q') + dot(p'', q'') == dot(p, q) when p is copied on split positions.
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 16;
            let p: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let q: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            // Index vector p: on bit=true positions both shares copy p; on bit=false they sum to p.
            let (p1, p2) = split_vector(&p, &bits, &mut rng);
            // Query vector q: complementary — on bit=true positions shares sum to q, else copy.
            let inv_bits: Vec<bool> = bits.iter().map(|b| !b).collect();
            let (q1, q2) = split_vector(&q, &inv_bits, &mut rng);
            // Each position contributes p_i·q_i regardless of which side carries the split,
            // so the combined share product equals the plain inner product.
            let combined = dot(&p1, &q1) + dot(&p2, &q2);
            prop_assert!((combined - dot(&p, &q)).abs() < 1e-9, "combined {} vs {}", combined, dot(&p, &q));
        }
    }
}
