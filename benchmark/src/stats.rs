//! Order statistics for latency samples and for sets of runs.

/// Nearest-rank percentile of a **sorted** slice: the first sample such that
/// at least `p` percent of the samples come no later. `p` in `(0, 100]`.
/// Empty input reads 0 so an absent phase prints rather than panics.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of run values (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartile cut points as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method) — the spread the driver computes. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median — the quantity the
/// benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Differences of adjacent ladder rungs (nanoseconds, bottom rung first).
/// Kept in integers so they telescope exactly: their sum is `last − first`.
pub fn ladder_deltas(rungs_ns: &[u64]) -> Vec<i64> {
    rungs_ns
        .windows(2)
        .map(|w| w[1] as i64 - w[0] as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        assert_eq!(percentile::<u64>(&[], 50.0), 0);
        // n = 1: every percentile is the one sample.
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[7], 100.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 90.0), 90);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        // Even count: nearest rank takes the lower middle.
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        // Ties.
        assert_eq!(percentile(&[5, 5, 5, 5, 9], 50.0), 5);
        assert_eq!(percentile(&[5, 5, 5, 5, 9], 80.0), 5);
        assert_eq!(percentile(&[5, 5, 5, 5, 9], 81.0), 9);
        // The quiet decile of 40 slices is the 4th from the fast end, whichever
        // way "fast" sorts.
        let slices: Vec<u64> = (1..=40).collect();
        assert_eq!(percentile(&slices, 10.0), 4);
        let rates: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&rates, 10.0), 37.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ladder_deltas_telescope_exactly() {
        let rungs = [
            148_203, 151_017, 153_940, 160_002, 171_555, 172_001, 1_100_733, 5_021_377,
        ];
        let deltas = ladder_deltas(&rungs);
        assert_eq!(deltas.len(), 7);
        assert_eq!(deltas.iter().sum::<i64>(), (rungs[7] - rungs[0]) as i64);
        // A rung faster than the one below it yields a negative delta, and the
        // sum still telescopes.
        let bumpy = [10, 8, 15];
        assert_eq!(ladder_deltas(&bumpy), vec![-2, 7]);
        assert_eq!(ladder_deltas(&bumpy).iter().sum::<i64>(), 5);
    }
}
