//! Computation-cost accounting (Table 2).
//!
//! Each actor owns an [`OperationCounters`] and bumps the relevant counter whenever it
//! performs one of the operations Table 2 tracks: hash/PRF evaluations, bitwise products,
//! modular multiplications and exponentiations, symmetric encryptions/decryptions, and the
//! server's r-bit binary comparisons.

use serde::{Deserialize, Serialize};

/// Operation counts for one party during one protocol run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperationCounters {
    /// Hash / PRF evaluations (keyword-index computations).
    pub hashes: u64,
    /// Bitwise products of r-bit indices.
    pub bitwise_products: u64,
    /// Modular exponentiations (RSA encrypt/decrypt/sign/verify/blind).
    pub modular_exponentiations: u64,
    /// Modular multiplications (blinding / unblinding).
    pub modular_multiplications: u64,
    /// Symmetric-key encryptions (whole documents).
    pub symmetric_encryptions: u64,
    /// Symmetric-key decryptions (whole documents).
    pub symmetric_decryptions: u64,
    /// r-bit binary comparisons **actually performed** (the server's only work).
    /// With the result cache enabled this is the post-cache count; the logical
    /// Table 2 total is `binary_comparisons + comparisons_saved_by_cache`.
    pub binary_comparisons: u64,
    /// r-bit comparisons the server's result cache made unnecessary.
    pub comparisons_saved_by_cache: u64,
    /// Search replies served entirely from the result cache (no shard scanned).
    pub cache_served_replies: u64,
    /// Envelope requests answered through [`crate::Service::call`] (any kind,
    /// including ones that end in an error reply). The service-level request
    /// rate, next to the per-operation Table 2 rows above.
    ///
    /// For [`crate::CloudServer`] and `mkse-net`'s fleet `Coordinator` alike
    /// this is a **mirror of the telemetry registry** (`requests_served`
    /// counter, tallied at every level including `Off`) minus the baseline
    /// captured at the last reset: the registry is the single source of
    /// served-request accounting, so Table 2 totals and the wire-frame counts
    /// of Table 1 cannot drift apart.
    pub requests_served: u64,
}

impl OperationCounters {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset every counter to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Element-wise sum with another counter set.
    pub fn combined(&self, other: &OperationCounters) -> OperationCounters {
        OperationCounters {
            hashes: self.hashes + other.hashes,
            bitwise_products: self.bitwise_products + other.bitwise_products,
            modular_exponentiations: self.modular_exponentiations + other.modular_exponentiations,
            modular_multiplications: self.modular_multiplications + other.modular_multiplications,
            symmetric_encryptions: self.symmetric_encryptions + other.symmetric_encryptions,
            symmetric_decryptions: self.symmetric_decryptions + other.symmetric_decryptions,
            binary_comparisons: self.binary_comparisons + other.binary_comparisons,
            comparisons_saved_by_cache: self.comparisons_saved_by_cache
                + other.comparisons_saved_by_cache,
            cache_served_replies: self.cache_served_replies + other.cache_served_replies,
            requests_served: self.requests_served + other.requests_served,
        }
    }

    /// Total number of "expensive" public-key operations (the quantity that dominates user
    /// latency in Table 2's analysis).
    pub fn public_key_operations(&self) -> u64 {
        self.modular_exponentiations + self.modular_multiplications
    }

    /// Render as one row per non-zero counter (used by the experiment binaries).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let rows = [
            ("hash / PRF evaluations", self.hashes),
            ("bitwise products", self.bitwise_products),
            ("modular exponentiations", self.modular_exponentiations),
            ("modular multiplications", self.modular_multiplications),
            ("symmetric encryptions", self.symmetric_encryptions),
            ("symmetric decryptions", self.symmetric_decryptions),
            ("binary comparisons (r-bit)", self.binary_comparisons),
            (
                "comparisons saved by cache",
                self.comparisons_saved_by_cache,
            ),
            ("replies served from cache", self.cache_served_replies),
            ("envelope requests served", self.requests_served),
        ];
        for (label, value) in rows {
            if value > 0 {
                out.push_str(&format!("  {label:<28} {value}\n"));
            }
        }
        if out.is_empty() {
            out.push_str("  (no operations recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_reset() {
        let mut c = OperationCounters::new();
        assert_eq!(c, OperationCounters::default());
        c.hashes = 5;
        c.binary_comparisons = 100;
        c.reset();
        assert_eq!(c, OperationCounters::default());
    }

    #[test]
    fn combined_sums_elementwise() {
        let a = OperationCounters {
            hashes: 1,
            bitwise_products: 2,
            modular_exponentiations: 3,
            modular_multiplications: 4,
            symmetric_encryptions: 5,
            symmetric_decryptions: 6,
            binary_comparisons: 7,
            comparisons_saved_by_cache: 8,
            cache_served_replies: 9,
            requests_served: 10,
        };
        let b = OperationCounters {
            hashes: 10,
            ..Default::default()
        };
        let c = a.combined(&b);
        assert_eq!(c.hashes, 11);
        assert_eq!(c.binary_comparisons, 7);
        assert_eq!(c.comparisons_saved_by_cache, 8);
        assert_eq!(c.cache_served_replies, 9);
        assert_eq!(c.requests_served, 10);
        assert_eq!(c.public_key_operations(), 7);
    }

    #[test]
    fn render_lists_nonzero_rows_only() {
        let c = OperationCounters {
            hashes: 3,
            ..Default::default()
        };
        let rendered = c.render();
        assert!(rendered.contains("hash / PRF evaluations"));
        assert!(!rendered.contains("modular"));
        let empty = OperationCounters::new().render();
        assert!(empty.contains("no operations"));
    }
}
