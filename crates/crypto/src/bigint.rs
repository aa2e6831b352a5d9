//! Arbitrary-precision unsigned integers.
//!
//! This is the arithmetic substrate for the RSA operations of §4.4 (blind decryption of
//! per-document keys) and §7 (signatures). It provides exactly what RSA needs — comparison,
//! addition/subtraction, schoolbook multiplication, binary long division, modular
//! exponentiation through Montgomery multiplication, and modular inverses through the extended
//! Euclidean algorithm — with `u32` limbs and `u64` intermediates so it is portable and easy to
//! audit.

use rand::Rng;
use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer (little-endian `u32` limbs, always normalized:
/// no trailing zero limbs; zero is the empty limb vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut n = BigUint {
            limbs: vec![v as u32, (v >> 32) as u32],
        };
        n.normalize();
        n
    }

    /// Construct from big-endian bytes (as produced by hash functions and key material).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(4));
        let mut chunk_start = bytes.len();
        while chunk_start > 0 {
            let start = chunk_start.saturating_sub(4);
            let mut limb = 0u32;
            for &b in &bytes[start..chunk_start] {
                limb = (limb << 8) | b as u32;
            }
            limbs.push(limb);
            chunk_start = start;
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes with no leading zeros (empty vector for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most significant limb.
                let mut skipping = true;
                for b in bytes {
                    if skipping && b == 0 {
                        continue;
                    }
                    skipping = false;
                    out.push(b);
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialize to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// Panics if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Lossy conversion to `u64` (returns `None` if the value does not fit).
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | ((self.limbs[1] as u64) << 32)),
            _ => None,
        }
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (0 is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// The `i`-th bit (bit 0 is the least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 32)) & 1 == 1
    }

    /// Set the `i`-th bit to 1.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 32;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 32);
    }

    fn normalize(&mut self) {
        while let Some(&0) = self.limbs.last() {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let sum = limb as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`. Panics in debug builds if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        debug_assert!(self >= other, "BigUint::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let diff =
                self.limbs[i] as i64 - other.limbs.get(i).copied().unwrap_or(0) as i64 - borrow;
            if diff < 0 {
                out.push((diff + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(diff as u32);
                borrow = 0;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook multiplication).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = cur as u32;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u64 + carry;
                out[k] = cur as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift left by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            let mut n = self.clone();
            n.normalize();
            return n;
        }
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Shift right by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (32 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Divide by a single `u32`, returning quotient and remainder. Panics if `d == 0`.
    pub fn div_rem_u32(&self, d: u32) -> (BigUint, u32) {
        assert!(d != 0, "division by zero");
        let mut quotient = vec![0u32; self.limbs.len()];
        let mut rem = 0u64;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | self.limbs[i] as u64;
            quotient[i] = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        let mut q = BigUint { limbs: quotient };
        q.normalize();
        (q, rem as u32)
    }

    /// Divide `self` by `divisor`, returning `(quotient, remainder)`.
    ///
    /// Binary long division: O(bits × limbs). RSA only divides in key generation and in
    /// out-of-Montgomery reductions, so clarity wins over a Knuth-D implementation.
    fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u32(divisor.limbs[0]);
            return (q, BigUint::from_u64(r as u64));
        }
        let mut quotient = BigUint::zero();
        let mut remainder = BigUint::zero();
        for i in (0..self.bit_len()).rev() {
            remainder = remainder.shl(1);
            if self.bit(i) {
                if remainder.limbs.is_empty() {
                    remainder.limbs.push(1);
                } else {
                    remainder.limbs[0] |= 1;
                }
            }
            if &remainder >= divisor {
                remainder = remainder.sub(divisor);
                quotient.set_bit(i);
            }
        }
        quotient.normalize();
        remainder.normalize();
        (quotient, remainder)
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `(self * other) mod modulus` without Montgomery (used for even moduli and setup).
    pub fn mulmod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// `self^exponent mod modulus`.
    ///
    /// Uses Montgomery multiplication for odd moduli (the RSA case) and falls back to plain
    /// square-and-multiply with division for even moduli.
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modulus must be non-zero");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if exponent.is_zero() {
            return BigUint::one();
        }
        if !modulus.is_even() {
            let ctx = MontgomeryCtx::new(modulus);
            return ctx.modpow(self, exponent);
        }
        // Fallback for even moduli.
        let mut base = self.rem(modulus);
        let mut result = BigUint::one();
        for i in 0..exponent.bit_len() {
            if exponent.bit(i) {
                result = result.mulmod(&base, modulus);
            }
            base = base.mulmod(&base, modulus);
        }
        result
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: returns `x` with `self * x ≡ 1 (mod modulus)`, or `None` if
    /// `gcd(self, modulus) != 1`.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || self.is_zero() {
            return None;
        }
        // Extended Euclid with signed coefficients tracked as (sign, magnitude).
        let mut r_prev = modulus.clone();
        let mut r = self.rem(modulus);
        if r.is_zero() {
            return None;
        }
        // t coefficients: t_prev = 0, t = 1.
        let mut t_prev = (false, BigUint::zero()); // (negative?, magnitude)
        let mut t = (false, BigUint::one());
        while !r.is_zero() {
            let (q, rem) = r_prev.div_rem(&r);
            // t_next = t_prev - q * t
            let qt = q.mul(&t.1);
            let t_next = signed_sub(&t_prev, &(t.0, qt));
            r_prev = r;
            r = rem;
            t_prev = t;
            t = t_next;
        }
        if !r_prev.is_one() {
            return None;
        }
        // t_prev is the inverse; reduce into [0, modulus).
        let mag = t_prev.1.rem(modulus);
        if t_prev.0 && !mag.is_zero() {
            Some(modulus.sub(&mag))
        } else {
            Some(mag)
        }
    }

    /// Sample a uniformly random value with exactly `bits` bits (the top bit is forced to 1).
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0);
        let limbs_needed = bits.div_ceil(32);
        let mut limbs = Vec::with_capacity(limbs_needed);
        for _ in 0..limbs_needed {
            limbs.push(rng.gen::<u32>());
        }
        // Mask off excess bits and force the top bit.
        let top_bits = bits - (limbs_needed - 1) * 32;
        let mask: u32 = if top_bits == 32 {
            u32::MAX
        } else {
            (1u32 << top_bits) - 1
        };
        let last = limbs_needed - 1;
        limbs[last] &= mask;
        limbs[last] |= 1 << (top_bits - 1);
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Sample a uniformly random value in `[1, bound)`. Panics if `bound <= 1`.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(bound > &BigUint::one(), "bound must exceed 1");
        let bits = bound.bit_len();
        loop {
            let limbs_needed = bits.div_ceil(32);
            let mut limbs = Vec::with_capacity(limbs_needed);
            for _ in 0..limbs_needed {
                limbs.push(rng.gen::<u32>());
            }
            let top_bits = bits - (limbs_needed - 1) * 32;
            let mask: u32 = if top_bits == 32 {
                u32::MAX
            } else {
                (1u32 << top_bits) - 1
            };
            let last = limbs_needed - 1;
            limbs[last] &= mask;
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if !candidate.is_zero() && &candidate < bound {
                return candidate;
            }
        }
    }
}

/// `a - b` on signed-magnitude pairs `(negative?, magnitude)`.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b where both non-negative.
        (false, false) => {
            if a.1 >= b.1 {
                (false, a.1.sub(&b.1))
            } else {
                (true, b.1.sub(&a.1))
            }
        }
        // a - (-b) = a + b
        (false, true) => (false, a.1.add(&b.1)),
        // (-a) - b = -(a + b)
        (true, false) => (true, a.1.add(&b.1)),
        // (-a) - (-b) = b - a
        (true, true) => {
            if b.1 >= a.1 {
                (false, b.1.sub(&a.1))
            } else {
                (true, a.1.sub(&b.1))
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x{self:x})")
    }
}

impl std::fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:08x}")?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Decimal conversion through repeated division by 10^9.
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut n = self.clone();
        while !n.is_zero() {
            let (q, r) = n.div_rem_u32(1_000_000_000);
            digits.push(r);
            n = q;
        }
        write!(f, "{}", digits.last().unwrap())?;
        for d in digits.iter().rev().skip(1) {
            write!(f, "{d:09}")?;
        }
        Ok(())
    }
}

/// Montgomery-multiplication context for a fixed odd modulus.
pub struct MontgomeryCtx {
    n: Vec<u32>,
    n_limbs: usize,
    n0_inv: u32,
    r2: BigUint,
    modulus: BigUint,
}

impl MontgomeryCtx {
    /// Build a context for an odd modulus.
    pub fn new(modulus: &BigUint) -> Self {
        assert!(!modulus.is_even(), "Montgomery requires an odd modulus");
        assert!(!modulus.is_zero());
        let n_limbs = modulus.limbs.len();
        // n0_inv = -(n[0]^-1) mod 2^32 via Newton iteration.
        let n0 = modulus.limbs[0];
        let mut inv: u32 = 1;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // R^2 mod n where R = 2^(32*n_limbs).
        let r2 = BigUint::one().shl(64 * n_limbs).rem(modulus);
        MontgomeryCtx {
            n: modulus.limbs.clone(),
            n_limbs,
            n0_inv,
            r2,
            modulus: modulus.clone(),
        }
    }

    fn to_limbs(&self, v: &BigUint) -> Vec<u32> {
        let mut limbs = v.limbs.clone();
        limbs.resize(self.n_limbs, 0);
        limbs
    }

    fn limbs_into_biguint(&self, mut limbs: Vec<u32>) -> BigUint {
        let mut n = BigUint {
            limbs: std::mem::take(&mut limbs),
        };
        n.normalize();
        n
    }

    /// CIOS Montgomery multiplication: returns `a * b * R^-1 mod n` on limb vectors of
    /// length `n_limbs`.
    fn mont_mul(&self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let k = self.n_limbs;
        let mut t = vec![0u64; k + 2];
        for &ai in a.iter().take(k) {
            // t += ai * b
            let mut carry = 0u64;
            for j in 0..k {
                let cur = t[j] + ai as u64 * b[j] as u64 + carry;
                t[j] = cur & 0xffff_ffff;
                carry = cur >> 32;
            }
            let cur = t[k] + carry;
            t[k] = cur & 0xffff_ffff;
            t[k + 1] += cur >> 32;

            // m = t[0] * n0_inv mod 2^32
            let m = (t[0] as u32).wrapping_mul(self.n0_inv) as u64;
            // t += m * n; then shift right one limb.
            let cur = t[0] + m * self.n[0] as u64;
            let mut carry = cur >> 32;
            for j in 1..k {
                let cur = t[j] + m * self.n[j] as u64 + carry;
                t[j - 1] = cur & 0xffff_ffff;
                carry = cur >> 32;
            }
            let cur = t[k] + carry;
            t[k - 1] = cur & 0xffff_ffff;
            t[k] = t[k + 1] + (cur >> 32);
            t[k + 1] = 0;
        }
        let mut result: Vec<u32> = t[..k].iter().map(|&x| x as u32).collect();
        let overflow = t[k] != 0;
        // Final conditional subtraction.
        if overflow || !less_than(&result, &self.n) {
            sub_in_place(&mut result, &self.n);
        }
        result
    }

    /// Convert into the Montgomery domain.
    fn to_mont(&self, v: &BigUint) -> Vec<u32> {
        let reduced = v.rem(&self.modulus);
        self.mont_mul(&self.to_limbs(&reduced), &self.to_limbs(&self.r2))
    }

    /// Convert out of the Montgomery domain.
    fn mont_into_biguint(&self, v: &[u32]) -> BigUint {
        let one = {
            let mut l = vec![0u32; self.n_limbs];
            l[0] = 1;
            l
        };
        self.limbs_into_biguint(self.mont_mul(v, &one))
    }

    /// `base^exponent mod n` using left-to-right square-and-multiply in the Montgomery domain.
    pub fn modpow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one().rem(&self.modulus);
        }
        let base_m = self.to_mont(base);
        let mut acc = self.to_mont(&BigUint::one());
        for i in (0..exponent.bit_len()).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exponent.bit(i) {
                acc = self.mont_mul(&acc, &base_m);
            }
        }
        self.mont_into_biguint(&acc)
    }
}

/// `a < b` for equal-length limb slices.
fn less_than(a: &[u32], b: &[u32]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// `a -= b` (mod 2^(32·len)) for equal-length limb slices.
///
/// A final borrow is allowed: in the Montgomery reduction the minuend may carry an implicit
/// extra top limb (the CIOS overflow word), which the borrow cancels.
fn sub_in_place(a: &mut [u32], b: &[u32]) {
    let mut borrow = 0i64;
    for i in 0..a.len() {
        let diff = a[i] as i64 - b[i] as i64 - borrow;
        if diff < 0 {
            a[i] = (diff + (1i64 << 32)) as u32;
            borrow = 1;
        } else {
            a[i] = diff as u32;
            borrow = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn construction_and_conversion() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(big(0).to_u64(), Some(0));
        assert_eq!(big(12345).to_u64(), Some(12345));
        assert_eq!(big(u64::MAX).to_u64(), Some(u64::MAX));
        assert_eq!(BigUint::from_bytes_be(&[]).to_u64(), Some(0));
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 1, 0]).to_u64(), Some(256));
    }

    #[test]
    fn byte_round_trip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(
            n.to_bytes_be(),
            vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]
        );
        assert_eq!(n.to_bytes_be_padded(12)[..3], [0, 0, 0]);
    }

    #[test]
    fn bit_operations() {
        let n = big(0b1011_0010);
        assert_eq!(n.bit_len(), 8);
        assert!(n.bit(1));
        assert!(!n.bit(0));
        assert!(n.bit(7));
        assert!(!n.bit(100));
        let mut m = BigUint::zero();
        m.set_bit(100);
        assert_eq!(m.bit_len(), 101);
        assert!(m.bit(100));
    }

    #[test]
    fn addition_and_subtraction() {
        let a = big(u64::MAX);
        let b = big(1);
        let sum = a.add(&b);
        assert_eq!(sum.bit_len(), 65);
        assert_eq!(sum.sub(&b), a);
        assert_eq!(big(1000).sub(&big(999)).to_u64(), Some(1));
        assert_eq!(big(5).sub(&big(5)), BigUint::zero());
    }

    #[test]
    fn multiplication_small_cases() {
        assert_eq!(big(0).mul(&big(12345)), BigUint::zero());
        assert_eq!(big(7).mul(&big(6)).to_u64(), Some(42));
        assert_eq!(
            big(u32::MAX as u64).mul(&big(u32::MAX as u64)).to_u64(),
            Some((u32::MAX as u64) * (u32::MAX as u64))
        );
        assert_eq!(big(123456789).mul(&big(1000)).to_u64(), Some(123456789000));
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl(70).bit_len(), 71);
        assert_eq!(big(1).shl(70).shr(70).to_u64(), Some(1));
        assert_eq!(big(0b1010).shr(1).to_u64(), Some(0b101));
        assert_eq!(big(12345).shl(0).to_u64(), Some(12345));
        assert_eq!(big(12345).shr(64), BigUint::zero());
    }

    #[test]
    fn division_small_cases() {
        let (q, r) = big(100).div_rem(&big(7));
        assert_eq!(q.to_u64(), Some(14));
        assert_eq!(r.to_u64(), Some(2));
        let (q, r) = big(5).div_rem(&big(100));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r.to_u64(), Some(5));
        let (q, r) = big(u64::MAX).div_rem_u32(3);
        assert_eq!(q.to_u64(), Some(u64::MAX / 3));
        assert_eq!(r, (u64::MAX % 3) as u32);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = big(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn modpow_small_known_values() {
        // 4^13 mod 497 = 445 (classic textbook example).
        assert_eq!(big(4).modpow(&big(13), &big(497)).to_u64(), Some(445));
        // Fermat: a^(p-1) mod p = 1 for prime p not dividing a.
        assert_eq!(big(2).modpow(&big(1008), &big(1009)).to_u64(), Some(1));
        // Even modulus fallback path.
        assert_eq!(big(3).modpow(&big(5), &big(16)).to_u64(), Some(243 % 16));
        // Exponent zero.
        assert_eq!(big(7).modpow(&BigUint::zero(), &big(13)).to_u64(), Some(1));
        // Modulus one.
        assert_eq!(big(7).modpow(&big(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn modpow_large_operands() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = BigUint::random_bits(&mut rng, 256);
        let m = if m.is_even() {
            m.add(&BigUint::one())
        } else {
            m
        };
        let a = BigUint::random_bits(&mut rng, 200);
        // a^1 = a mod m
        assert_eq!(a.modpow(&BigUint::one(), &m), a.rem(&m));
        // (a^2)^3 == a^6
        let a2 = a.modpow(&big(2), &m);
        assert_eq!(a2.modpow(&big(3), &m), a.modpow(&big(6), &m));
    }

    #[test]
    fn gcd_and_modinv() {
        assert_eq!(big(54).gcd(&big(24)).to_u64(), Some(6));
        assert_eq!(big(17).gcd(&big(31)).to_u64(), Some(1));
        let inv = big(3).modinv(&big(11)).unwrap();
        assert_eq!(inv.to_u64(), Some(4)); // 3*4 = 12 ≡ 1 mod 11
        let inv = big(65537).modinv(&big(1_000_000_007)).unwrap();
        assert_eq!(
            big(65537).mul(&inv).rem(&big(1_000_000_007)).to_u64(),
            Some(1)
        );
        // Not invertible.
        assert!(big(6).modinv(&big(9)).is_none());
        assert!(BigUint::zero().modinv(&big(7)).is_none());
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = StdRng::seed_from_u64(42);
        for bits in [1usize, 7, 32, 33, 64, 100, 512] {
            let n = BigUint::random_bits(&mut rng, bits);
            assert_eq!(n.bit_len(), bits, "bits {bits}");
        }
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = StdRng::seed_from_u64(43);
        let bound = big(1000);
        for _ in 0..100 {
            let n = BigUint::random_below(&mut rng, &bound);
            assert!(!n.is_zero() && n < bound);
        }
    }

    #[test]
    fn display_decimal_and_hex() {
        assert_eq!(format!("{}", BigUint::zero()), "0");
        assert_eq!(
            format!("{}", big(1234567890123456789)),
            "1234567890123456789"
        );
        assert_eq!(format!("{:x}", big(0xdeadbeef)), "deadbeef");
        let big_num = big(10).modpow(&big(0), &big(7)); // 1
        assert_eq!(format!("{big_num}"), "1");
        // A number spanning several limbs: 2^96.
        let n = BigUint::one().shl(96);
        assert_eq!(format!("{n}"), "79228162514264337593543950336");
    }

    #[test]
    fn montgomery_matches_naive_modmul() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let m = {
                let n = BigUint::random_bits(&mut rng, 128);
                if n.is_even() {
                    n.add(&BigUint::one())
                } else {
                    n
                }
            };
            let a = BigUint::random_bits(&mut rng, 120);
            let e = BigUint::random_bits(&mut rng, 40);
            let naive = {
                // plain square-and-multiply with division
                let mut base = a.rem(&m);
                let mut result = BigUint::one();
                for i in 0..e.bit_len() {
                    if e.bit(i) {
                        result = result.mulmod(&base, &m);
                    }
                    base = base.mulmod(&base, &m);
                }
                result
            };
            assert_eq!(a.modpow(&e, &m), naive);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_add_sub_round_trip(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let x = big(a);
            let y = big(b);
            prop_assert_eq!(x.add(&y).sub(&y), x);
        }

        #[test]
        fn prop_mul_matches_u128(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let expected = a as u128 * b as u128;
            let got = big(a).mul(&big(b));
            let hi = (expected >> 64) as u64;
            let lo = expected as u64;
            let expected_big = big(hi).shl(64).add(&big(lo));
            prop_assert_eq!(got, expected_big);
        }

        #[test]
        fn prop_div_rem_reconstructs(a in 0u64..u64::MAX, d in 1u64..u64::MAX) {
            let (q, r) = big(a).div_rem(&big(d));
            prop_assert_eq!(q.to_u64().unwrap(), a / d);
            prop_assert_eq!(r.to_u64().unwrap(), a % d);
        }

        #[test]
        fn prop_div_rem_identity_large(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = BigUint::random_bits(&mut rng, 300);
            let d = BigUint::random_bits(&mut rng, 150);
            let (q, r) = a.div_rem(&d);
            prop_assert!(r < d);
            prop_assert_eq!(q.mul(&d).add(&r), a);
        }

        #[test]
        fn prop_modinv_is_inverse(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            // A random odd modulus and a random element; retry until coprime.
            let m = {
                let n = BigUint::random_bits(&mut rng, 96);
                if n.is_even() { n.add(&BigUint::one()) } else { n }
            };
            let a = BigUint::random_bits(&mut rng, 80);
            if a.gcd(&m).is_one() {
                let inv = a.modinv(&m).unwrap();
                prop_assert_eq!(a.mul(&inv).rem(&m), BigUint::one());
            }
        }

        #[test]
        fn prop_shl_shr_round_trip(v in 0u64..u64::MAX, s in 0usize..200) {
            let n = big(v);
            prop_assert_eq!(n.shl(s).shr(s), n);
        }

        #[test]
        fn prop_bytes_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let n = BigUint::from_bytes_be(&bytes);
            let round = BigUint::from_bytes_be(&n.to_bytes_be());
            prop_assert_eq!(n, round);
        }
    }
}
