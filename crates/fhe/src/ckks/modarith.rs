//! 64-bit modular arithmetic primitives for the RNS-CKKS backend.
//!
//! All CKKS polynomial arithmetic happens modulo word-sized NTT-friendly
//! primes `q ≡ 1 (mod 2N)`. This module provides the scalar operations
//! (add/sub/mul/pow/inv mod q), deterministic 64-bit Miller–Rabin, and the
//! prime/root search used when instantiating a parameter set.

/// Adds two residues modulo `q`. Inputs must be `< q`.
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    reduce_once(a + b, q) // q < 2^63 in all parameter sets, so this cannot overflow
}

/// Reduces `v < 2q` into `[0, q)` with one conditional subtract: `v − q`
/// when `v ≥ q`, `v` otherwise, selected by the sign of `v − q` so that
/// a row of ciphertext data costs no mispredicted branch. Needs
/// `q ≤ 2^63` (every parameter set). A `bits_for(q)`-bit wire value is
/// below `2q`, so this equals `v % q` for every value the wire can carry.
#[inline]
pub(crate) fn reduce_once(v: u64, q: u64) -> u64 {
    // `v < q` wraps `d` to `2^64 − (q − v)`, whose top bit is set since
    // `q − v ≤ 2^63`; `v ≥ q` leaves `d = v − q < q`, top bit clear.
    let d = v.wrapping_sub(q);
    d.wrapping_add(q & ((d as i64 >> 63) as u64))
}

/// Subtracts `b` from `a` modulo `q`. Inputs must be `< q`.
#[inline]
pub(crate) fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a + q - b
    }
}

/// Multiplies two residues modulo `q` via a 128-bit intermediate.
#[inline]
pub(crate) fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    (u128::from(a) * u128::from(b) % u128::from(q)) as u64
}

/// Negates a residue modulo `q`.
#[inline]
pub(crate) fn neg_mod(a: u64, q: u64) -> u64 {
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Reduces a signed value into `[0, q)`: `c` itself when `0 ≤ c < q`,
/// `q − |c|` when `−q < c < 0` — every noise, key and encoded-message
/// coefficient the schemes produce, selected by a sign mask so that a
/// row of mixed signs costs no mispredicted branch — and the Euclidean
/// remainder otherwise. Equal to `((c % q) + q) % q` for every `(c, q)`
/// with `q < 2^63`.
#[inline]
pub(crate) fn signed_residue(c: i64, q: u64) -> u64 {
    if c.unsigned_abs() < q {
        // `c as u64` is `2^64 − |c|` for a negative `c`; adding `q` wraps
        // it to `q − |c|`.
        (c as u64).wrapping_add(q & ((c >> 63) as u64))
    } else {
        c.rem_euclid(q as i64) as u64
    }
}

/// Computes `base^exp mod q` by square-and-multiply.
pub(crate) fn pow_mod(mut base: u64, mut exp: u64, q: u64) -> u64 {
    base %= q;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Computes the inverse of `a` modulo prime `q` via Fermat's little theorem.
///
/// # Panics
///
/// Panics if `a` is zero (no inverse exists).
pub(crate) fn inv_mod(a: u64, q: u64) -> u64 {
    assert!(!a.is_multiple_of(q), "zero has no modular inverse");
    pow_mod(a, q - 2, q)
}

/// Deterministic Miller–Rabin primality test, valid for all `u64`.
///
/// Uses the fixed witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37},
/// which is known to be sufficient for every 64-bit integer.
pub(crate) fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Finds `count` distinct primes of exactly `bits` bits with `q ≡ 1 (mod m)`.
///
/// Searches downward from `2^bits - 1` in steps of `m`, so the returned
/// primes are the largest NTT-friendly primes of the requested size. The
/// primes are returned largest-first.
///
/// # Panics
///
/// Panics if `bits` is not in `[20, 62]`, if `m` is not a power of two, or
/// if fewer than `count` suitable primes exist in the size class (does not
/// happen for the parameter sets in this crate).
pub fn find_ntt_primes(bits: u32, count: usize, m: u64) -> Vec<u64> {
    assert!((20..=62).contains(&bits), "prime size {bits} out of range");
    assert!(m.is_power_of_two(), "NTT modulus group order must be a power of two");
    let hi = if bits == 63 { u64::MAX } else { (1u64 << bits) - 1 };
    let lo = 1u64 << (bits - 1);
    // Largest candidate ≡ 1 (mod m) that is ≤ hi.
    let mut candidate = hi - ((hi - 1) % m);
    let mut out = Vec::with_capacity(count);
    while out.len() < count && candidate > lo {
        if is_prime_u64(candidate) {
            out.push(candidate);
        }
        candidate -= m;
    }
    assert!(out.len() == count, "could not find {count} NTT primes of {bits} bits (mod {m})");
    out
}

/// Finds a primitive `order`-th root of unity modulo prime `q`.
///
/// # Panics
///
/// Panics if `order` does not divide `q - 1`.
pub(crate) fn primitive_root(order: u64, q: u64) -> u64 {
    assert_eq!((q - 1) % order, 0, "order must divide q - 1");
    let cofactor = (q - 1) / order;
    // Try small candidate generators; g^cofactor has order dividing `order`,
    // and has order exactly `order` iff (g^cofactor)^(order/2) != 1.
    for g in 2u64.. {
        let root = pow_mod(g, cofactor, q);
        if root != 1 && pow_mod(root, order / 2, q) == q - 1 {
            return root;
        }
        if g > 1000 {
            unreachable!("no primitive root found — q is not prime?");
        }
    }
    unreachable!()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::params::CkksParams;
    use proptest::prelude::*;

    /// The expression `signed_residue` replaced: two 64-bit divisions.
    fn double_rem(c: i64, q: u64) -> u64 {
        ((c % q as i64 + q as i64) % q as i64) as u64
    }

    /// Every prime the Table III CKKS sets (and the toy set) materialize.
    pub(crate) fn table3_primes() -> Vec<u64> {
        let sets = [
            CkksParams::ckks1(),
            CkksParams::ckks2(),
            CkksParams::ckks3(),
            CkksParams::ckks4(),
            CkksParams::toy(),
        ];
        let mut primes = Vec::new();
        for p in sets {
            let mut sizes = p.prime_bits.clone();
            sizes.sort_unstable();
            sizes.dedup();
            for bits in sizes {
                let count = p.prime_bits.iter().filter(|&&b| b == bits).count();
                primes.extend(find_ntt_primes(bits, count, 2 * p.n as u64));
            }
        }
        primes
    }

    #[test]
    fn signed_residue_matches_double_rem_at_the_edges() {
        for q in table3_primes() {
            let qi = q as i64;
            for c in [0, 1, -1, qi - 1, 1 - qi, qi, -qi, qi + 1, -qi - 1, i64::MIN, i64::MAX] {
                assert_eq!(signed_residue(c, q), double_rem(c, q), "c = {c}, q = {q}");
                assert!(signed_residue(c, q) < q);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn signed_residue_matches_double_rem(
            c in any::<i64>(),
            small in -64i64..=64,
            pick in any::<prop::sample::Index>(),
        ) {
            let primes = table3_primes();
            let q = primes[pick.index(primes.len())];
            prop_assert_eq!(signed_residue(c, q), double_rem(c, q));
            // Near multiples of q, where the two arms meet.
            let near = (c / q as i64).saturating_mul(q as i64).saturating_add(small);
            prop_assert_eq!(signed_residue(near, q), double_rem(near, q));
            prop_assert_eq!(signed_residue(small, q), double_rem(small, q));
        }
    }

    /// The body `add_mod` had before it became `reduce_once(a + b, q)`.
    fn branchy_add(a: u64, b: u64, q: u64) -> u64 {
        let s = a + b;
        if s >= q {
            s - q
        } else {
            s
        }
    }

    #[test]
    fn reduce_once_matches_rem_at_the_edges() {
        for q in table3_primes() {
            let bits = crate::bitpack::bits_for(q);
            let top = u64::MAX >> (64 - bits);
            for v in [0, 1, q - 1, q, q + 1, top - 1, top] {
                assert_eq!(reduce_once(v, q), v % q, "v = {v}, q = {q}");
            }
            for (a, b) in [(0, 0), (q - 1, 1), (q - 1, q - 1)] {
                assert_eq!(add_mod(a, b, q), branchy_add(a, b, q), "a = {a}, b = {b}, q = {q}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn reduce_once_matches_rem_over_every_wire_value(
            raw in any::<u64>(),
            a in any::<u64>(),
            b in any::<u64>(),
            pick in any::<prop::sample::Index>(),
        ) {
            let primes = table3_primes();
            let q = primes[pick.index(primes.len())];
            let v = raw >> (64 - crate::bitpack::bits_for(q));
            prop_assert_eq!(reduce_once(v, q), v % q);
            let (a, b) = (a % q, b % q);
            prop_assert_eq!(add_mod(a, b, q), branchy_add(a, b, q));
        }
    }

    #[test]
    fn add_sub_mod_wrap() {
        let q = 17u64;
        assert_eq!(add_mod(16, 5, q), 4);
        assert_eq!(sub_mod(3, 5, q), 15);
        assert_eq!(neg_mod(0, q), 0);
        assert_eq!(neg_mod(5, q), 12);
    }

    #[test]
    fn mul_mod_large_operands() {
        let q = (1u64 << 61) - 1; // Mersenne prime
        let a = q - 1;
        assert_eq!(mul_mod(a, a, q), 1); // (-1)^2 = 1
    }

    #[test]
    fn pow_and_inv() {
        let q = 97u64;
        assert_eq!(pow_mod(5, 96, q), 1); // Fermat
        for a in 1..97u64 {
            assert_eq!(mul_mod(a, inv_mod(a, q), q), 1);
        }
    }

    #[test]
    #[should_panic(expected = "inverse")]
    fn inv_of_zero_panics() {
        inv_mod(0, 97);
    }

    #[test]
    fn u64_primality_known_values() {
        assert!(is_prime_u64(2));
        assert!(is_prime_u64((1 << 61) - 1));
        assert!(is_prime_u64(0xFFFF_FFFF_FFFF_FFC5)); // largest prime < 2^64
        assert!(!is_prime_u64(1));
        assert!(!is_prime_u64(3_215_031_751)); // strong pseudoprime to bases 2,3,5,7
        assert!(!is_prime_u64((1 << 62) - 1));
    }

    #[test]
    fn ntt_primes_are_valid() {
        let m = 1u64 << 16; // 2N for N = 32768
        let primes = find_ntt_primes(45, 3, m);
        assert_eq!(primes.len(), 3);
        for &p in &primes {
            assert!(is_prime_u64(p));
            assert_eq!(p % m, 1);
            assert_eq!(64 - p.leading_zeros(), 45);
        }
        // Distinct and descending.
        assert!(primes.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn primitive_root_has_exact_order() {
        let m = 1u64 << 12;
        let q = find_ntt_primes(30, 1, m)[0];
        let w = primitive_root(m, q);
        assert_eq!(pow_mod(w, m, q), 1);
        assert_ne!(pow_mod(w, m / 2, q), 1);
    }
}
