//! Probabilistic primality testing and random prime generation.
//!
//! Used by the Paillier key generator, which needs two independent
//! 1024-bit primes per keypair.
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rhychee_bigint::{gen_prime, is_probable_prime};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let p = gen_prime(&mut rng, 128);
//! assert_eq!(p.bits(), 128);
//! assert!(is_probable_prime(&p, 32));
//! ```

use rand::Rng;

use crate::{BigUint, Montgomery};

/// Small primes used to pre-screen candidates before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// Deterministic small-prime trial division screens obvious composites
/// first. With 32 rounds the error probability is below 4^-32.
///
/// # Examples
///
/// ```
/// use rhychee_bigint::{is_probable_prime, BigUint};
///
/// assert!(is_probable_prime(&BigUint::from(2u64.pow(61) - 1), 16));
/// assert!(!is_probable_prime(&BigUint::from(561u64), 16)); // Carmichael number
/// ```
pub fn is_probable_prime(n: &BigUint, rounds: u32) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if n == &BigUint::from(2u64) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let pb = BigUint::from(p);
        if n == &pb {
            return true;
        }
        if n.rem_of(&pb).is_zero() {
            return false;
        }
    }

    // Write n - 1 = d * 2^s with d odd.
    let n_minus_1 = n - &BigUint::one();
    let s = n_minus_1.trailing_zeros();
    let d = &n_minus_1 >> s;

    // Fixed witness schedule: first `rounds` small primes as bases gives a
    // deterministic test for all n < 3.3e24 and a strong probabilistic
    // test beyond; bases are reduced mod n. One Montgomery context (one
    // `R² mod n` division) serves every exponentiation and squaring.
    let mont = Montgomery::new(n.clone());
    let mut witness_rng = WitnessSequence::new();
    'witness: for _ in 0..rounds {
        let a = witness_rng.next_base(n);
        let mut x = mont.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue;
        }
        for _ in 0..s.saturating_sub(1) {
            x = mont.mul(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Deterministic-then-pseudorandom witness base sequence for Miller–Rabin.
struct WitnessSequence {
    idx: usize,
    state: u64,
}

impl WitnessSequence {
    fn new() -> Self {
        WitnessSequence { idx: 0, state: 0x9e37_79b9_7f4a_7c15 }
    }

    fn next_base(&mut self, n: &BigUint) -> BigUint {
        let base = if self.idx < SMALL_PRIMES.len() {
            SMALL_PRIMES[self.idx]
        } else {
            // xorshift64* beyond the fixed schedule
            self.state ^= self.state >> 12;
            self.state ^= self.state << 25;
            self.state ^= self.state >> 27;
            self.state.wrapping_mul(0x2545_f491_4f6c_dd1d) | 2
        };
        self.idx += 1;
        let b = BigUint::from(base).rem_of(n);
        if b.is_zero() || b.is_one() {
            BigUint::from(2u64)
        } else {
            b
        }
    }
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The returned value has both the top bit and the bit below it set (so
/// products of two such primes have exactly `2·bits` bits, as Paillier
/// expects) and passes 32 Miller–Rabin rounds.
///
/// # Panics
///
/// Panics if `bits < 8`.
pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 8, "prime size too small: {bits} bits");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        // Force odd and set the second-highest bit.
        if candidate.is_even() {
            candidate += &BigUint::one();
        }
        candidate.set_bit(bits - 2);
        if candidate.bits() > bits {
            continue;
        }
        // Sieve forward in steps of 2 for a small window before resampling.
        let two = BigUint::from(2u64);
        for _ in 0..64 {
            if candidate.bits() != bits {
                break;
            }
            if is_probable_prime(&candidate, 32) {
                return candidate;
            }
            candidate += &two;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn small_primes_detected() {
        for p in [2u64, 3, 5, 7, 11, 13, 97, 211, 65537] {
            assert!(is_probable_prime(&BigUint::from(p), 16), "{p} should be prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        for c in [0u64, 1, 4, 6, 9, 15, 21, 221, 65535] {
            assert!(!is_probable_prime(&BigUint::from(c), 16), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat pseudoprimes that fool the plain Fermat test.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(!is_probable_prime(&BigUint::from(c), 16), "{c} is Carmichael");
        }
    }

    #[test]
    fn mersenne_primes_accepted() {
        for e in [13u32, 17, 19, 31, 61] {
            let m = (BigUint::from(2u64).pow(e)) - &BigUint::one();
            assert!(is_probable_prime(&m, 16), "2^{e}-1 should be prime");
        }
        // 2^11 - 1 = 2047 = 23 * 89 is composite.
        let m11 = BigUint::from(2047u64);
        assert!(!is_probable_prime(&m11, 16));
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(99);
        for bits in [64usize, 128, 256] {
            let p = gen_prime(&mut rng, bits);
            assert_eq!(p.bits(), bits);
            assert!(p.is_odd());
            assert!(p.bit(bits - 2), "second-highest bit set");
            assert!(is_probable_prime(&p, 32));
        }
    }

    #[test]
    fn gen_prime_product_has_double_width() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = gen_prime(&mut rng, 96);
        let q = gen_prime(&mut rng, 96);
        assert_eq!((&p * &q).bits(), 192);
    }

    #[test]
    fn gen_prime_is_pinned_at_a_fixed_seed() {
        let mut rng = StdRng::seed_from_u64(2024);
        let p = gen_prime(&mut rng, 256);
        assert_eq!(
            format!("{p:x}"),
            "ebf1aa430346476c3e595fe9cf746b2a4b7eeec62af66af98641253f8fed82e9"
        );
    }

    #[test]
    fn distinct_primes_from_one_rng() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = gen_prime(&mut rng, 80);
        let q = gen_prime(&mut rng, 80);
        assert_ne!(p, q);
    }
}
