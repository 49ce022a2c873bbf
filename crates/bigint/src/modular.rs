//! Montgomery multiplication and exponentiation modulo a fixed odd
//! modulus.
//!
//! # Examples
//!
//! ```
//! use rhychee_bigint::{Montgomery, Uint};
//!
//! let mont = Montgomery::new(Uint::<1>::from(497));
//! assert_eq!(mont.pow(&Uint::from(4), &Uint::from(13)), Uint::from(445));
//! ```

use std::cmp::Ordering;

use crate::uint::{cmp_limbs, sub_limbs};
use crate::Uint;

/// Montgomery multiplication context for a fixed odd modulus `n`.
///
/// With `k` the number of limbs `n` uses and `R = 2^(64·k)`, it holds
/// `−n⁻¹ mod 2^64` and `R² mod n`, so products and powers need no
/// division. Every product runs CIOS over those `k` limbs, not the type's
/// `L`: a 256-bit modulus in a `Uint<64>` costs 256-bit work. This is the
/// workhorse behind Paillier's 2048-bit exponentiations.
///
/// # Examples
///
/// ```
/// use rhychee_bigint::{Montgomery, Uint};
///
/// let mont = Montgomery::new(Uint::<2>::from(97));
/// let x = mont.pow(&Uint::from(5), &Uint::from(96));
/// assert!(x.is_one()); // Fermat: 5^96 ≡ 1 (mod 97)
/// ```
#[derive(Debug, Clone)]
pub struct Montgomery<const L: usize> {
    n: Uint<L>,
    k: usize,
    n_prime: u64,
    r2: Uint<L>,
}

impl<const L: usize> Montgomery<L> {
    /// Creates a context for odd modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, one, or even.
    pub fn new(n: Uint<L>) -> Self {
        assert!(n.is_odd() && !n.is_one(), "Montgomery modulus must be odd and > 1");
        let k = n.used_limbs();
        // n' = −n⁻¹ mod 2^64 by Newton iteration.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n.0[0].wrapping_mul(inv)));
        }
        // R² mod n = 2^(128·k) mod n: double 1 that many times modulo n.
        let mut r2 = Uint::ONE;
        for _ in 0..128 * k {
            let mut carry = 0;
            for limb in &mut r2.0[..k] {
                (*limb, carry) = (*limb << 1 | carry, *limb >> 63);
            }
            if carry != 0 || cmp_limbs(&r2.0[..k], &n.0[..k]) != Ordering::Less {
                sub_limbs(&mut r2.0[..k], &n.0[..k]);
            }
        }
        Montgomery { n, k, n_prime: inv.wrapping_neg(), r2 }
    }

    /// Montgomery product `a·b·R⁻¹ mod n` of `a, b < n` (CIOS).
    fn mont_mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        let k = self.k;
        let (b, n) = (&b.0[..k], &self.n.0[..k]);
        let mut out = Uint::ZERO;
        let t = &mut out.0[..k];
        // Limb k of the running sum (at most one).
        let mut t_k = 0u64;
        for &ai in &a.0[..k] {
            // t = (t + ai·b + m·n) / 2^64 in one pass, with m chosen so the
            // low limb cancels: one carry chain per product.
            let (t0, mut c1) = ai.carrying_mul_add(b[0], 0, t[0]);
            let m = t0.wrapping_mul(self.n_prime);
            let (_, mut c2) = m.carrying_mul_add(n[0], 0, t0);
            for j in 1..k {
                let x;
                (x, c1) = ai.carrying_mul_add(b[j], c1, t[j]);
                (t[j - 1], c2) = m.carrying_mul_add(n[j], c2, x);
            }
            let (top, o1) = t_k.overflowing_add(c1);
            let (top, o2) = top.overflowing_add(c2);
            t[k - 1] = top;
            t_k = u64::from(o1) + u64::from(o2);
        }
        if t_k != 0 || cmp_limbs(t, n) != Ordering::Less {
            sub_limbs(t, n);
        }
        out
    }

    /// `a mod n`, as the Montgomery product needs its inputs.
    fn reduce(&self, a: &Uint<L>) -> Uint<L> {
        a.div_rem(&self.n).1
    }

    /// Computes `a · b mod n`.
    pub fn mul(&self, a: &Uint<L>, b: &Uint<L>) -> Uint<L> {
        // (a·b·R⁻¹)·R²·R⁻¹ = a·b
        let ab = self.mont_mul(&self.reduce(a), &self.reduce(b));
        self.mont_mul(&ab, &self.r2)
    }

    /// Computes `base^exp mod n` with a left-to-right binary ladder.
    pub fn pow(&self, base: &Uint<L>, exp: &Uint<L>) -> Uint<L> {
        if exp.is_zero() {
            return Uint::ONE;
        }
        let base = self.mont_mul(&self.reduce(base), &self.r2);
        let mut acc = base;
        for i in (0..exp.bits() - 1).rev() {
            acc = self.mont_mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mont_mul(&acc, &base);
            }
        }
        self.mont_mul(&acc, &Uint::ONE)
    }
}
