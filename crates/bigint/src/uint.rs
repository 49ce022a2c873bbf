//! The [`Uint`] type: a fixed-width unsigned integer of `L` 64-bit limbs,
//! least significant first. Every value lives inline, no operation
//! allocates, and a result that does not fit is refused, never truncated.

use std::cmp::Ordering;
use std::fmt;

use rand::Rng;

/// A `64·L`-bit unsigned integer: `L` limbs, least significant first.
///
/// # Examples
///
/// ```
/// use rhychee_bigint::Uint;
///
/// let a = Uint::<2>::from(u64::MAX);
/// let square = a.checked_mul(&a).expect("128 bits hold the square");
/// assert_eq!(square.0, [1, u64::MAX - 1]);
/// assert!(square.checked_mul(&a).is_none(), "192 bits do not fit in 128");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const L: usize>(pub [u64; L]);

impl<const L: usize> Uint<L> {
    /// The value zero.
    pub const ZERO: Self = Uint([0; L]);

    /// The value one.
    pub const ONE: Self = {
        let mut limbs = [0; L];
        limbs[0] = 1;
        Uint(limbs)
    };

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        *self == Self::ONE
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Number of limbs up to the most significant non-zero one.
    pub(crate) fn used_limbs(&self) -> usize {
        self.0.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1)
    }

    /// Number of significant bits (0 for the value zero).
    pub fn bits(&self) -> usize {
        match self.used_limbs() {
            0 => 0,
            k => 64 * k - self.0[k - 1].leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (false at and above `64·L`).
    pub fn bit(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|&l| (l >> (i % 64)) & 1 == 1)
    }

    /// Sets bit `i` to one.
    pub(crate) fn set_bit(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Number of trailing zero bits (0 for the value zero).
    pub fn trailing_zeros(&self) -> usize {
        self.0
            .iter()
            .position(|&l| l != 0)
            .map_or(0, |i| 64 * i + self.0[i].trailing_zeros() as usize)
    }

    /// `self += other` modulo `2^(64·L)`, returning the carry out.
    pub fn add_nocarry(&mut self, other: &Self) -> bool {
        add_limbs(&mut self.0, &other.0)
    }

    /// `self −= other` modulo `2^(64·L)`, returning the borrow out.
    pub fn sub_noborrow(&mut self, other: &Self) -> bool {
        sub_limbs(&mut self.0, &other.0)
    }

    /// `self · other`, or `None` if the product needs more than `L` limbs.
    pub fn checked_mul(&self, other: &Self) -> Option<Self> {
        let (la, lb) = (self.used_limbs(), other.used_limbs());
        let mut wide = [[0u64; L]; 2];
        let out = wide.as_flattened_mut();
        for (i, &a) in self.0[..la].iter().enumerate() {
            let mut carry = 0;
            for (o, &b) in out[i..i + lb].iter_mut().zip(&other.0[..lb]) {
                (*o, carry) = a.carrying_mul_add(b, carry, *o);
            }
            out[i + lb] = carry;
        }
        wide[1].iter().all(|&l| l == 0).then_some(Uint(wide[0]))
    }

    /// `self >> shift` (zero once `shift ≥ 64·L`).
    pub fn shr(&self, shift: usize) -> Self {
        let (limbs, bits) = (shift / 64, shift % 64);
        let mut out = Self::ZERO;
        for (i, o) in out.0.iter_mut().enumerate().take(L.saturating_sub(limbs)) {
            let above = match self.0.get(i + limbs + 1) {
                Some(&hi) if bits > 0 => hi << (64 - bits),
                _ => 0,
            };
            *o = self.0[i + limbs] >> bits | above;
        }
        out
    }

    /// Quotient and remainder of `self / divisor`: Knuth's Algorithm D,
    /// or one short division when the divisor is a single limb.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (Self::ZERO, *self);
        }
        let (m, n) = (self.used_limbs(), divisor.used_limbs());
        let mut q = Self::ZERO;
        if n == 1 {
            let d = u128::from(divisor.0[0]);
            let mut rem = 0u128;
            for (qi, &limb) in q.0[..m].iter_mut().zip(&self.0[..m]).rev() {
                let cur = rem << 64 | u128::from(limb);
                (*qi, rem) = ((cur / d) as u64, cur % d);
            }
            return (q, Self::from(rem as u64));
        }
        // Normalise so the divisor's top limb has its high bit set; the
        // dividend gains one limb.
        let shift = divisor.0[n - 1].leading_zeros();
        let (mut ubuf, mut vbuf) = ([[0u64; L]; 2], [[0u64; L]; 2]);
        let (u, v) = (ubuf.as_flattened_mut(), vbuf.as_flattened_mut());
        shl_limbs(&self.0[..m], shift, &mut u[..=m]);
        shl_limbs(&divisor.0[..n], shift, &mut v[..=n]);
        let (v_hi, v_lo) = (u128::from(v[n - 1]), u128::from(v[n - 2]));
        for j in (0..=m - n).rev() {
            // Estimate the quotient digit from the top limbs; it is then
            // exact or one too large.
            let top = u128::from(u[j + n]) << 64 | u128::from(u[j + n - 1]);
            let (mut qhat, mut rhat) = (top / v_hi, top % v_hi);
            while qhat >> 64 != 0 || qhat * v_lo > (rhat << 64 | u128::from(u[j + n - 2])) {
                qhat -= 1;
                rhat += v_hi;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            let mut qhat = qhat as u64;
            // u[j..=j+n] −= qhat · v
            let (mut carry, mut borrow) = (0, false);
            for (ui, &vi) in u[j..j + n].iter_mut().zip(&v[..n]) {
                let (lo, hi) = qhat.carrying_mul_add(vi, carry, 0);
                carry = hi;
                (*ui, borrow) = ui.borrowing_sub(lo, borrow);
            }
            let went_negative;
            (u[j + n], went_negative) = u[j + n].borrowing_sub(carry, borrow);
            if went_negative {
                qhat -= 1;
                let carry = add_limbs(&mut u[j..j + n], &v[..n]);
                u[j + n] = u[j + n].wrapping_add(u64::from(carry));
            }
            q.0[j] = qhat;
        }
        let mut r = Self::ZERO;
        r.0[..n].copy_from_slice(&u[..n]);
        (q, r.shr(shift as usize))
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Self) -> Self {
        let (mut a, mut b) = (*self, *other);
        if a.is_zero() || b.is_zero() {
            return if a.is_zero() { b } else { a };
        }
        let common = a.trailing_zeros().min(b.trailing_zeros());
        a = a.shr(a.trailing_zeros());
        loop {
            b = b.shr(b.trailing_zeros());
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b.sub_noborrow(&a);
            if b.is_zero() {
                for _ in 0..common {
                    let twice = a;
                    a.add_nocarry(&twice);
                }
                return a;
            }
        }
    }

    /// Reads big-endian bytes, or `None` if the value needs more than `L`
    /// limbs (leading zero bytes beyond the width are accepted).
    pub fn from_bytes_be(bytes: &[u8]) -> Option<Self> {
        let mut out = Self::ZERO;
        for (i, chunk) in bytes.rchunks(8).enumerate() {
            let limb = chunk.iter().fold(0, |acc, &b| acc << 8 | u64::from(b));
            match out.0.get_mut(i) {
                Some(l) => *l = limb,
                None if limb != 0 => return None,
                None => {}
            }
        }
        Some(out)
    }

    /// Samples a uniform value in `[0, bound)` by rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero(), "random_below bound must be non-zero");
        loop {
            let candidate = Self::random_limbs(rng, bound.bits());
            if candidate < *bound {
                return candidate;
            }
        }
    }

    /// Draws `⌈bits/64⌉` limbs, least significant first, and clears every
    /// bit from `bits` up.
    pub(crate) fn random_limbs<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits <= 64 * L, "{bits} bits do not fit in {L} limbs");
        let mut out = Self::ZERO;
        for limb in &mut out.0[..bits.div_ceil(64)] {
            *limb = rng.gen();
        }
        if !bits.is_multiple_of(64) {
            out.0[bits / 64] &= (1 << (bits % 64)) - 1;
        }
        out
    }
}

/// `a += b` over equal-length limb slices, returning the carry out.
pub(crate) fn add_limbs(a: &mut [u64], b: &[u64]) -> bool {
    a.iter_mut().zip(b).fold(false, |carry, (x, &y)| {
        let c;
        (*x, c) = x.carrying_add(y, carry);
        c
    })
}

/// `a −= b` over equal-length limb slices, returning the borrow out.
pub(crate) fn sub_limbs(a: &mut [u64], b: &[u64]) -> bool {
    a.iter_mut().zip(b).fold(false, |borrow, (x, &y)| {
        let c;
        (*x, c) = x.borrowing_sub(y, borrow);
        c
    })
}

/// Numeric order of equal-length limb slices.
pub(crate) fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

/// `dst = src << shift` for `shift < 64`, with `dst` one limb longer.
fn shl_limbs(src: &[u64], shift: u32, dst: &mut [u64]) {
    let mut carry = 0;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s << shift | carry;
        carry = if shift == 0 { 0 } else { s >> (64 - shift) };
    }
    dst[src.len()] = carry;
}

impl<const L: usize> From<u64> for Uint<L> {
    fn from(v: u64) -> Self {
        let mut out = Self::ZERO;
        out.0[0] = v;
        out
    }
}

impl<const L: usize> Ord for Uint<L> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_limbs(&self.0, &other.0)
    }
}

impl<const L: usize> PartialOrd for Uint<L> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> fmt::LowerHex for Uint<L> {
    /// Hex digits without leading zeros (`0` for zero).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = self.used_limbs().max(1);
        write!(f, "{:x}", self.0[k - 1])?;
        self.0[..k - 1].iter().rev().try_for_each(|l| write!(f, "{l:016x}"))
    }
}

impl<const L: usize> fmt::Debug for Uint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uint(0x{self:x})")
    }
}
