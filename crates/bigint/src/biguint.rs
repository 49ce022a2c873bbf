//! The [`BigUint`] type: an unsigned big integer stored as little-endian
//! 64-bit limbs, always normalized (no trailing zero limbs; zero is the
//! empty limb vector).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Rem, Shl, Shr, Sub, SubAssign};

use rand::Rng;

/// An arbitrary-precision unsigned integer.
///
/// Stored little-endian in 64-bit limbs. The representation is always
/// normalized: the most significant limb is non-zero, and zero is
/// represented by an empty limb vector.
///
/// # Examples
///
/// ```
/// use rhychee_bigint::BigUint;
///
/// let x = BigUint::from(10u64).pow(20);
/// assert_eq!(x.to_decimal(), "100000000000000000000");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the value is odd.
    pub(crate) fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Constructs from little-endian limbs, normalizing trailing zeros.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Little-endian limb view of the value.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of significant bits (0 for the value zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => 64 * (self.limbs.len() - 1) + (64 - hi.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to one, growing the number if needed.
    pub(crate) fn set_bit(&mut self, i: usize) {
        let (limb, off) = (i / 64, i % 64);
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
    }

    /// Constructs from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(8));
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to big-endian bytes (no leading zeros; empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Samples a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> Self {
        assert!(!bound.is_zero(), "random_below bound must be non-zero");
        let bits = bound.bits();
        let limbs = bits.div_ceil(64);
        let top_mask = if bits.is_multiple_of(64) { u64::MAX } else { (1u64 << (bits % 64)) - 1 };
        loop {
            let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            if let Some(last) = v.last_mut() {
                *last &= top_mask;
            }
            let candidate = Self::from_limbs(v);
            if candidate < *bound {
                return candidate;
            }
        }
    }

    /// Samples a uniform value with exactly `bits` bits (top bit set).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub(crate) fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits > 0, "random_bits requires bits > 0");
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top = (bits - 1) % 64;
        let last = v.last_mut().expect("at least one limb");
        *last &= if top == 63 { u64::MAX } else { (1 << (top + 1)) - 1 };
        *last |= 1 << top;
        Self::from_limbs(v)
    }

    /// Raises `self` to the power `exp` (plain, non-modular).
    pub fn pow(&self, mut exp: u32) -> Self {
        let mut base = self.clone();
        let mut acc = Self::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Quotient and remainder of `self / divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Quotient and remainder by a single 64-bit divisor.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        let mut rem: u128 = 0;
        let mut q = vec![0u64; self.limbs.len()];
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let cur = (rem << 64) | u128::from(limb);
            q[i] = (cur / u128::from(d)) as u64;
            rem = cur % u128::from(d);
        }
        (Self::from_limbs(q), rem as u64)
    }

    /// Knuth Algorithm D long division for multi-limb divisors.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().expect("non-empty").leading_zeros() as usize;
        let u = self << shift;
        let v = divisor << shift;
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let v_hi = vn[n - 1];
        let v_lo = vn[n - 2];

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate the quotient digit from the top two/three limbs.
            let num = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
            let mut qhat = num / u128::from(v_hi);
            let mut rhat = num % u128::from(v_hi);
            while qhat >= (1u128 << 64)
                || qhat * u128::from(v_lo) > ((rhat << 64) | u128::from(un[j + n - 2]))
            {
                qhat -= 1;
                rhat += u128::from(v_hi);
                if rhat >= (1u128 << 64) {
                    break;
                }
            }

            // Multiply-and-subtract qhat * v from un[j..j+n+1].
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * u128::from(vn[i]) + carry;
                carry = p >> 64;
                let sub = i128::from(un[j + i]) - (p as u64 as i128) + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = i128::from(un[j + n]) - carry as i128 + borrow;
            un[j + n] = sub as u64;
            let went_negative = sub < 0;

            q[j] = qhat as u64;
            if went_negative {
                // The estimate was one too large: add the divisor back.
                q[j] -= 1;
                let mut carry: u128 = 0;
                for i in 0..n {
                    let s = u128::from(un[j + i]) + u128::from(vn[i]) + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
        }

        un.truncate(n);
        let rem = Self::from_limbs(un) >> shift;
        (Self::from_limbs(q), rem)
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let a_tz = a.trailing_zeros();
        let b_tz = b.trailing_zeros();
        let common = a_tz.min(b_tz);
        a = a >> a_tz;
        b = b >> b_tz;
        loop {
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b -= &a;
            if b.is_zero() {
                return a << common;
            }
            let tz = b.trailing_zeros();
            b = b >> tz;
        }
    }

    /// Least common multiple.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let g = self.gcd(other);
        let (q, _) = self.div_rem(&g);
        &q * other
    }

    /// Number of trailing zero bits (0 for the value zero).
    pub fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns `ParseBigUintError` if the string is empty or contains a
    /// non-digit character.
    pub fn from_decimal(s: &str) -> Result<Self, ParseBigUintError> {
        if s.is_empty() {
            return Err(ParseBigUintError);
        }
        let mut acc = Self::zero();
        for c in s.chars() {
            let d = c.to_digit(10).ok_or(ParseBigUintError)?;
            acc = acc.mul_u64(10);
            acc += &BigUint::from(u64::from(d));
        }
        Ok(acc)
    }

    /// Formats as a decimal string.
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10);
            digits.push(char::from(b'0' + r as u8));
            cur = q;
        }
        digits.iter().rev().collect()
    }

    /// Multiplies by a single 64-bit value.
    pub fn mul_u64(&self, rhs: u64) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u128 = 0;
        for &l in &self.limbs {
            let p = u128::from(l) * u128::from(rhs) + carry;
            out.push(p as u64);
            carry = p >> 64;
        }
        out.push(carry as u64);
        Self::from_limbs(out)
    }

    /// `self mod m` convenience wrapper.
    pub fn rem_of(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }
}

/// Error returned by [`BigUint::from_decimal`] for malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBigUintError;

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid decimal big integer")
    }
}

impl std::error::Error for ParseBigUintError {}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        Self::from(u64::from(v))
    }
}

impl TryFrom<&BigUint> for u64 {
    type Error = ();

    fn try_from(v: &BigUint) -> Result<Self, Self::Error> {
        match v.limbs.len() {
            0 => Ok(0),
            1 => Ok(v.limbs[0]),
            _ => Err(()),
        }
    }
}

impl TryFrom<&BigUint> for u128 {
    type Error = ();

    fn try_from(v: &BigUint) -> Result<Self, Self::Error> {
        match v.limbs.len() {
            0 => Ok(0),
            1 => Ok(u128::from(v.limbs[0])),
            2 => Ok(u128::from(v.limbs[0]) | (u128::from(v.limbs[1]) << 64)),
            _ => Err(()),
        }
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                Ordering::Equal
            }
            o => o,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_decimal())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "", &self.to_decimal())
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0x", "0");
        }
        let mut s = String::new();
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{l:x}"));
            } else {
                s.push_str(&format!("{l:016x}"));
            }
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl AddAssign<&BigUint> for BigUint {
    fn add_assign(&mut self, rhs: &BigUint) {
        let mut carry: u128 = 0;
        let n = self.limbs.len().max(rhs.limbs.len());
        self.limbs.resize(n, 0);
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let s = u128::from(*limb) + u128::from(rhs.limbs.get(i).copied().unwrap_or(0)) + carry;
            *limb = s as u64;
            carry = s >> 64;
        }
        if carry > 0 {
            self.limbs.push(carry as u64);
        }
    }
}

impl Add<&BigUint> for &BigUint {
    type Output = BigUint;

    fn add(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl SubAssign<&BigUint> for BigUint {
    /// # Panics
    ///
    /// Panics on underflow (`rhs > self`).
    fn sub_assign(&mut self, rhs: &BigUint) {
        assert!(*self >= *rhs, "BigUint subtraction underflow");
        let mut borrow: i128 = 0;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let d = i128::from(*limb) - i128::from(rhs.limbs.get(i).copied().unwrap_or(0)) + borrow;
            *limb = d as u64;
            borrow = d >> 64;
        }
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl Sub<&BigUint> for &BigUint {
    type Output = BigUint;

    fn sub(self, rhs: &BigUint) -> BigUint {
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl Mul<&BigUint> for &BigUint {
    type Output = BigUint;

    fn mul(self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry: u128 = 0;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let p = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + carry;
                out[i + j] = p as u64;
                carry = p >> 64;
            }
            out[i + rhs.limbs.len()] = carry as u64;
        }
        BigUint::from_limbs(out)
    }
}

impl MulAssign<&BigUint> for BigUint {
    fn mul_assign(&mut self, rhs: &BigUint) {
        *self = &*self * rhs;
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;

    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_binop_owned {
    ($trait:ident, $method:ident) => {
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                $trait::$method(self, &rhs)
            }
        }
        impl $trait<BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                $trait::$method(&self, &rhs)
            }
        }
    };
}

forward_binop_owned!(Add, add);
forward_binop_owned!(Sub, sub);
forward_binop_owned!(Mul, mul);
forward_binop_owned!(Rem, rem);

impl Shl<usize> for &BigUint {
    type Output = BigUint;

    fn shl(self, shift: usize) -> BigUint {
        if self.is_zero() || shift == 0 {
            return self.clone();
        }
        let (limb_shift, bit_shift) = (shift / 64, shift % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }
}

impl Shl<usize> for BigUint {
    type Output = BigUint;

    fn shl(self, shift: usize) -> BigUint {
        &self << shift
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;

    fn shr(self, shift: usize) -> BigUint {
        let (limb_shift, bit_shift) = (shift / 64, shift % 64);
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut out: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            for i in 0..out.len() {
                out[i] >>= bit_shift;
                if i + 1 < out.len() {
                    out[i] |= out[i + 1] << (64 - bit_shift);
                }
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shr<usize> for BigUint {
    type Output = BigUint;

    fn shr(self, shift: usize) -> BigUint {
        &self >> shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert_eq!(BigUint::default(), BigUint::zero());
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from(u64::MAX);
        let b = BigUint::one();
        let s = &a + &b;
        assert_eq!(s.limbs(), &[0, 1]);
        assert_eq!(s.bits(), 65);
    }

    #[test]
    fn sub_with_borrow_across_limbs() {
        let a = BigUint::from_limbs(vec![0, 1]); // 2^64
        let b = BigUint::one();
        assert_eq!(&a - &b, BigUint::from(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &BigUint::one() - &BigUint::from(2u64);
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0x1234_5678_9abc_def0u64;
        let b = 0xfedc_ba98_7654_3210u64;
        let prod = &BigUint::from(a) * &BigUint::from(b);
        assert_eq!(prod, BigUint::from(u128::from(a) * u128::from(b)));
    }

    #[test]
    fn div_rem_small() {
        let a = BigUint::from(1_000_003u64);
        let (q, r) = a.div_rem(&BigUint::from(1000u64));
        assert_eq!(q, BigUint::from(1000u64));
        assert_eq!(r, BigUint::from(3u64));
    }

    #[test]
    fn div_rem_multi_limb_reconstructs() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let a = BigUint::random_bits(&mut rng, 512);
            let b = BigUint::random_bits(&mut rng, 192);
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            assert_eq!(&(&q * &b) + &r, a);
        }
    }

    #[test]
    fn div_rem_requires_add_back_case() {
        // Constructed to exercise the Algorithm D add-back branch.
        let a = BigUint::from_limbs(vec![0, 0, 1 << 63]);
        let b = BigUint::from_limbs(vec![1, 1 << 63]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn shifts_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = BigUint::random_bits(&mut rng, 300);
        for s in [0usize, 1, 63, 64, 65, 130] {
            assert_eq!((&a << s) >> s, a);
        }
    }

    #[test]
    fn decimal_round_trip() {
        let s = "123456789012345678901234567890123456789";
        let v = BigUint::from_decimal(s).expect("parse");
        assert_eq!(v.to_decimal(), s);
        assert!(BigUint::from_decimal("").is_err());
        assert!(BigUint::from_decimal("12x").is_err());
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = StdRng::seed_from_u64(9);
        for bits in [8usize, 64, 65, 256, 1000] {
            let v = BigUint::random_bits(&mut rng, bits);
            assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        }
        assert!(BigUint::zero().to_bytes_be().is_empty());
    }

    #[test]
    fn gcd_lcm_basics() {
        let a = BigUint::from(48u64);
        let b = BigUint::from(36u64);
        assert_eq!(a.gcd(&b), BigUint::from(12u64));
        assert_eq!(a.lcm(&b), BigUint::from(144u64));
        assert_eq!(BigUint::zero().gcd(&a), a);
        assert_eq!(a.gcd(&BigUint::zero()), a);
    }

    #[test]
    fn pow_small() {
        assert_eq!(BigUint::from(2u64).pow(10), BigUint::from(1024u64));
        assert_eq!(BigUint::from(7u64).pow(0), BigUint::one());
        assert_eq!(BigUint::from(10u64).pow(20).to_decimal(), "100000000000000000000");
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let bound = BigUint::from(1000u64);
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [1usize, 63, 64, 65, 1024] {
            assert_eq!(BigUint::random_bits(&mut rng, bits).bits(), bits);
        }
    }

    #[test]
    fn ordering_is_numeric() {
        let a = BigUint::from_limbs(vec![0, 1]);
        let b = BigUint::from(u64::MAX);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(format!("{:x}", BigUint::from(0xdeadbeefu64)), "deadbeef");
        assert_eq!(format!("{:x}", BigUint::zero()), "0");
        let big = BigUint::from_limbs(vec![0x1, 0xab]);
        assert_eq!(format!("{big:x}"), "ab0000000000000001");
    }

    #[test]
    fn bit_accessors() {
        let mut v = BigUint::zero();
        v.set_bit(70);
        assert!(v.bit(70));
        assert!(!v.bit(69));
        assert_eq!(v.bits(), 71);
        assert_eq!(v.trailing_zeros(), 70);
    }
}
