//! Properties of [`Uint`] and [`Montgomery`]: the ring laws, a
//! differential against `u128` at `Uint<2>` for every operation, and
//! shift-and-subtract oracles for Knuth division and for Montgomery
//! products and powers at Paillier widths (up to 4096 bits).

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use rhychee_bigint::{Montgomery, Uint};

type U4 = Uint<4>;

/// A `Uint<4>` of up to `max` random limbs.
fn arb(max: usize) -> impl Strategy<Value = U4> {
    prop::collection::vec(any::<u64>(), 0..=max).prop_map(|v| {
        let mut u = U4::ZERO;
        u.0[..v.len()].copy_from_slice(&v);
        u
    })
}

fn wrapping_add<const L: usize>(mut a: Uint<L>, b: &Uint<L>) -> Uint<L> {
    a.add_nocarry(b);
    a
}

fn wrapping_sub<const L: usize>(mut a: Uint<L>, b: &Uint<L>) -> Uint<L> {
    a.sub_noborrow(b);
    a
}

/// A `u128` with a random number of leading zero bits.
fn arb128() -> impl Strategy<Value = u128> {
    any::<u128>().prop_map(|v| v.checked_shr(v.rotate_left(7) as u32 % 129).unwrap_or(0))
}

/// An odd modulus above one made from `m`.
fn odd_modulus<const L: usize>(mut m: Uint<L>) -> Uint<L> {
    m.0[0] |= 1;
    if m.is_one() {
        m.0[0] = 3;
    }
    m
}

/// `2^s`.
fn pow2<const L: usize>(s: usize) -> Uint<L> {
    let mut p = Uint::ZERO;
    p.0[s / 64] = 1 << (s % 64);
    p
}

/// Quotient and remainder one bit at a time: shift the remainder left,
/// bring down the next bit, subtract the divisor where it fits.
fn div_rem_oracle<const L: usize>(a: &Uint<L>, m: &Uint<L>) -> (Uint<L>, Uint<L>) {
    let (mut q, mut r) = (Uint::ZERO, Uint::ZERO);
    for i in (0..a.bits()).rev() {
        let r_carry = r.add_nocarry(&{ r });
        r.0[0] |= u64::from(a.bit(i));
        q.add_nocarry(&{ q });
        if r_carry || r >= *m {
            r.sub_noborrow(m);
            q.0[0] |= 1;
        }
    }
    (q, r)
}

/// `(a + b) mod m` for `a, b < m`.
fn add_mod<const L: usize>(a: &Uint<L>, b: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    let mut s = *a;
    if s.add_nocarry(b) || s >= *m {
        s.sub_noborrow(m);
    }
    s
}

/// `a · b mod m` by double-and-add over the bits of `b`.
fn mul_mod_oracle<const L: usize>(a: &Uint<L>, b: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    let a = div_rem_oracle(a, m).1;
    (0..b.bits()).rev().fold(Uint::ZERO, |r, i| {
        let r = add_mod(&r, &r, m);
        if b.bit(i) {
            add_mod(&r, &a, m)
        } else {
            r
        }
    })
}

/// `base^exp mod m` by square-and-multiply over [`mul_mod_oracle`].
fn pow_mod_oracle<const L: usize>(base: &Uint<L>, exp: &Uint<L>, m: &Uint<L>) -> Uint<L> {
    (0..exp.bits()).rev().fold(div_rem_oracle(&Uint::ONE, m).1, |acc, i| {
        let acc = mul_mod_oracle(&acc, &acc, m);
        if exp.bit(i) {
            mul_mod_oracle(&acc, base, m)
        } else {
            acc
        }
    })
}

proptest! {
    #[test]
    fn addition_commutes(a in arb(4), b in arb(4)) {
        let (mut x, mut y) = (a, b);
        prop_assert_eq!(x.add_nocarry(&b), y.add_nocarry(&a));
        prop_assert_eq!(x, y);
    }

    #[test]
    fn addition_associates(a in arb(4), b in arb(4), c in arb(4)) {
        prop_assert_eq!(
            wrapping_add(wrapping_add(a, &b), &c),
            wrapping_add(a, &wrapping_add(b, &c))
        );
    }

    #[test]
    fn multiplication_commutes(a in arb(3), b in arb(3)) {
        prop_assert_eq!(a.checked_mul(&b), b.checked_mul(&a));
    }

    #[test]
    fn multiplication_associates(a in arb(2), b in arb(1), c in arb(1)) {
        let ab_c = a.checked_mul(&b).and_then(|ab| ab.checked_mul(&c));
        let a_bc = b.checked_mul(&c).and_then(|bc| a.checked_mul(&bc));
        prop_assert!(ab_c.is_some());
        prop_assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn distributive_law(a in arb(2), b in arb(1), c in arb(1)) {
        let lhs = a.checked_mul(&wrapping_add(b, &c)).expect("fits");
        let rhs = wrapping_add(a.checked_mul(&b).expect("fits"), &a.checked_mul(&c).expect("fits"));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn add_then_sub_round_trips(a in arb(4), b in arb(4)) {
        let mut s = a;
        let carry = s.add_nocarry(&b);
        prop_assert_eq!(s.sub_noborrow(&b), carry);
        prop_assert_eq!(s, a);
    }

    #[test]
    fn div_rem_reconstructs(a in arb(4), b in arb(4)) {
        let b = if b.is_zero() { U4::ONE } else { b };
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        let mut back = q.checked_mul(&b).expect("q·b ≤ a");
        prop_assert!(!back.add_nocarry(&r));
        prop_assert_eq!(back, a);
    }

    #[test]
    fn shr_divides_by_a_power_of_two(a in arb(4), s in 0usize..300) {
        let want = if s < 256 { a.div_rem(&pow2(s)).0 } else { U4::ZERO };
        prop_assert_eq!(a.shr(s), want);
    }

    #[test]
    fn bytes_round_trip(a in arb(4), pad in 0usize..12) {
        let mut bytes = vec![0u8; pad];
        bytes.extend(a.0.iter().rev().flat_map(|l| l.to_be_bytes()));
        prop_assert_eq!(U4::from_bytes_be(&bytes), Some(a));
    }

    #[test]
    fn gcd_divides_both(a in arb(2), b in arb(2)) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        let (a_g, ra) = a.div_rem(&g);
        let (b_g, rb) = b.div_rem(&g);
        prop_assert!(ra.is_zero() && rb.is_zero());
        prop_assert!(a_g.gcd(&b_g).is_one());
    }

    #[test]
    fn montgomery_mul_matches_schoolbook(a in arb(4), b in arb(4), m in arb(4)) {
        let m = odd_modulus(m);
        prop_assert_eq!(Montgomery::new(m).mul(&a, &b), mul_mod_oracle(&a, &b, &m));
    }

    #[test]
    fn pow_is_multiplicative_in_the_exponent(
        base in arb(4),
        e1 in 0u64..64,
        e2 in 0u64..64,
        m in arb(4),
    ) {
        let mont = Montgomery::new(odd_modulus(m));
        let lhs = mont.pow(&base, &U4::from(e1 + e2));
        let rhs = mont.mul(&mont.pow(&base, &U4::from(e1)), &mont.pow(&base, &U4::from(e2)));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn comparison_agrees_with_subtraction(a in arb(4), b in arb(4)) {
        prop_assert_eq!(wrapping_sub(a, &b).is_zero(), a == b);
        prop_assert_eq!({ a }.sub_noborrow(&b), a < b);
    }

    /// Every operation of `Uint<2>` against the same operation on `u128`.
    #[test]
    fn uint2_matches_u128(x in arb128(), y in arb128(), s in 0usize..140, e in any::<u64>()) {
        let u = |v: u128| Uint::<2>([v as u64, (v >> 64) as u64]);
        let (a, b) = (u(x), u(y));
        let mut sum = a;
        prop_assert_eq!(sum.add_nocarry(&b), x.checked_add(y).is_none());
        prop_assert_eq!(sum, u(x.wrapping_add(y)));
        let mut diff = a;
        prop_assert_eq!(diff.sub_noborrow(&b), x < y);
        prop_assert_eq!(diff, u(x.wrapping_sub(y)));
        prop_assert_eq!(a.checked_mul(&b), x.checked_mul(y).map(u));
        prop_assert_eq!(a.checked_mul(&u(y >> 64)), x.checked_mul(y >> 64).map(u));
        prop_assert_eq!(a.checked_mul(&u(y >> 80)), x.checked_mul(y >> 80).map(u));
        for d in [y, y >> 64, y >> 100, (y >> 64).max(1) << 64 | 1] {
            if d != 0 {
                prop_assert_eq!(a.div_rem(&u(d)), (u(x / d), u(x % d)));
            }
        }
        prop_assert_eq!(a.shr(s), u(x.checked_shr(s as u32).unwrap_or(0)));
        prop_assert_eq!(a.cmp(&b), x.cmp(&y));
        prop_assert_eq!(a.bits(), 128 - x.leading_zeros() as usize);
        prop_assert_eq!(a.bit(s), s < 128 && (x >> s) & 1 == 1);
        prop_assert_eq!(a.trailing_zeros(), if x == 0 { 0 } else { x.trailing_zeros() as usize });
        prop_assert_eq!((a.is_zero(), a.is_one(), a.is_odd()), (x == 0, x == 1, x & 1 == 1));
        let (mut g0, mut g1) = (x, y);
        while g1 != 0 {
            (g0, g1) = (g1, g0 % g1);
        }
        prop_assert_eq!(a.gcd(&b), u(g0));
        prop_assert_eq!(Uint::<2>::from_bytes_be(&x.to_be_bytes()), Some(a));
        prop_assert_eq!(format!("{a:x}"), format!("{x:x}"));
        prop_assert_eq!(Uint::<2>::from(e), u(u128::from(e)));

        // Montgomery against double-and-add in u128.
        let m = y | 1;
        prop_assume!(m > 1);
        let mul_mod = |p: u128, q: u128| {
            (0..128).rev().fold(0u128, |r, i| {
                let add = |r: u128, v: u128| {
                    let (s, over) = r.overflowing_add(v);
                    if over || s >= m { s.wrapping_sub(m) } else { s }
                };
                let r = add(r, r);
                if (q >> i) & 1 == 1 { add(r, p % m) } else { r }
            })
        };
        let mont = Montgomery::new(u(m));
        prop_assert_eq!(mont.mul(&a, &u(x.rotate_left(7))), u(mul_mod(x, x.rotate_left(7))));
        let want = (0..64).rev().fold(1 % m, |acc, i| {
            let acc = mul_mod(acc, acc);
            if (e >> i) & 1 == 1 { mul_mod(acc, x) } else { acc }
        });
        prop_assert_eq!(mont.pow(&a, &Uint::from(e)), u(want));

        // Rejection sampling draws ⌈bits/64⌉ limbs, least significant first.
        let mut rng = StdRng::seed_from_u64(e);
        let got = Uint::<2>::random_below(&mut StdRng::seed_from_u64(e), &b.max(Uint::ONE));
        let bits = 128 - y.max(1).leading_zeros();
        let want = loop {
            let lo = u128::from(rng.gen::<u64>());
            let v = if bits > 64 { lo | u128::from(rng.gen::<u64>()) << 64 } else { lo };
            let v = if bits == 128 { v } else { v & ((1 << bits) - 1) };
            if v < y.max(1) {
                break v;
            }
        };
        prop_assert_eq!(got, u(want));
    }
}

type Paillier = Uint<64>;

/// A random value of exactly `bits` bits.
fn random_bits(rng: &mut StdRng, bits: usize) -> Paillier {
    let mut v = Paillier::ZERO;
    for limb in &mut v.0[..bits.div_ceil(64)] {
        *limb = rng.gen();
    }
    if !bits.is_multiple_of(64) {
        v.0[bits / 64] &= (1 << (bits % 64)) - 1;
    }
    v.0[(bits - 1) / 64] |= 1 << ((bits - 1) % 64);
    v
}

#[test]
fn knuth_division_matches_shift_and_subtract_at_paillier_widths() {
    let mut rng = StdRng::seed_from_u64(41);
    for (a_bits, d_bits) in [
        (4096, 64),
        (4096, 65),
        (4096, 128),
        (4096, 1000),
        (4095, 2048),
        (4096, 4033),
        (4096, 4096),
    ] {
        for _ in 0..3 {
            let a = random_bits(&mut rng, a_bits);
            let d = random_bits(&mut rng, d_bits);
            assert_eq!(a.div_rem(&d), div_rem_oracle(&a, &d), "{a_bits} / {d_bits} bits");
        }
    }
    // Divisors whose top limb is all ones or a single bit push the
    // quotient estimate to its corrections.
    let ones = Uint::<64>([u64::MAX; 64]);
    let mut top_bit = pow2::<64>(2047);
    top_bit.add_nocarry(&Paillier::ONE);
    for d in [Uint::<64>([u64::MAX; 64]).shr(2048), top_bit, pow2(4095), pow2(64)] {
        assert_eq!(ones.div_rem(&d), div_rem_oracle(&ones, &d), "{d:x}");
    }
}

#[test]
fn montgomery_matches_shift_and_subtract_at_paillier_widths() {
    let mut rng = StdRng::seed_from_u64(43);
    for bits in [65, 256, 1024, 2047, 2048, 4095, 4096] {
        let m = odd_modulus(random_bits(&mut rng, bits));
        let mont = Montgomery::new(m);
        let (a, b) = (random_bits(&mut rng, bits - 1), random_bits(&mut rng, 4096));
        let minus_1 = wrapping_sub(m, &Paillier::ONE);
        for (x, y) in [(a, b), (b, b), (minus_1, minus_1), (Paillier::ZERO, b), (Paillier::ONE, a)]
        {
            assert_eq!(mont.mul(&x, &y), mul_mod_oracle(&x, &y, &m), "{bits} bits");
        }
        let e = random_bits(&mut rng, 40);
        assert_eq!(mont.pow(&b, &e), pow_mod_oracle(&b, &e, &m), "{bits} bits");
    }
}

#[test]
fn overflow_is_refused() {
    let half = pow2::<64>(2048);
    assert_eq!(half.checked_mul(&half), None, "2^4096 needs 65 limbs");
    let below = wrapping_sub(half, &Paillier::ONE);
    assert!(below.checked_mul(&below).is_some(), "(2^2048 − 1)² fits");
    assert_eq!(Uint::<64>([u64::MAX; 64]).checked_mul(&Paillier::from(2)), None);
    let mut bytes = vec![0u8; 513];
    assert!(Paillier::from_bytes_be(&bytes).is_some(), "leading zeros fit");
    bytes[0] = 1;
    assert_eq!(Paillier::from_bytes_be(&bytes), None, "2^4096 needs 513 bytes");
}

/// Hacker's Delight's add-back case in 64-bit digits, and a smaller one:
/// the first quotient estimate is one too large and the divisor is added
/// back.
#[test]
fn knuth_division_adds_back_after_an_estimate_one_too_large() {
    for (a, b) in
        [([0, 0, 1 << 63, (1 << 63) - 1], [1, 0, 1 << 63, 0]), ([0, 0, 2, 0], [1, 0, 1, 0])]
    {
        let (a, b) = (Uint::<4>(a), Uint::<4>(b));
        assert_eq!(a.div_rem(&b), div_rem_oracle(&a, &b));
    }
}

#[test]
fn montgomery_pow_fermat() {
    // 2^(p−1) ≡ 1 (mod p) for the prime p = 2^61 − 1, and 3^(2^127 − 2) ≡ 1
    // (mod 2^127 − 1) for a modulus that fills both of its limbs.
    let p = (1u64 << 61) - 1;
    assert!(Montgomery::new(U4::from(p)).pow(&U4::from(2), &U4::from(p - 1)).is_one());
    let m127 = Uint::<2>([u64::MAX, u64::MAX >> 1]);
    let e = Uint::<2>([u64::MAX - 1, u64::MAX >> 1]);
    assert!(Montgomery::new(m127).pow(&Uint::from(3), &e).is_one());
    let mont = Montgomery::new(Uint::<2>::from(1_000_003));
    assert!(mont.pow(&Uint::from(99), &Uint::ZERO).is_one(), "x^0 = 1");
}

#[test]
#[should_panic(expected = "odd")]
fn montgomery_rejects_even_modulus() {
    let _ = Montgomery::new(Uint::<1>::from(10));
}

/// `gen_prime` at 64, 128 and 1024 bits, each from `StdRng` seeded with its
/// bit count, as the `Vec`-limb integer that `Uint` replaced drew them.
#[test]
fn gen_prime_matches_the_replaced_integer() {
    let golden: [(usize, &str); 3] = [
        (64, "c902b5ef0ab2a3d5"),
        (128, "db59b24d144414646fa171ae5d37123f"),
        (1024, "c09ffcc8a1822a9dd6d1c71ff5579ff88b172698f8c443bfb825eaa3a7494e5d1e1cc4ab0bcd8583ee8bb4505bf5703a374b53c21fee953760c8e4c774d0bf9dc1121d6b14f3b197bbd5a37f2f52c0b640f92c3e3f7dba6715ab3ab0c156ce294768ff28717ea14d0bb0a1086751258cfd668b719f22346217ab9620647c4681"),
    ];
    for (bits, hex) in golden {
        let p: Uint<16> = rhychee_bigint::gen_prime(&mut StdRng::seed_from_u64(bits as u64), bits);
        assert_eq!(format!("{p:x}"), hex, "{bits} bits");
    }
}
