//! RLWE/RGSW machinery for the bootstrap accumulator: gadget
//! decomposition, external products, and the CMUX gate.
//!
//! The accumulator ring is `Z_Q[X]/(X^N + 1)` with an NTT-friendly prime
//! `Q`, so every polynomial product runs through the same
//! [`NttTable`] backend as CKKS.

use rand::Rng;

use crate::ckks::modarith::{add_mod, mul_mod, signed_residue, sub_mod};
use crate::ckks::ntt::NttTable;
use crate::sampling::{ternary_vec, GaussianSampler};

/// An RLWE ciphertext `(a, b)` with `b = a·s + e + m`, coefficient
/// domain, modulus `Q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RlweCiphertext {
    /// Mask polynomial.
    pub a: Vec<u64>,
    /// Body polynomial.
    pub b: Vec<u64>,
}

impl RlweCiphertext {
    /// The all-zero (trivial, noiseless) encryption of `m`.
    pub fn trivial(m: Vec<u64>) -> Self {
        RlweCiphertext { a: vec![0; m.len()], b: m }
    }

    /// Ring degree.
    pub fn degree(&self) -> usize {
        self.b.len()
    }

    /// Adds another ciphertext in place.
    pub fn add_assign(&mut self, rhs: &RlweCiphertext, q: u64) {
        for (x, &y) in self.a.iter_mut().zip(&rhs.a) {
            *x = add_mod(*x, y, q);
        }
        for (x, &y) in self.b.iter_mut().zip(&rhs.b) {
            *x = add_mod(*x, y, q);
        }
    }

    /// Multiplies by the monomial `X^k` (negacyclic rotation), `k` taken
    /// modulo `2N`.
    pub fn rotate(&self, k: usize, q: u64) -> RlweCiphertext {
        RlweCiphertext { a: rotate_poly(&self.a, k, q), b: rotate_poly(&self.b, k, q) }
    }
}

/// Negacyclic multiplication of a polynomial by `X^k`.
pub fn rotate_poly(p: &[u64], k: usize, q: u64) -> Vec<u64> {
    let n = p.len();
    let k = k % (2 * n);
    let mut out = vec![0u64; n];
    for (i, &c) in p.iter().enumerate() {
        let j = (i + k) % (2 * n);
        if j < n {
            out[j] = add_mod(out[j], c, q);
        } else {
            out[j - n] = sub_mod(out[j - n], c, q);
        }
    }
    out
}

/// Signed base-B gadget decomposition.
///
/// Splits each coefficient into `levels` digits such that
/// `Σ digit_j · B^j = x̃` exactly, where `x̃` is the centred lift of `x`.
/// The low `levels − 1` digits are balanced into `[−B/2, B/2)`; the top
/// digit absorbs the final carry and is bounded by `B/2 + 1`, which
/// keeps the decomposition exact across the whole centred range even
/// when `B^levels` only barely covers `Q` (balanced digits alone top out
/// at `(B/2 − 1)·(B^levels − 1)/(B − 1) < Q/2` in that regime). Signed
/// digits halve the noise growth of external products versus plain
/// positional digits.
#[derive(Debug, Clone)]
pub struct GadgetDecomposer {
    q: u64,
    log_base: u32,
    levels: usize,
}

impl GadgetDecomposer {
    /// Creates a decomposer with base `2^log_base` and `levels` digits.
    ///
    /// # Panics
    ///
    /// Panics unless `levels · log_base` covers the modulus bits.
    pub fn new(q: u64, log_base: u32, levels: usize) -> Self {
        let q_bits = 64 - (q - 1).leading_zeros();
        assert!(
            levels as u32 * log_base >= q_bits,
            "gadget {levels} x 2^{log_base} does not cover a {q_bits}-bit modulus"
        );
        GadgetDecomposer { q, log_base, levels }
    }

    /// Number of digits per coefficient.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The gadget factors `B^j` for `j = 0..levels`.
    pub fn factors(&self) -> Vec<u64> {
        (0..self.levels).map(|j| 1u64 << (self.log_base * j as u32)).collect()
    }

    /// Decomposes a polynomial into `levels` signed-digit polynomials
    /// (each returned as residues mod Q).
    ///
    /// Coefficients are first lifted to their centred representative in
    /// `(−Q/2, Q/2]`, which signed digits of `levels` base-B positions
    /// cover exactly (the constructor guarantees `B^levels ≥ Q`).
    pub fn decompose(&self, poly: &[u64]) -> Vec<Vec<u64>> {
        let base = 1i64 << self.log_base;
        let half = base / 2;
        let mut out = vec![vec![0u64; poly.len()]; self.levels];
        for (i, &x) in poly.iter().enumerate() {
            // Centred lift.
            let mut v: i64 = if x > self.q / 2 { x as i64 - self.q as i64 } else { x as i64 };
            for (j, level) in out.iter_mut().enumerate() {
                let digit = if j + 1 == self.levels {
                    // The top digit takes the remainder verbatim: after
                    // `levels − 1` centred-rounding steps |v| ≤ B/2 + 1,
                    // so this stays a small digit and the sum is exact.
                    std::mem::take(&mut v)
                } else {
                    let mut d = v.rem_euclid(base);
                    v = v.div_euclid(base);
                    if d >= half {
                        d -= base;
                        v += 1;
                    }
                    d
                };
                debug_assert!(digit.unsigned_abs() <= (base as u64) / 2 + 1);
                level[i] = if digit < 0 { self.q - (-digit as u64) } else { digit as u64 };
            }
        }
        out
    }
}

/// An RGSW ciphertext: `2·levels` RLWE rows encrypting `m·B^j` in the
/// two gadget columns, stored in the NTT domain for fast external
/// products.
#[derive(Debug, Clone)]
pub struct RgswCiphertext {
    /// Rows encrypting `−s·m·B^j` in the `a` slot ("a-column"), NTT domain.
    rows_a: Vec<(Vec<u64>, Vec<u64>)>,
    /// Rows encrypting `m·B^j` in the `b` slot ("b-column"), NTT domain.
    rows_b: Vec<(Vec<u64>, Vec<u64>)>,
}

impl RgswCiphertext {
    /// Encrypts a small integer `m` (typically a secret bit) under the
    /// RLWE key `s` (coefficient domain, signed).
    pub fn encrypt<R: Rng + ?Sized>(
        m: u64,
        s: &[i64],
        table: &NttTable,
        decomposer: &GadgetDecomposer,
        noise: &GaussianSampler,
        rng: &mut R,
    ) -> Self {
        let q = table.modulus();
        let n = table.degree();
        let s_res: Vec<u64> = s.iter().map(|&c| signed_residue(c, q)).collect();
        let mut s_ntt = s_res.clone();
        table.forward(&mut s_ntt);

        let fresh_rlwe = |message: &[u64], rng: &mut R| -> (Vec<u64>, Vec<u64>) {
            // b = a·s + e + message
            let mut a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let mut a_ntt = a.clone();
            table.forward(&mut a_ntt);
            let mut b_ntt: Vec<u64> =
                a_ntt.iter().zip(&s_ntt).map(|(&x, &y)| mul_mod(x, y, q)).collect();
            table.inverse(&mut b_ntt);
            let mut e = vec![0i64; n];
            noise.fill(rng, &mut e);
            for ((bi, &ei), &mi) in b_ntt.iter_mut().zip(&e).zip(message) {
                let e_res = signed_residue(ei, q);
                *bi = add_mod(add_mod(*bi, e_res, q), mi, q);
            }
            // Store both halves in NTT domain.
            table.forward(&mut a);
            table.forward(&mut b_ntt);
            (a, b_ntt)
        };

        let factors = decomposer.factors();
        let mut rows_a = Vec::with_capacity(factors.len());
        let mut rows_b = Vec::with_capacity(factors.len());
        for &f in &factors {
            let scaled = mul_mod(m % q, f % q, q);
            // a-column row: RLWE(0) + (scaled, 0)·... i.e. add scaled to `a`.
            let (mut a0, b0) = fresh_rlwe(&vec![0u64; n], rng);
            // Adding `scaled` to the a-part corresponds to encrypting −s·m·B^j.
            let mut scaled_ntt = vec![0u64; n];
            scaled_ntt[0] = scaled;
            table.forward(&mut scaled_ntt);
            for (x, &y) in a0.iter_mut().zip(&scaled_ntt) {
                *x = add_mod(*x, y, q);
            }
            rows_a.push((a0, b0));
            // b-column row: RLWE(m·B^j).
            let mut msg = vec![0u64; n];
            msg[0] = scaled;
            rows_b.push(fresh_rlwe(&msg, rng));
        }
        RgswCiphertext { rows_a, rows_b }
    }

    /// External product `self ⊡ ct`: multiplies the RGSW plaintext into
    /// the RLWE ciphertext. `ct` is in coefficient domain; so is the
    /// result.
    pub fn external_product(
        &self,
        ct: &RlweCiphertext,
        table: &NttTable,
        decomposer: &GadgetDecomposer,
    ) -> RlweCiphertext {
        let q = table.modulus();
        let n = table.degree();
        let dig_a = decomposer.decompose(&ct.a);
        let dig_b = decomposer.decompose(&ct.b);
        let mut acc_a = vec![0u64; n];
        let mut acc_b = vec![0u64; n];
        for (level, (da, db)) in dig_a.iter().zip(&dig_b).enumerate() {
            let mut da_ntt = da.clone();
            let mut db_ntt = db.clone();
            table.forward(&mut da_ntt);
            table.forward(&mut db_ntt);
            let (ra, rb_of_a) = &self.rows_a[level];
            let (rb_a, rb_b) = &self.rows_b[level];
            for i in 0..n {
                // a-digit hits the a-column rows, b-digit the b-column rows.
                let ta = add_mod(mul_mod(da_ntt[i], ra[i], q), mul_mod(db_ntt[i], rb_a[i], q), q);
                let tb =
                    add_mod(mul_mod(da_ntt[i], rb_of_a[i], q), mul_mod(db_ntt[i], rb_b[i], q), q);
                acc_a[i] = add_mod(acc_a[i], ta, q);
                acc_b[i] = add_mod(acc_b[i], tb, q);
            }
        }
        table.inverse(&mut acc_a);
        table.inverse(&mut acc_b);
        RlweCiphertext { a: acc_a, b: acc_b }
    }

    /// The GINX CMUX accumulator step:
    /// `acc ← acc + (X^k − 1) ⊙ (self ⊡ acc)`.
    ///
    /// When the RGSW plaintext is a secret bit `s_i`, this multiplies the
    /// accumulator by `X^{k·s_i}`.
    pub fn cmux_rotate(
        &self,
        acc: &RlweCiphertext,
        k: usize,
        table: &NttTable,
        decomposer: &GadgetDecomposer,
    ) -> RlweCiphertext {
        let q = table.modulus();
        let prod = self.external_product(acc, table, decomposer);
        // (X^k − 1)·prod = rotate(prod, k) − prod.
        let rotated = prod.rotate(k, q);
        let mut out = acc.clone();
        for i in 0..out.a.len() {
            out.a[i] = add_mod(out.a[i], sub_mod(rotated.a[i], prod.a[i], q), q);
            out.b[i] = add_mod(out.b[i], sub_mod(rotated.b[i], prod.b[i], q), q);
        }
        out
    }
}

/// Decrypts an RLWE ciphertext (test helper): `m = b − a·s`.
#[cfg(test)]
pub fn rlwe_decrypt(ct: &RlweCiphertext, s: &[i64], table: &NttTable) -> Vec<u64> {
    let q = table.modulus();
    let s_res: Vec<u64> = s.iter().map(|&c| signed_residue(c, q)).collect();
    let a_s = table.multiply(&ct.a, &s_res);
    ct.b.iter().zip(&a_s).map(|(&b, &x)| sub_mod(b, x, q)).collect()
}

/// Samples a ternary RLWE key in signed form.
pub fn sample_rlwe_key<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<i64> {
    ternary_vec(rng, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckks::modarith::find_ntt_primes;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup() -> (NttTable, GadgetDecomposer, Vec<i64>, StdRng) {
        let n = 64usize;
        let q = find_ntt_primes(27, 1, 2 * n as u64)[0];
        let table = NttTable::new(n, q);
        let decomposer = GadgetDecomposer::new(q, 9, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let key = sample_rlwe_key(n, &mut rng);
        (table, decomposer, key, rng)
    }

    fn noise() -> GaussianSampler {
        GaussianSampler::new(3.2)
    }

    /// Max absolute centred error of a decrypted RLWE message.
    fn max_err(decrypted: &[u64], expected: &[u64], q: u64) -> u64 {
        decrypted
            .iter()
            .zip(expected)
            .map(|(&d, &e)| {
                let diff = (d + q - e) % q;
                diff.min(q - diff)
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn gadget_decomposition_reconstructs() {
        let (table, decomposer, _, mut rng) = setup();
        let q = table.modulus();
        let poly: Vec<u64> =
            (0..table.degree()).map(|_| rand::Rng::gen_range(&mut rng, 0..q)).collect();
        let digits = decomposer.decompose(&poly);
        let factors = decomposer.factors();
        let mut recon = vec![0u64; poly.len()];
        for (digit_poly, &f) in digits.iter().zip(&factors) {
            for (r, &d) in recon.iter_mut().zip(digit_poly) {
                *r = add_mod(*r, mul_mod(d, f % q, q), q);
            }
        }
        // The top digit absorbs the final carry, so signed decomposition
        // reconstructs exactly modulo Q.
        let err = max_err(&recon, &poly, q);
        assert_eq!(err, 0, "reconstruction error {err}");
    }

    #[test]
    fn gadget_decomposition_covers_the_centred_extremes() {
        // Regression: with q close to B^levels, balanced digits alone top
        // out at (B/2 − 1)·(B³ − 1)/(B − 1) < q/2 and values near ±q/2
        // used to leave a nonzero final carry (observed at x = 66995341,
        // q = 134215681).
        let q = 134_215_681u64;
        let decomposer = GadgetDecomposer::new(q, 9, 3);
        let factors = decomposer.factors();
        for x in [66_995_341, q / 2, q / 2 + 1, q - 1, 1, 0, 66_977_535, 66_977_536] {
            let digits = decomposer.decompose(&[x]);
            let mut recon = 0u64;
            for (digit_poly, &f) in digits.iter().zip(&factors) {
                recon = add_mod(recon, mul_mod(digit_poly[0], f % q, q), q);
            }
            assert_eq!(recon, x % q, "exact reconstruction of {x}");
        }
    }

    #[test]
    fn digits_are_centred() {
        let (table, decomposer, _, mut rng) = setup();
        let q = table.modulus();
        let poly: Vec<u64> =
            (0..table.degree()).map(|_| rand::Rng::gen_range(&mut rng, 0..q)).collect();
        let half = 1u64 << 8; // B/2 for B = 2^9
        for digit_poly in decomposer.decompose(&poly) {
            for &d in &digit_poly {
                let centred = d.min(q - d);
                // The top digit may carry one unit past B/2.
                assert!(centred <= half + 1, "digit {d} exceeds B/2 + 1");
            }
        }
    }

    #[test]
    fn rotate_poly_negacyclic() {
        let q = 97u64;
        let p = vec![1u64, 2, 3, 0];
        // X^1: (0,1,2,3) with wrap 3·X^4 = -3.
        assert_eq!(rotate_poly(&p, 1, q), vec![0, 1, 2, 3]);
        assert_eq!(rotate_poly(&p, 2, q), vec![q - 3, 0, 1, 2]);
        // Full 2N rotation is the identity.
        assert_eq!(rotate_poly(&p, 8, q), p);
        // X^N = −1.
        assert_eq!(rotate_poly(&p, 4, q), vec![q - 1, q - 2, q - 3, 0]);
    }

    #[test]
    fn external_product_by_one_preserves_message() {
        let (table, decomposer, key, mut rng) = setup();
        let q = table.modulus();
        let n = table.degree();
        // Message scaled well above the noise floor.
        let delta = q / 16;
        let mut m = vec![0u64; n];
        m[0] = delta;
        m[3] = mul_mod(3, delta, q);
        let ct = RlweCiphertext::trivial(m.clone());
        let rgsw_one = RgswCiphertext::encrypt(1, &key, &table, &decomposer, &noise(), &mut rng);
        let out = rgsw_one.external_product(&ct, &table, &decomposer);
        let dec = rlwe_decrypt(&out, &key, &table);
        let err = max_err(&dec, &m, q);
        assert!(err < delta / 8, "noise {err} too large vs delta {delta}");
    }

    #[test]
    fn external_product_by_zero_annihilates() {
        let (table, decomposer, key, mut rng) = setup();
        let q = table.modulus();
        let n = table.degree();
        let mut m = vec![0u64; n];
        m[0] = q / 4;
        let ct = RlweCiphertext::trivial(m);
        let rgsw_zero = RgswCiphertext::encrypt(0, &key, &table, &decomposer, &noise(), &mut rng);
        let out = rgsw_zero.external_product(&ct, &table, &decomposer);
        let dec = rlwe_decrypt(&out, &key, &table);
        let err = max_err(&dec, &vec![0u64; n], q);
        assert!(err < q / 64, "zero product must leave only noise, got {err}");
    }

    #[test]
    fn cmux_rotates_when_bit_set() {
        let (table, decomposer, key, mut rng) = setup();
        let q = table.modulus();
        let n = table.degree();
        let delta = q / 16;
        let mut m = vec![0u64; n];
        m[0] = delta;
        let acc = RlweCiphertext::trivial(m.clone());

        // Bit = 1: accumulator rotates by X^k.
        let rgsw_one = RgswCiphertext::encrypt(1, &key, &table, &decomposer, &noise(), &mut rng);
        let rotated = rgsw_one.cmux_rotate(&acc, 5, &table, &decomposer);
        let dec = rlwe_decrypt(&rotated, &key, &table);
        let expected = rotate_poly(&m, 5, q);
        assert!(max_err(&dec, &expected, q) < delta / 8);

        // Bit = 0: accumulator unchanged.
        let rgsw_zero = RgswCiphertext::encrypt(0, &key, &table, &decomposer, &noise(), &mut rng);
        let same = rgsw_zero.cmux_rotate(&acc, 5, &table, &decomposer);
        let dec = rlwe_decrypt(&same, &key, &table);
        assert!(max_err(&dec, &m, q) < delta / 8);
    }

    #[test]
    fn chained_cmux_accumulates_rotations() {
        let (table, decomposer, key, mut rng) = setup();
        let q = table.modulus();
        let n = table.degree();
        let delta = q / 16;
        let mut m = vec![0u64; n];
        m[0] = delta;
        let mut acc = RlweCiphertext::trivial(m.clone());
        let bits = [1u64, 0, 1, 1];
        let ks = [3usize, 7, 11, 2];
        let mut total = 0usize;
        for (&bit, &k) in bits.iter().zip(&ks) {
            let rgsw = RgswCiphertext::encrypt(bit, &key, &table, &decomposer, &noise(), &mut rng);
            acc = rgsw.cmux_rotate(&acc, k, &table, &decomposer);
            total += bit as usize * k;
        }
        let dec = rlwe_decrypt(&acc, &key, &table);
        let expected = rotate_poly(&m, total, q);
        assert!(max_err(&dec, &expected, q) < delta / 4, "chained CMUX drifted");
    }
}
