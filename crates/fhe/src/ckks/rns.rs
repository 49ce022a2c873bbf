//! Residue-number-system (RNS) polynomials for CKKS.
//!
//! A ring element of `R_Q = Z_Q[X]/(X^N + 1)` with `Q = q_0 · q_1 ⋯ q_L`
//! is stored as one residue row per prime, the rows of one polynomial
//! side by side in one buffer. All homomorphic operations act
//! independently per prime, which keeps every limb in native `u64`
//! arithmetic. The one multi-word step is the CRT lift back to integers
//! (decryption's decode and `ThresholdGroup::combine`): `CrtBasis` runs
//! it exactly on fixed-width `u64` limbs, a tile of coefficients at a
//! time, with no heap traffic per coefficient and no cap on the chain.

use rhychee_par::Parallelism;

use super::modarith::{add_mod, inv_mod, mul_mod, neg_mod, signed_residue};
use super::ntt::{mul_shoup, shoup};

/// Which basis the residue rows of an [`RnsPoly`] are expressed in.
///
/// `Coeff` rows hold polynomial coefficients; `Eval` rows hold the values
/// of the negacyclic NTT at the 2N-th roots (the "double-CRT" form).
/// Every ciphertext component is `Eval`, always; `Coeff` is where bare
/// polynomials live on their way in or out (an encoded message, noise,
/// a key share, the `m` decryption reconstructs). The tag is therefore
/// an assertion, not a state: the operations that only make sense on
/// coefficients (CRT decoding, the negacyclic product) check it, and no
/// product code branches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Domain {
    /// Coefficient domain: residue `j` of row `i` is coefficient `j`
    /// mod `q_i`.
    Coeff,
    /// Evaluation (NTT) domain: residue `j` of row `i` is the transform
    /// point `j` of the negacyclic NTT mod `q_i`.
    Eval,
}

/// A polynomial in RNS representation, tagged with the basis its rows
/// are in (coefficients, or NTT evaluation points).
///
/// The residues are one `levels × N` buffer, prime-major: row `i` (every
/// coefficient or evaluation point reduced modulo prime `i`) is
/// `residues[i·N..(i + 1)·N]`, so a polynomial is one allocation. This
/// type is the only code that knows the layout; everything else takes
/// rows as slices, one at a time (`residues`, `residues_mut`) or all in
/// prime order (`rows`, `rows_mut`). The active primes are the first
/// `levels` of the chain (the *level* of the polynomial). The row count
/// is stored and N derived from it, so a polynomial with no rows has no
/// coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    residues: Vec<u64>,
    levels: usize,
    domain: Domain,
}

impl RnsPoly {
    /// The all-zero coefficient-domain polynomial at the given degree and
    /// level.
    pub(crate) fn zero(n: usize, levels: usize) -> Self {
        Self::zero_in(n, levels, Domain::Coeff)
    }

    /// The all-zero polynomial in an explicit domain (zero is the same
    /// ring element either way).
    pub(crate) fn zero_in(n: usize, levels: usize, domain: Domain) -> Self {
        RnsPoly { residues: vec![0u64; levels * n], levels, domain }
    }

    /// Retags a coefficient-domain polynomial after the caller
    /// forward-transformed every row in place.
    pub(crate) fn set_eval(&mut self) {
        debug_assert_eq!(self.domain, Domain::Coeff, "forward transform of evaluation rows");
        self.domain = Domain::Eval;
    }

    /// Retags an evaluation-domain polynomial after the caller
    /// inverse-transformed every row in place.
    pub(crate) fn set_coeff(&mut self) {
        debug_assert_eq!(self.domain, Domain::Eval, "inverse transform of coefficient rows");
        self.domain = Domain::Coeff;
    }

    /// Whether the rows hold coefficients rather than evaluation points
    /// — for assertions; nothing branches on it.
    pub(crate) fn is_coeff(&self) -> bool {
        self.domain == Domain::Coeff
    }

    /// The first `levels` residue rows, as a polynomial of its own.
    pub(crate) fn truncated(&self, levels: usize) -> RnsPoly {
        let residues = self.residues[..levels * self.degree()].to_vec();
        RnsPoly { residues, levels, domain: self.domain }
    }

    /// Builds an RNS polynomial from signed coefficients.
    ///
    /// Each coefficient is reduced into `[0, q_i)` per prime, mapping
    /// negative values to `q_i - |c|`.
    pub fn from_signed_coeffs(coeffs: &[i64], primes: &[u64]) -> Self {
        let mut residues = Vec::with_capacity(primes.len() * coeffs.len());
        for &q in primes {
            residues.extend(coeffs.iter().map(|&c| signed_residue(c, q)));
        }
        RnsPoly { residues, levels: primes.len(), domain: Domain::Coeff }
    }

    /// Reshapes to `levels` rows of `n` residues and retags the domain,
    /// reusing the allocation where it is large enough. Row contents are
    /// unspecified afterwards — callers must overwrite them.
    pub(crate) fn ensure_shape(&mut self, n: usize, levels: usize, domain: Domain) {
        self.residues.resize(levels * n, 0);
        self.levels = levels;
        self.domain = domain;
    }

    /// Heap bytes held by the residues (capacity, not length).
    pub(crate) fn heap_bytes(&self) -> u64 {
        8 * self.residues.capacity() as u64
    }

    /// Ring degree N (0 for a polynomial with no rows).
    pub(crate) fn degree(&self) -> usize {
        self.residues.len().checked_div(self.levels).unwrap_or(0)
    }

    /// Number of active primes (level + 1).
    pub(crate) fn levels(&self) -> usize {
        self.levels
    }

    /// Residues of this polynomial modulo the `i`-th prime.
    pub(crate) fn residues(&self, i: usize) -> &[u64] {
        let n = self.degree();
        &self.residues[i * n..][..n]
    }

    /// Mutable residues modulo the `i`-th prime.
    pub(crate) fn residues_mut(&mut self, i: usize) -> &mut [u64] {
        let n = self.degree();
        &mut self.residues[i * n..][..n]
    }

    /// The residue rows in prime order (none when N is 0).
    pub(crate) fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.residues.chunks_exact(self.degree().max(1))
    }

    /// The residue rows in prime order, mutably, for kernels that walk
    /// the primes in one loop (none when N is 0).
    pub(crate) fn rows_mut(&mut self) -> std::slice::ChunksExactMut<'_, u64> {
        let n = self.degree().max(1);
        self.residues.chunks_exact_mut(n)
    }

    /// Element-wise addition. Operands must share degree and level.
    ///
    /// # Panics
    ///
    /// Panics on mismatched shapes.
    pub(crate) fn add(&self, rhs: &RnsPoly, primes: &[u64]) -> RnsPoly {
        let mut sum = self.clone();
        sum.add_assign(rhs, primes);
        sum
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics on mismatched shapes.
    pub(crate) fn add_assign(&mut self, rhs: &RnsPoly, primes: &[u64]) {
        assert_eq!(self.levels, rhs.levels, "level mismatch");
        assert_eq!(self.degree(), rhs.degree(), "degree mismatch");
        assert_eq!(self.domain, rhs.domain, "operands in different bases");
        for ((row, other), &q) in self.rows_mut().zip(rhs.rows()).zip(primes) {
            for (a, &b) in row.iter_mut().zip(other) {
                *a = add_mod(*a, b, q);
            }
        }
    }

    /// Negation.
    pub(crate) fn neg(&self, primes: &[u64]) -> RnsPoly {
        let mut out = self.clone();
        for (row, &q) in out.rows_mut().zip(primes) {
            for a in row {
                *a = neg_mod(*a, q);
            }
        }
        out
    }

    /// Multiplies every coefficient by a signed scalar: one Shoup
    /// quotient per prime, then a division-free product per coefficient.
    pub(crate) fn mul_scalar_signed(&self, scalar: i64, primes: &[u64]) -> RnsPoly {
        let mut residues = Vec::with_capacity(self.residues.len());
        for (row, &q) in self.rows().zip(primes) {
            let s = signed_residue(scalar, q);
            let s_shoup = shoup(s, q);
            residues.extend(row.iter().map(|&a| mul_shoup(a, s, s_shoup, q)));
        }
        RnsPoly { residues, levels: self.levels, domain: self.domain }
    }

    /// Drops the last prime, rescaling by it: `x ↦ round(x / q_last)`.
    ///
    /// The textbook coefficient-domain RNS rescale — for each remaining
    /// prime `q_i`, `(x_i − x_last) · q_last^{-1} mod q_i` — kept as the
    /// oracle the evaluation-domain rescale in `cipher.rs` is tested
    /// against; no product code runs it.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial has only one level.
    #[cfg(test)]
    pub(crate) fn rescale(&self, primes: &[u64]) -> RnsPoly {
        use super::modarith::sub_mod;
        let l = self.levels();
        assert!(l >= 2, "cannot rescale a level-0 polynomial");
        assert_eq!(self.domain, Domain::Coeff, "rescale requires coefficient domain");
        let q_last = primes[l - 1];
        let last = self.residues(l - 1);
        let mut out = self.truncated(l - 1);
        for (xs, &q) in out.rows_mut().zip(primes) {
            let q_last_inv = inv_mod(q_last % q, q);
            for (xi, &xl) in xs.iter_mut().zip(last) {
                // Centered lift of x_last before reduction mod q_i so
                // the rounding error stays within ±1/2.
                let xl_centered = if xl > q_last / 2 {
                    sub_mod(*xi, (xl + q - (q_last % q)) % q, q)
                } else {
                    sub_mod(*xi, xl % q, q)
                };
                *xi = mul_mod(xl_centered, q_last_inv, q);
            }
        }
        out
    }

    /// CRT-reconstructs each coefficient to a centered `f64` value.
    ///
    /// Coefficients are lifted to `[0, Q)`, re-centered into
    /// `(-Q/2, Q/2]`, and converted to `f64`. The message magnitude in
    /// CKKS is far below `Q/2`, so the conversion is exact enough for
    /// decoding.
    pub(crate) fn to_centered_f64(&self, primes: &[u64]) -> Vec<f64> {
        self.to_centered_f64_with(primes, Parallelism::sequential())
    }

    /// `RnsPoly::to_centered_f64` with coefficients reconstructed in
    /// up to `par.degree()` contiguous chunks of whole tiles, each
    /// written straight into the returned vector. Each coefficient is
    /// independent, so the result is bit-identical for every degree.
    pub fn to_centered_f64_with(&self, primes: &[u64], par: Parallelism) -> Vec<f64> {
        let l = self.levels();
        assert_eq!(self.domain, Domain::Coeff, "CRT decode requires coefficient domain");
        let active = &primes[..l];
        if l == 1 {
            // Centre on the integers (`q < 2^63`): `x as f64 − q as f64`
            // would round a 61-bit residue to a multiple of 256 before
            // the subtraction and bury a small negative coefficient.
            let half = active[0] / 2;
            let q = active[0] as i64;
            return self
                .residues(0)
                .iter()
                .map(|&x| if x > half { (x as i64 - q) as f64 } else { x as i64 as f64 })
                .collect();
        }
        let basis = CrtBasis::new(active);
        let mut out = vec![0.0f64; self.degree()];
        let chunk = out.len().div_ceil(par.degree()).next_multiple_of(TILE).max(TILE);
        let mut blocks: Vec<&mut [f64]> = out.chunks_mut(chunk).collect();
        rhychee_par::for_each_mut(par, &mut blocks, |b, block| {
            basis.centered_f64_into(self, b * chunk, block);
        });
        out
    }
}

/// Coefficients lifted per tile: each prime's residue row is read in
/// contiguous runs of this length, and the tile's working set of
/// `(k + 2) · TILE` words stays in L1.
const TILE: usize = 64;

/// `2^64` — the limb radix of the integer → `f64` Horner evaluation.
const LIMB_RADIX: f64 = 1.8446744073709552e19;

/// Exact Chinese-remainder lift for one prime basis on fixed-width
/// little-endian `u64` limbs.
///
/// A coefficient with residues `rᵢ` lifts to `Σ q̂ᵢ·tᵢ mod Q`, where
/// `q̂ᵢ = Q/qᵢ` and `tᵢ = rᵢ·q̂ᵢ⁻¹ mod qᵢ`. The sum is below `L·Q`, so
/// `k = ⌈(Σ bits(qᵢ) + ⌈log₂ L⌉) / 64⌉` limbs hold it and `L − 1`
/// conditional subtractions of `Q` reduce it: no division, nothing
/// allocated per coefficient, and `k` grows with the chain instead of
/// capping it.
///
/// Work runs a tile of [`TILE`] coefficients at a time in limb-major
/// scratch (`words[m · TILE + j]` is limb `m` of coefficient `j`), so
/// every inner loop is a straight pass over independent lanes.
struct CrtBasis<'a> {
    primes: &'a [u64],
    /// Limbs per lifted integer.
    k: usize,
    /// `Q`, `k` limbs.
    q: Vec<u64>,
    /// `⌊Q/2⌋`, `k` limbs.
    half_q: Vec<u64>,
    /// `q̂ᵢ`, `k` limbs per prime, prime-major.
    q_hat: Vec<u64>,
    /// `q̂ᵢ⁻¹ mod qᵢ` with its Shoup quotient.
    q_hat_inv: Vec<(u64, u64)>,
}

impl<'a> CrtBasis<'a> {
    /// Precomputes the lift constants for a basis of distinct primes.
    fn new(primes: &'a [u64]) -> Self {
        let l = primes.len();
        let bits: u32 = primes.iter().map(|&q| 64 - q.leading_zeros()).sum();
        let k = (bits + l.next_power_of_two().trailing_zeros()).div_ceil(64).max(1) as usize;
        let others = |i: usize| primes.iter().enumerate().filter(move |&(j, _)| j != i);
        let q = limb_product(primes.iter().copied(), k);
        let half_q = (0..k).map(|m| q[m] >> 1 | q.get(m + 1).map_or(0, |&hi| hi << 63)).collect();
        let q_hat = (0..l).flat_map(|i| limb_product(others(i).map(|(_, &p)| p), k)).collect();
        let q_hat_inv = (primes.iter().enumerate())
            .map(|(i, &qi)| {
                let hat = others(i).fold(1, |acc, (_, &p)| mul_mod(acc, p % qi, qi));
                let inv = inv_mod(hat, qi);
                (inv, shoup(inv, qi))
            })
            .collect();
        CrtBasis { primes, k, q, half_q, q_hat, q_hat_inv }
    }

    /// Lifts coefficients `at..at + len` (`len ≤ TILE`) of the rows in
    /// `residues` (an [`RnsPoly`]'s buffer, row `i` at `i·n`) to the
    /// centred representative in `(−Q/2, Q/2]`. Returns its magnitude
    /// (limb-major, `k · TILE` words) and, per coefficient, a non-zero
    /// flag where it is negative.
    ///
    /// Residues need not be canonical: any `u64` is first reduced by the
    /// Shoup product, to the value `mul_mod` would give.
    fn lift<'s>(
        &self,
        residues: &[u64],
        n: usize,
        at: usize,
        len: usize,
        words: &'s mut [u64],
    ) -> (&'s [u64], &'s [u64]) {
        let k = self.k;
        let (mag, rest) = words.split_at_mut(k * TILE);
        let (flag, aux) = rest.split_at_mut(TILE);
        let (flag, aux) = (&mut flag[..len], &mut aux[..len]);

        // mag = Σ q̂ᵢ·tᵢ, one prime at a time: `aux` holds tᵢ, `flag` the
        // carry between limbs.
        mag.fill(0);
        for (i, (&q, &(inv, inv_shoup))) in self.primes.iter().zip(&self.q_hat_inv).enumerate() {
            for (t, &r) in aux.iter_mut().zip(&residues[i * n + at..][..len]) {
                *t = mul_shoup(r, inv, inv_shoup, q);
            }
            flag.fill(0);
            for (limb, &hat) in mag.chunks_exact_mut(TILE).zip(&self.q_hat[i * k..][..k]) {
                for ((a, carry), &t) in limb.iter_mut().zip(flag.iter_mut()).zip(aux.iter()) {
                    let wide =
                        u128::from(hat) * u128::from(t) + u128::from(*a) + u128::from(*carry);
                    *a = wide as u64;
                    *carry = (wide >> 64) as u64;
                }
            }
            assert!(flag.iter().all(|&carry| carry == 0), "CRT sum left its {k} limbs");
        }

        // mag < L·Q: subtract Q wherever mag ≥ Q, L − 1 times.
        for _ in 1..self.primes.len() {
            flag.fill(0);
            for (limb, &q) in mag.chunks_exact(TILE).zip(&self.q) {
                for (&a, borrow) in limb.iter().zip(flag.iter_mut()) {
                    *borrow = sub_borrow(a, q, *borrow).1;
                }
            }
            aux.fill(0);
            for (limb, &q) in mag.chunks_exact_mut(TILE).zip(&self.q) {
                for ((a, &below), borrow) in limb.iter_mut().zip(flag.iter()).zip(aux.iter_mut()) {
                    (*a, *borrow) = sub_borrow(*a, if below == 0 { q } else { 0 }, *borrow);
                }
            }
        }

        // Negative where mag > ⌊Q/2⌋ (⌊Q/2⌋ − mag borrows): mag = Q − mag.
        flag.fill(0);
        for (limb, &half) in mag.chunks_exact(TILE).zip(&self.half_q) {
            for (&a, borrow) in limb.iter().zip(flag.iter_mut()) {
                *borrow = sub_borrow(half, a, *borrow).1;
            }
        }
        aux.fill(0);
        for (limb, &q) in mag.chunks_exact_mut(TILE).zip(&self.q) {
            for ((a, &negative), borrow) in limb.iter_mut().zip(flag.iter()).zip(aux.iter_mut()) {
                let (flipped, b) = sub_borrow(q, *a, *borrow);
                *borrow = b;
                if negative != 0 {
                    *a = flipped;
                }
            }
        }
        (mag, flag)
    }

    /// Writes the centred value of coefficients `at..at + out.len()` of
    /// `poly` into `out`, Horner-evaluating each magnitude from its top
    /// limb (`f = f·2⁶⁴ + limb`, one rounding per step).
    fn centered_f64_into(&self, poly: &RnsPoly, at: usize, out: &mut [f64]) {
        let (residues, n) = (&poly.residues[..], poly.degree());
        // `k` magnitude limbs plus two lane-wide temporaries per tile.
        let mut words = vec![0u64; (self.k + 2) * TILE];
        for (t, block) in out.chunks_mut(TILE).enumerate() {
            let (mag, negative) = self.lift(residues, n, at + t * TILE, block.len(), &mut words);
            block.fill(0.0);
            for limb in mag.chunks_exact(TILE).rev() {
                for (f, &a) in block.iter_mut().zip(limb) {
                    *f = *f * LIMB_RADIX + a as f64;
                }
            }
            for (f, &neg) in block.iter_mut().zip(negative) {
                if neg != 0 {
                    *f = -*f;
                }
            }
        }
    }
}

/// `a − b − borrow` on one limb; the borrow out is 0 or 1.
#[inline(always)]
fn sub_borrow(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let (d, b1) = a.overflowing_sub(b);
    let (d, b2) = d.overflowing_sub(borrow);
    (d, u64::from(b1 | b2))
}

/// The product of `factors` as `limbs` little-endian limbs.
fn limb_product(factors: impl Iterator<Item = u64>, limbs: usize) -> Vec<u64> {
    let mut acc = vec![0u64; limbs];
    acc[0] = 1;
    for f in factors {
        let mut carry = 0u64;
        for a in &mut acc {
            let wide = u128::from(*a) * u128::from(f) + u128::from(carry);
            *a = wide as u64;
            carry = (wide >> 64) as u64;
        }
        assert_eq!(carry, 0, "basis product left its {limbs} limbs");
    }
    acc
}

#[cfg(test)]
mod tests {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rhychee_bigint::{Montgomery, Uint};

    use super::super::cipher::CkksContext;
    use super::*;
    use crate::params::CkksParams;

    const PRIMES: [u64; 3] = [1125899906826241, 1125899906629633, 1125899905744897];

    /// 512 bits: every test chain's `Q` and the sum of its `L` CRT terms.
    type Wide = Uint<8>;

    /// The product of `primes`.
    fn product(primes: &[u64]) -> Wide {
        primes.iter().fold(Wide::ONE, |acc, &p| acc.checked_mul(&Wide::from(p)).expect("Q fits"))
    }

    /// The big-integer reconstructor [`CrtBasis`] replaced, kept as the
    /// oracle its output is pinned against bit for bit.
    struct UintCrt {
        primes: Vec<u64>,
        q: Wide,
        half_q: Wide,
        /// `(Q/q_i)` as big integers.
        q_hat: Vec<Wide>,
        /// `(Q/q_i)^{-1} mod q_i`.
        q_hat_inv: Vec<u64>,
    }

    impl UintCrt {
        fn new(primes: &[u64]) -> Self {
            let q = product(primes);
            let q_hat: Vec<Wide> = primes.iter().map(|&p| q.div_rem(&Wide::from(p)).0).collect();
            let q_hat_inv = primes
                .iter()
                .zip(&q_hat)
                .map(|(&p, h)| {
                    // Fermat: h^(p − 2) is h⁻¹ mod the prime p.
                    Montgomery::new(Wide::from(p)).pow(h, &Wide::from(p - 2)).0[0]
                })
                .collect();
            UintCrt { primes: primes.to_vec(), q, half_q: q.shr(1), q_hat, q_hat_inv }
        }

        /// Reconstructs residues to the centered representative as `f64`.
        fn centered_f64(&self, residues: &[u64]) -> f64 {
            let (negative, magnitude) = self.centered_parts(residues);
            let v = uint_to_f64(&magnitude);
            if negative {
                -v
            } else {
                v
            }
        }

        /// Reconstructs residues to `(is_negative, |value|)` of the
        /// centered representative in `(−Q/2, Q/2]`.
        fn centered_parts(&self, residues: &[u64]) -> (bool, Wide) {
            let mut acc = Wide::ZERO;
            for (i, &r) in residues.iter().enumerate() {
                let t = mul_mod(r, self.q_hat_inv[i], self.primes[i]);
                let term = self.q_hat[i].checked_mul(&Wide::from(t)).expect("term fits");
                assert!(!acc.add_nocarry(&term), "CRT sum fits");
            }
            let v = acc.div_rem(&self.q).1;
            if v > self.half_q {
                let mut neg = self.q;
                neg.sub_noborrow(&v);
                (true, neg)
            } else {
                (false, v)
            }
        }

        /// `to_centered_f64` as it ran before the fixed-width lift.
        fn poly_to_f64(&self, p: &RnsPoly) -> Vec<f64> {
            (0..p.degree()).map(|j| self.centered_f64(&column(p, j))).collect()
        }
    }

    /// Converts a non-negative big integer to `f64` (with rounding).
    fn uint_to_f64(v: &Wide) -> f64 {
        v.0.iter().rev().fold(0.0, |acc, &limb| acc * 1.8446744073709552e19 + limb as f64)
    }

    fn column(p: &RnsPoly, j: usize) -> Vec<u64> {
        (0..p.levels()).map(|i| p.residues(i)[j]).collect()
    }

    /// The prime chains the lift is pinned on: Table III's multi-prime
    /// sets (CKKS-3, CKKS-2, CKKS-1), the toy set, `transform_counts`'
    /// 44-33, a six-limb 6 × 62-bit chain, and a one-limb 25-20.
    const CHAINS: [&[u32]; 7] = [
        &[40, 30, 30],
        &[50, 40, 40],
        &[45, 40, 40, 35],
        &[50, 40],
        &[44, 33],
        &[62, 62, 62, 62, 62, 62],
        &[25, 20],
    ];

    /// The primes a context builds for `bits` (distinct within a size).
    fn chain(bits: &[u32]) -> Vec<u64> {
        let params = CkksParams { n: 64, prime_bits: bits.to_vec(), scale_bits: 15, sigma: 3.2 };
        CkksContext::new(params).expect("valid chain").primes().to_vec()
    }

    /// Residues of every value the lift can get wrong at an edge — 0,
    /// ±1, −1 as `qᵢ − 1`, the sign boundary `⌊Q/2⌋` / `⌊Q/2⌋ + 1`, the
    /// non-canonical `qᵢ` and `u64::MAX` — then `fill` coefficients
    /// alternating uniform residues and small signed values.
    fn probe_poly(primes: &[u64], fill: usize, rng: &mut StdRng) -> RnsPoly {
        let half_q = product(primes).shr(1);
        let mut above = half_q;
        above.add_nocarry(&Wide::ONE);
        let rem = |v: &Wide, q: u64| v.div_rem(&Wide::from(q)).1 .0[0];
        let rows: Vec<Vec<u64>> = primes
            .iter()
            .map(|&q| {
                let mut row = vec![0, 1, q - 1, rem(&half_q, q), rem(&above, q)];
                row.extend([q, u64::MAX]);
                row.extend((0..fill).map(|_| rng.gen_range(0..q)));
                row
            })
            .collect();
        let mut p = poly_of_rows(&rows, Domain::Coeff);
        let small: Vec<i64> =
            (0..fill / 2).map(|_| rng.gen_range(-(1i64 << 34)..1 << 34)).collect();
        let signed = RnsPoly::from_signed_coeffs(&small, primes);
        for (row, tail) in p.rows_mut().zip(signed.rows()) {
            let at = row.len() - small.len();
            row[at..].copy_from_slice(tail);
        }
        p
    }

    /// A polynomial holding `rows` (all of one length) as its residue rows.
    fn poly_of_rows(rows: &[Vec<u64>], domain: Domain) -> RnsPoly {
        let mut p = RnsPoly::zero_in(rows.first().map_or(0, Vec::len), rows.len(), domain);
        for (i, row) in rows.iter().enumerate() {
            p.residues_mut(i).copy_from_slice(row);
        }
        p
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: coefficient {j}: {g} vs {w}");
        }
    }

    const DEGREES: [Parallelism; 4] =
        [Parallelism::Fixed(1), Parallelism::Fixed(2), Parallelism::Fixed(4), Parallelism::Auto];

    #[test]
    fn lift_matches_biguint_oracle_on_every_chain_and_level() {
        let mut rng = StdRng::seed_from_u64(19);
        for bits in CHAINS {
            let primes = chain(bits);
            for levels in 2..=primes.len() {
                let active = &primes[..levels];
                let p = probe_poly(active, 200, &mut rng);
                let want = UintCrt::new(active).poly_to_f64(&p);
                // The edge prefix, by value.
                assert_eq!(want[..3], [0.0, 1.0, -1.0], "{bits:?} level {levels}");
                assert!(want[3] > 0.0 && want[4] < 0.0, "{bits:?} level {levels}: sign boundary");
                assert_eq!(want[5], 0.0, "{bits:?} level {levels}: qᵢ ≡ 0");
                for par in DEGREES {
                    let got = p.to_centered_f64_with(active, par);
                    assert_same_bits(&got, &want, &format!("{bits:?} level {levels} par {par}"));
                }
            }
        }
    }

    #[test]
    fn lift_crosses_every_tile_and_chunk_edge() {
        assert!(RnsPoly::zero(4, 0).to_centered_f64(&[]).is_empty(), "no levels, no coefficients");
        let mut rng = StdRng::seed_from_u64(23);
        for bits in [CHAINS[0], CHAINS[5]] {
            let primes = chain(bits);
            let crt = UintCrt::new(&primes);
            let full = probe_poly(&primes, 8192 - 7, &mut rng);
            for n in [0usize, 1, 3, 63, 64, 65, 200, 8192] {
                // Both ends of the probe: the edge values and the random tail.
                for from in [0, full.degree() - n] {
                    let rows: Vec<Vec<u64>> =
                        full.rows().map(|row| row[from..from + n].to_vec()).collect();
                    let p = poly_of_rows(&rows, Domain::Coeff);
                    let want = crt.poly_to_f64(&p);
                    for par in DEGREES {
                        let got = p.to_centered_f64_with(&primes, par);
                        assert_same_bits(&got, &want, &format!("{bits:?} n {n} par {par}"));
                    }
                }
            }
        }
    }

    #[test]
    fn reshaped_rows_sit_at_their_own_offsets() {
        // One buffer reshaped (N, 3) → (N, 1) → (N, 3) → (N/2, 3) and
        // refilled row by row acts as a polynomial built fresh from the
        // same coefficients, and keeps its one allocation throughout.
        let mut rng = StdRng::seed_from_u64(31);
        let n = 64;
        let mut reused = RnsPoly::zero(n, 3);
        let held = reused.heap_bytes();
        for (degree, levels) in [(n, 3), (n, 1), (n, 3), (n / 2, 3)] {
            let active = &PRIMES[..levels];
            let coeffs: Vec<i64> = (0..degree).map(|_| rng.gen_range(-1000..1000)).collect();
            let other: Vec<i64> = (0..degree).map(|_| rng.gen_range(-1000..1000)).collect();
            reused.ensure_shape(degree, levels, Domain::Coeff);
            for (i, &q) in active.iter().enumerate() {
                for (r, &c) in reused.residues_mut(i).iter_mut().zip(&coeffs) {
                    *r = signed_residue(c, q);
                }
            }
            let fresh = RnsPoly::from_signed_coeffs(&coeffs, active);
            assert_eq!((reused.degree(), reused.levels()), (degree, levels));
            assert_eq!(reused, fresh, "({degree}, {levels})");
            let b = RnsPoly::from_signed_coeffs(&other, active);
            let sum = reused.add(&b, active).to_centered_f64(active);
            let want: Vec<f64> = coeffs.iter().zip(&other).map(|(x, y)| (x + y) as f64).collect();
            assert_eq!(sum, want, "({degree}, {levels}): add");
            let scaled = reused.mul_scalar_signed(-3, active).to_centered_f64(active);
            let want: Vec<f64> = coeffs.iter().map(|&x| (-3 * x) as f64).collect();
            assert_eq!(scaled, want, "({degree}, {levels}): mul_scalar_signed");
            assert_eq!(reused.heap_bytes(), held, "({degree}, {levels}): reallocated");
        }
    }

    #[test]
    fn signed_round_trip_through_crt() {
        let coeffs = [0i64, 1, -1, 42, -12345, i32::MAX as i64, -(i32::MAX as i64)];
        let p = RnsPoly::from_signed_coeffs(&coeffs, &PRIMES);
        let back = p.to_centered_f64(&PRIMES);
        for (c, b) in coeffs.iter().zip(&back) {
            assert_eq!(*c as f64, *b);
        }
    }

    #[test]
    fn single_prime_fast_path() {
        let coeffs = [7i64, -9, 0];
        let p = RnsPoly::from_signed_coeffs(&coeffs, &PRIMES[..1]);
        assert_eq!(p.to_centered_f64(&PRIMES[..1]), vec![7.0, -9.0, 0.0]);
    }

    #[test]
    fn add_lifts_to_the_integer_sum() {
        let a = RnsPoly::from_signed_coeffs(&[5, -3, 100], &PRIMES);
        let b = RnsPoly::from_signed_coeffs(&[2, 8, -50], &PRIMES);
        let sum = a.add(&b, &PRIMES);
        assert_eq!(sum.to_centered_f64(&PRIMES), vec![7.0, 5.0, 50.0]);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let a = RnsPoly::from_signed_coeffs(&[5, -3, 0], &PRIMES);
        let z = a.add(&a.neg(&PRIMES), &PRIMES);
        assert_eq!(z.to_centered_f64(&PRIMES), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn scalar_multiplication() {
        let a = RnsPoly::from_signed_coeffs(&[5, -3, 7], &PRIMES);
        let b = a.mul_scalar_signed(-4, &PRIMES);
        assert_eq!(b.to_centered_f64(&PRIMES), vec![-20.0, 12.0, -28.0]);
    }

    #[test]
    fn scalar_product_matches_mul_mod_at_every_table3_prime() {
        let mut rng = StdRng::seed_from_u64(0x5c);
        for q in super::super::modarith::tests::table3_primes() {
            let mut row: Vec<u64> = (0..253).map(|_| rng.gen_range(0..q)).collect();
            row.extend([0, 1, q - 1]);
            let poly = poly_of_rows(&[row.clone()], Domain::Eval);
            let r = rng.gen_range(2..q - 1) as i64;
            let top = q as i64 - 1;
            for scalar in [0, 1, top, r, -1, -top, -r, i64::MIN, i64::MAX] {
                let s = signed_residue(scalar, q);
                let want: Vec<u64> = row.iter().map(|&a| mul_mod(a, s, q)).collect();
                let got = poly.mul_scalar_signed(scalar, &[q]);
                assert_eq!(got.residues(0), &want[..], "q = {q}, scalar = {scalar}");
            }
        }
    }

    #[test]
    fn rescale_divides_by_last_prime() {
        // Value v encoded across 3 primes; rescale should give round(v / q2).
        let q_last = PRIMES[2] as i64;
        let v = q_last * 7 + 3; // rounds to 7
        let p = RnsPoly::from_signed_coeffs(&[v, -v, 0], &PRIMES);
        let r = p.rescale(&PRIMES);
        assert_eq!(r.levels(), 2);
        let back = r.to_centered_f64(&PRIMES[..2]);
        assert_eq!(back[0], 7.0);
        assert_eq!(back[1], -7.0);
        assert_eq!(back[2], 0.0);
    }

    #[test]
    fn rescale_rounding_error_is_bounded() {
        let q_last = PRIMES[2] as i64;
        for frac in [1i64, q_last / 3, q_last / 2, q_last - 1] {
            let v = q_last * 11 + frac;
            let p = RnsPoly::from_signed_coeffs(&[v], &PRIMES);
            let r = p.rescale(&PRIMES).to_centered_f64(&PRIMES[..2])[0];
            let exact = v as f64 / q_last as f64;
            assert!((r - exact).abs() <= 1.0, "rescale error too large: {r} vs {exact}");
        }
    }

    #[test]
    #[should_panic(expected = "rescale")]
    fn rescale_at_bottom_level_panics() {
        let p = RnsPoly::from_signed_coeffs(&[1], &PRIMES[..1]);
        let _ = p.rescale(&PRIMES[..1]);
    }

    #[test]
    fn single_prime_lift_is_exact_on_small_negatives_under_a_61_bit_prime() {
        // 2^61 − 1 > 2^53: a residue near it is not an `f64`, its
        // distance to it is.
        let q = [(1u64 << 61) - 1];
        let coeffs: Vec<i64> = (-300..=300).collect();
        let lifted = RnsPoly::from_signed_coeffs(&coeffs, &q).to_centered_f64(&q);
        let expected: Vec<f64> = coeffs.iter().map(|&c| c as f64).collect();
        assert_eq!(lifted, expected);
    }

    #[test]
    fn add_assign_matches_add() {
        let mut a = RnsPoly::from_signed_coeffs(&[1, 2, 3], &PRIMES);
        let b = RnsPoly::from_signed_coeffs(&[10, -20, 30], &PRIMES);
        let expected = a.add(&b, &PRIMES);
        a.add_assign(&b, &PRIMES);
        assert_eq!(a, expected);
    }

    #[test]
    fn parallel_variants_match_sequential() {
        let coeffs: Vec<i64> = (0..200).map(|i| (i * 7919 - 2048) as i64).collect();
        let p = RnsPoly::from_signed_coeffs(&coeffs, &PRIMES);
        for par in DEGREES {
            let seq = p.to_centered_f64(&PRIMES);
            let parv = p.to_centered_f64_with(&PRIMES, par);
            assert!(
                seq.iter().zip(&parv).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{par}: reconstruction differs"
            );
        }
    }

    #[test]
    fn biguint_f64_conversion_accuracy() {
        assert_eq!(uint_to_f64(&Wide::ZERO), 0.0);
        assert_eq!(uint_to_f64(&Wide::from(1u64 << 52)), (1u64 << 52) as f64);
        let mut big = Wide::ZERO;
        big.0[..2].copy_from_slice(&[u64::MAX; 2]);
        let expected = 2.0f64.powi(128);
        assert!((uint_to_f64(&big) - expected).abs() / expected < 1e-15);
    }
}
