//! CKKS canonical-embedding encoder.
//!
//! Maps vectors of up to `N/2` real values into integer polynomials of
//! `Z[X]/(X^N + 1)` and back. Slot `j` corresponds to evaluation of the
//! polynomial at the primitive 2N-th root `ξ^{4j+1}`; conjugate symmetry
//! makes the coefficients real.
//!
//! The transform factorizes as: twist coefficients by `ξ^l`, fold the two
//! halves (using `ξ^{N/2} = i`), then a standard complex FFT of size `N/2`
//! — giving exact `O(N log N)` encode/decode.
//!
//! The FFT is an iterative radix-2 decimation in time over split real
//! and imaginary slices. Its bit-reversal table and every stage's
//! twiddles are computed once per encoder, each stage's twiddles by the
//! recurrence `w ← w·w_len` from `w = 1`, so every butterfly multiplies
//! by the same `f64` pair a running-twiddle loop would reach. The
//! encode and decode bodies are compiled twice, for the crate's target
//! and with AVX2 enabled; both perform the same IEEE operations in the
//! same order, so their outputs are bit-identical (DESIGN.md §16.4).

use std::f64::consts::PI;

use rhychee_telemetry as telemetry;

/// Minimal complex number (the crate avoids external numeric deps).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Complex {
    re: f64,
    im: f64,
}

impl Complex {
    fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    fn from_angle(theta: f64) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    #[cfg(test)]
    fn add(self, o: Complex) -> Self {
        Complex { re: self.re + o.re, im: self.im + o.im }
    }

    #[cfg(test)]
    fn sub(self, o: Complex) -> Self {
        Complex { re: self.re - o.re, im: self.im - o.im }
    }

    fn mul(self, o: Complex) -> Self {
        Complex { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }
}

/// A complex vector stored as separate real and imaginary slices, so
/// the butterfly loops read and write whole `f64` lanes. Also the FFT
/// scratch of the allocation-free encrypt path
/// ([`super::CkksEncryptArena`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct SplitComplex {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SplitComplex {
    /// Resizes both halves to `len` zeros, reusing their capacity.
    fn zero(&mut self, len: usize) {
        for v in [&mut self.re, &mut self.im] {
            v.clear();
            v.resize(len, 0.0);
        }
    }

    fn push(&mut self, z: Complex) {
        self.re.push(z.re);
        self.im.push(z.im);
    }
}

/// One direction of the FFT of size `N/2`: every stage's twiddles,
/// concatenated — the stage of half-length `h` owns `[h − 1, 2h − 1)`.
/// Stage `h`'s `j`-th twiddle is `w_len^j` for `w_len = e^{±iπ/h}`,
/// reached by `j` steps of `w ← w·w_len` from `w = 1`.
#[derive(Debug, Clone)]
struct FftPlan {
    twiddles: SplitComplex,
}

impl FftPlan {
    /// The plan of the transform of size `size` whose twiddle angles
    /// carry `sign` (`+1` inverse, `−1` forward).
    fn new(size: usize, sign: f64) -> Self {
        let mut twiddles = SplitComplex::default();
        let mut len = 2;
        while len <= size {
            let wlen = Complex::from_angle(sign * 2.0 * PI / len as f64);
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w.mul(wlen);
            }
            len <<= 1;
        }
        FftPlan { twiddles }
    }

    /// Runs every butterfly stage in place on bit-reversed input,
    /// leaving the transform in natural order (unscaled).
    #[inline(always)]
    fn run(&self, re: &mut [f64], im: &mut [f64]) {
        let n = re.len();
        let im = &mut im[..n];
        let mut h = 1;
        if n >= 8 {
            self.first_three_stages(re, im);
            h = 8;
        }
        while h < n {
            let wr = &self.twiddles.re[h - 1..2 * h - 1];
            let wi = &self.twiddles.im[h - 1..2 * h - 1];
            for (r, i) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
                let (xr, yr) = r.split_at_mut(h);
                let (xi, yi) = i.split_at_mut(h);
                butterflies(xr, xi, yr, yi, wr, wi);
            }
            h <<= 1;
        }
    }

    /// Stages `h = 1, 2, 4` on each block of eight, held in registers:
    /// a separate pass per stage would run one to four butterflies per
    /// chunk, too few for a vector. Each butterfly sees the same inputs
    /// and twiddle as in its own pass.
    #[inline(always)]
    fn first_three_stages(&self, re: &mut [f64], im: &mut [f64]) {
        let wr: [f64; 7] = self.twiddles.re[..7].try_into().expect("n ≥ 8");
        let wi: [f64; 7] = self.twiddles.im[..7].try_into().expect("n ≥ 8");
        for (r, i) in re.chunks_exact_mut(8).zip(im.chunks_exact_mut(8)) {
            let mut ar: [f64; 8] = (&*r).try_into().expect("a block of 8");
            let mut ai: [f64; 8] = (&*i).try_into().expect("a block of 8");
            for h in [1, 2, 4] {
                for b in (0..8).step_by(2 * h) {
                    for j in b..b + h {
                        let w = (wr[h - 1 + j - b], wi[h - 1 + j - b]);
                        [ar[j], ai[j], ar[j + h], ai[j + h]] =
                            butterfly([ar[j], ai[j], ar[j + h], ai[j + h]], w);
                    }
                }
            }
            r.copy_from_slice(&ar);
            i.copy_from_slice(&ai);
        }
    }
}

/// One radix-2 butterfly `(x, y) ← (x + y·w, x − y·w)` on
/// `[x.re, x.im, y.re, y.im]`, the product and sums spelled out as
/// [`Complex::mul`], `Complex::add` and `Complex::sub` spell them.
#[inline(always)]
fn butterfly([xr, xi, yr, yi]: [f64; 4], (wr, wi): (f64, f64)) -> [f64; 4] {
    let vr = yr * wr - yi * wi;
    let vi = yr * wi + yi * wr;
    [xr + vr, xi + vi, xr - vr, xi - vi]
}

/// One stage's `h` butterflies over a chunk's halves `x` and `y`.
#[inline(always)]
fn butterflies(
    xr: &mut [f64],
    xi: &mut [f64],
    yr: &mut [f64],
    yi: &mut [f64],
    wr: &[f64],
    wi: &[f64],
) {
    let h = xr.len();
    let (xi, yr, yi, wr, wi) = (&mut xi[..h], &mut yr[..h], &mut yi[..h], &wr[..h], &wi[..h]);
    for j in 0..h {
        [xr[j], xi[j], yr[j], yi[j]] = butterfly([xr[j], xi[j], yr[j], yi[j]], (wr[j], wi[j]));
    }
}

/// `out[i] = x[i] as i64` for integral `x`, eight lanes at a time. When
/// every `|x|` of a block is below `2^51`, `x + 1.5·2^52` lies in
/// `[2^52, 2^53)`, where the spacing of `f64` is 1, so the sum is exact
/// and its bits exceed those of `1.5·2^52` by exactly `x`: an add and an
/// integer subtract per lane, which vectorize where `as i64` does not. A
/// block with a larger `|x|` (or a NaN), and the `len % 8` tail, take
/// `as i64`, which saturates.
#[inline(always)]
fn to_i64(x: &[f64], out: &mut [i64]) {
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    const EXACT: f64 = 2_251_799_813_685_248.0; // 2^51
    let mut blocks = out.chunks_exact_mut(8);
    let mut xs = x.chunks_exact(8);
    for (o, x) in (&mut blocks).zip(&mut xs) {
        if x.iter().all(|v| v.abs() < EXACT) {
            for (o, &v) in o.iter_mut().zip(x) {
                *o = (v + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits()) as i64;
            }
        } else {
            for (o, &v) in o.iter_mut().zip(x) {
                *o = v as i64;
            }
        }
    }
    for (o, &v) in blocks.into_remainder().iter_mut().zip(xs.remainder()) {
        *o = v as i64;
    }
}

/// The compilation of the encode and decode bodies an encoder runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// Compiled for the crate's target (SSE2 on baseline x86-64, where
    /// `f64::round` is a libm call).
    Baseline,
    /// The same bodies compiled with AVX2 enabled: `round` is inlined and
    /// the loops run four lanes wide.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Isa {
    /// The process-wide choice: AVX2 when the CPU has it. The NTT
    /// backend setting does not reach the encoder; every compilation is
    /// bit-identical to the baseline one.
    fn active() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Baseline
    }
}

/// The AVX2 compilation of the bodies. Safe `target_feature` functions:
/// a caller outside them must have detected AVX2 first.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{CkksEncoder, SplitComplex};

    #[target_feature(enable = "avx2")]
    pub(super) fn encode(
        enc: &CkksEncoder,
        values: &[f64],
        z: &mut SplitComplex,
        coeffs: &mut Vec<i64>,
    ) {
        enc.encode_body(values, z, coeffs);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn decode(enc: &CkksEncoder, coeffs: &[f64], scale: f64) -> Vec<f64> {
        enc.decode_body(coeffs, scale)
    }
}

/// Encoder/decoder between real slot vectors and integer coefficients.
///
/// # Examples
///
/// ```
/// use rhychee_fhe::ckks::CkksEncoder;
///
/// let enc = CkksEncoder::new(64, 1u64 << 30);
/// let values = vec![1.5, -2.25, 3.0];
/// let coeffs = enc.encode(&values);
/// let back = enc.decode(&coeffs.iter().map(|&c| c as f64).collect::<Vec<_>>());
/// assert!((back[0] - 1.5).abs() < 1e-6);
/// assert!((back[1] + 2.25).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct CkksEncoder {
    n: usize,
    scale: f64,
    isa: Isa,
    /// `rev[i]`: `i` bit-reversed over `log2(N/2)` bits — the FFT's
    /// input permutation, an involution.
    rev: Vec<u32>,
    /// ξ^l for l in 0..N/2 where ξ = e^{iπ/N} (primitive 2N-th root).
    twist: SplitComplex,
    /// ξ^{-l} for l in 0..N/2.
    twist_inv: SplitComplex,
    /// The inverse FFT (encode).
    inverse: FftPlan,
    /// The forward FFT (decode).
    forward: FftPlan,
}

impl CkksEncoder {
    /// Creates an encoder for ring degree `n` at the given scale Δ.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or less than 4.
    pub fn new(n: usize, scale: u64) -> Self {
        Self::with_isa(n, scale, Isa::active())
    }

    fn with_isa(n: usize, scale: u64, isa: Isa) -> Self {
        assert!(n.is_power_of_two() && n >= 4, "ring degree must be a power of two ≥ 4");
        let half = n / 2;
        let log_half = half.trailing_zeros();
        let rev = (0..half as u32).map(|i| i.reverse_bits() >> (32 - log_half)).collect();
        let base = PI / n as f64; // angle of ξ
        let mut twist = SplitComplex::default();
        let mut twist_inv = SplitComplex::default();
        for l in 0..half {
            twist.push(Complex::from_angle(base * l as f64));
            twist_inv.push(Complex::from_angle(-base * l as f64));
        }
        CkksEncoder {
            n,
            scale: scale as f64,
            isa,
            rev,
            twist,
            twist_inv,
            inverse: FftPlan::new(half, 1.0),
            forward: FftPlan::new(half, -1.0),
        }
    }

    /// Number of usable slots (`N/2`).
    pub fn slot_count(&self) -> usize {
        self.n / 2
    }

    /// The encoding scale Δ.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Encodes up to `N/2` real values into `N` scaled integer coefficients.
    ///
    /// Unused slots are zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied.
    pub fn encode(&self, values: &[f64]) -> Vec<i64> {
        let mut coeffs = Vec::new();
        self.encode_into(values, &mut SplitComplex::default(), &mut coeffs);
        coeffs
    }

    /// [`CkksEncoder::encode`] into caller-owned buffers: `z` is FFT
    /// scratch (resized to `N/2`), `coeffs` receives the `N` scaled
    /// integer coefficients. Neither allocates once warm, making the
    /// steady-state encode path allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if more than `N/2` values are supplied.
    pub(crate) fn encode_into(&self, values: &[f64], z: &mut SplitComplex, coeffs: &mut Vec<i64>) {
        let half = self.n / 2;
        assert!(values.len() <= half, "too many values for {} slots", half);
        let _t = telemetry::timer("fhe.ckks.encode");
        match self.isa {
            // SAFETY: AVX2 was detected on this CPU in this expression.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 if is_x86_feature_detected!("avx2") => unsafe {
                avx2::encode(self, values, z, coeffs)
            },
            _ => self.encode_body(values, z, coeffs),
        }
    }

    #[inline(always)]
    fn encode_body(&self, values: &[f64], z: &mut SplitComplex, coeffs: &mut Vec<i64>) {
        let half = self.n / 2;
        // Load in bit-reversed order: slot k goes to position rev(k).
        z.zero(half);
        for (&v, &r) in values.iter().zip(&self.rev) {
            z.re[r as usize] = v;
        }
        // Inverse FFT recovers the folded, twisted coefficient vector d
        // (scaled by 1/(N/2) below).
        self.inverse.run(&mut z.re, &mut z.im);
        // Untwist: c_l = Re(d_l ξ^{-l}), c_{l+N/2} = Im(d_l ξ^{-l}),
        // rounded in place, then converted to integers.
        let (re, im) = (&mut z.re[..half], &mut z.im[..half]);
        let (tr, ti) = (&self.twist_inv.re[..half], &self.twist_inv.im[..half]);
        let inv_n = 1.0 / half as f64;
        for l in 0..half {
            let (dr, di) = (re[l] * inv_n, im[l] * inv_n);
            let ur = dr * tr[l] - di * ti[l];
            let ui = dr * ti[l] + di * tr[l];
            re[l] = (ur * self.scale).round();
            im[l] = (ui * self.scale).round();
        }
        coeffs.clear();
        coeffs.resize(self.n, 0);
        let (lo, hi) = coeffs.split_at_mut(half);
        to_i64(re, lo);
        to_i64(im, hi);
    }

    /// Decodes `N` (already descaled-by-Δ-free) coefficient values into
    /// `N/2` real slot values.
    ///
    /// The caller passes raw centered coefficients as `f64`; this routine
    /// divides by the encoder scale.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    pub fn decode(&self, coeffs: &[f64]) -> Vec<f64> {
        self.decode_with_scale(coeffs, self.scale)
    }

    /// Decodes with an explicit scale (used after scale-changing homomorphic
    /// operations such as plaintext multiplication without rescale).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != N`.
    pub(crate) fn decode_with_scale(&self, coeffs: &[f64], scale: f64) -> Vec<f64> {
        assert_eq!(coeffs.len(), self.n, "coefficient vector must have length N");
        let _t = telemetry::timer("fhe.ckks.decode");
        match self.isa {
            // SAFETY: AVX2 was detected on this CPU in this expression.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 if is_x86_feature_detected!("avx2") => unsafe {
                avx2::decode(self, coeffs, scale)
            },
            _ => self.decode_body(coeffs, scale),
        }
    }

    #[inline(always)]
    fn decode_body(&self, coeffs: &[f64], scale: f64) -> Vec<f64> {
        let half = self.n / 2;
        let mut z = SplitComplex::default();
        z.zero(half);
        // Twist and fold, d_l = (c_l + i c_{l+N/2}) ξ^l, stored at rev(l).
        let (lo, hi) = coeffs.split_at(half);
        let (tr, ti) = (&self.twist.re[..half], &self.twist.im[..half]);
        for (l, &r) in self.rev[..half].iter().enumerate() {
            let (cr, ci) = (lo[l], hi[l]);
            z.re[r as usize] = cr * tr[l] - ci * ti[l];
            z.im[r as usize] = cr * ti[l] + ci * tr[l];
        }
        self.forward.run(&mut z.re, &mut z.im);
        for x in &mut z.re {
            *x /= scale;
        }
        z.re
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The running-twiddle radix-2 FFT the planned one replaced: the
    /// bit-identity oracle. `invert = true` computes the inverse
    /// transform including the `1/n` scaling.
    fn fft(a: &mut [Complex], invert: bool) {
        let n = a.len();
        assert!(n.is_power_of_two(), "FFT size must be a power of two");
        if n <= 1 {
            return;
        }
        let log_n = n.trailing_zeros();
        for i in 0..n {
            let j = (i as u32).reverse_bits() >> (32 - log_n);
            if (j as usize) > i {
                a.swap(i, j as usize);
            }
        }
        let sign = if invert { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * PI / len as f64;
            let wlen = Complex::from_angle(ang);
            for chunk in a.chunks_mut(len) {
                let mut w = Complex::new(1.0, 0.0);
                let (lo, hi) = chunk.split_at_mut(len / 2);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    let u = *x;
                    let v = y.mul(w);
                    *x = u.add(v);
                    *y = u.sub(v);
                    w = w.mul(wlen);
                }
            }
            len <<= 1;
        }
        if invert {
            let inv_n = 1.0 / n as f64;
            for x in a.iter_mut() {
                x.re *= inv_n;
                x.im *= inv_n;
            }
        }
    }

    /// The encode the planned FFT replaced, on the oracle `fft`.
    fn oracle_encode(n: usize, scale: f64, values: &[f64]) -> Vec<i64> {
        let half = n / 2;
        let mut z: Vec<Complex> = values.iter().map(|&v| Complex::new(v, 0.0)).collect();
        z.resize(half, Complex::default());
        fft(&mut z, true);
        let mut coeffs = vec![0; n];
        for (l, d) in z.iter().enumerate() {
            let u = d.mul(Complex::from_angle(-(PI / n as f64) * l as f64));
            coeffs[l] = (u.re * scale).round() as i64;
            coeffs[l + half] = (u.im * scale).round() as i64;
        }
        coeffs
    }

    /// The decode the planned FFT replaced, on the oracle `fft`.
    fn oracle_decode(n: usize, scale: f64, coeffs: &[f64]) -> Vec<f64> {
        let half = n / 2;
        let mut z: Vec<Complex> = (0..half)
            .map(|l| {
                let twist = Complex::from_angle(PI / n as f64 * l as f64);
                Complex::new(coeffs[l], coeffs[l + half]).mul(twist)
            })
            .collect();
        fft(&mut z, false);
        z.iter().map(|c| c.re / scale).collect()
    }

    /// Every compilation of the bodies this CPU can run.
    fn isas() -> Vec<Isa> {
        #[cfg(target_arch = "x86_64")]
        {
            assert!(is_x86_feature_detected!("avx2"), "the AVX2 compilation would go untested");
            vec![Isa::Baseline, Isa::Avx2]
        }
        #[cfg(not(target_arch = "x86_64"))]
        vec![Isa::Baseline]
    }

    /// The planned FFT on an interleaved vector: bit-reversed load, the
    /// stages, and the inverse's `1/n` scaling.
    fn planned_fft(a: &mut [Complex], invert: bool) {
        let n = a.len();
        let enc = CkksEncoder::new(2 * n, 1);
        let mut z = SplitComplex::default();
        z.zero(n);
        for (x, &r) in a.iter().zip(&enc.rev) {
            z.re[r as usize] = x.re;
            z.im[r as usize] = x.im;
        }
        let (plan, s) = if invert { (&enc.inverse, 1.0 / n as f64) } else { (&enc.forward, 1.0) };
        plan.run(&mut z.re, &mut z.im);
        for (x, (&re, &im)) in a.iter_mut().zip(z.re.iter().zip(&z.im)) {
            *x = if invert { Complex::new(re * s, im * s) } else { Complex::new(re, im) };
        }
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn planned_fft_matches_the_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [2, 4, 8, 64, 4096] {
            let input: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3)))
                .collect();
            for invert in [false, true] {
                let (mut planned, mut oracle) = (input.clone(), input.clone());
                planned_fft(&mut planned, invert);
                fft(&mut oracle, invert);
                let bits = |v: &[Complex]| -> Vec<u64> {
                    v.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect()
                };
                assert_eq!(bits(&planned), bits(&oracle), "n = {n}, invert = {invert}");
            }
        }
    }

    #[test]
    fn every_compilation_matches_the_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(4);
        // Toy sizes plus every ring degree of Table III.
        for n in [4usize, 8, 512, 8192, 16384, 32768] {
            let half = n / 2;
            let sign = |i: usize| if i.is_multiple_of(2) { 1.0 } else { -1.0 };
            let tiny = f64::MIN_POSITIVE / 8.0; // subnormal
                                                // Shared by both directions: zeros, signed zeros, subnormals,
                                                // and ±1e200, which saturates the encoder's `as i64`.
            let edge_cases = |len: usize| -> Vec<Vec<f64>> {
                vec![
                    vec![0.0; len],
                    (0..len).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 }).collect(),
                    (0..len).map(|i| tiny * (i % 7) as f64 * sign(i)).collect(),
                    (0..len).map(|i| 1e200 * sign(i)).collect(),
                ]
            };
            let mut slot_inputs = edge_cases(half);
            slot_inputs.extend([
                (0..half).map(|_| rng.gen_range(-10.0..10.0)).collect(),
                (0..half / 3 + 1).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                vec![],
                vec![1e200],
            ]);
            let mut coeff_inputs = edge_cases(n);
            coeff_inputs.extend([
                (0..n).map(|_| rng.gen_range(-1e15..1e15)).collect(),
                (0..n).map(|i| if i < n / 3 { rng.gen_range(-9.0..9.0) } else { 0.0 }).collect(),
            ]);
            for scale in [1u64 << 26, 1u64 << 40] {
                let sf = scale as f64;
                let want_enc: Vec<Vec<i64>> =
                    slot_inputs.iter().map(|v| oracle_encode(n, sf, v)).collect();
                let want_dec: Vec<Vec<f64>> =
                    coeff_inputs.iter().map(|c| oracle_decode(n, sf, c)).collect();
                for isa in isas() {
                    let enc = CkksEncoder::with_isa(n, scale, isa);
                    for (v, want) in slot_inputs.iter().zip(&want_enc) {
                        assert_eq!(&enc.encode(v), want, "encode, n = {n}, {isa:?}");
                    }
                    for (c, want) in coeff_inputs.iter().zip(&want_dec) {
                        assert!(same_bits(&enc.decode(c), want), "decode, n = {n}, {isa:?}");
                    }
                }
                // The ±1e200 slots really saturate, so `as i64` is exercised.
                assert!(want_enc[3].contains(&i64::MAX) && want_enc[3].contains(&i64::MIN));
            }
        }
    }

    /// The block conversion equals `as i64` on both sides of `±2^51`,
    /// where it switches between its two forms, and on the values `as
    /// i64` saturates; a block of one large value falls back whole.
    #[test]
    fn to_i64_matches_as_at_the_switch() {
        let p51 = (1u64 << 51) as f64;
        let mut edges = vec![0.0, -0.0, 1.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for bound in [p51, 2.0 * p51, 4.0 * p51, 9.3e18, 1e200] {
            for x in [bound - 2.0, bound - 1.0, bound, bound + 1.0, bound + 2.0] {
                edges.extend([x, -x]);
            }
        }
        for offset in 0..8 {
            for &edge in &edges {
                // `edge` in lane `offset` of a block of small values,
                // then in the tail.
                let mut x: Vec<f64> = (0..19).map(|i| i as f64 - 9.0).collect();
                x[offset] = edge;
                x[16 + offset % 3] = edge;
                let mut got = vec![0; x.len()];
                to_i64(&x, &mut got);
                let want: Vec<i64> = x.iter().map(|&v| v as i64).collect();
                assert_eq!(got, want, "edge {edge} in lane {offset}");
            }
        }
    }

    fn round_trip(encoder: &CkksEncoder, values: &[f64]) -> Vec<f64> {
        let coeffs = encoder.encode(values);
        let as_f64: Vec<f64> = coeffs.iter().map(|&c| c as f64).collect();
        encoder.decode(&as_f64)
    }

    #[test]
    fn fft_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let original: Vec<Complex> = (0..64)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut a = original.clone();
        planned_fft(&mut a, false);
        planned_fft(&mut a, true);
        for (x, y) in a.iter().zip(&original) {
            assert!((x.re - y.re).abs() < 1e-12);
            assert!((x.im - y.im).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut a = vec![Complex::default(); 8];
        a[0] = Complex::new(1.0, 0.0);
        planned_fft(&mut a, false);
        for x in &a {
            assert!((x.re - 1.0).abs() < 1e-12 && x.im.abs() < 1e-12);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let enc = CkksEncoder::new(256, 1u64 << 40);
        let values: Vec<f64> = (0..128).map(|i| (i as f64 * 0.37).sin() * 5.0).collect();
        let back = round_trip(&enc, &values);
        for (v, b) in values.iter().zip(&back) {
            assert!((v - b).abs() < 1e-9, "{v} vs {b}");
        }
    }

    #[test]
    fn partial_slot_fill_pads_with_zero() {
        let enc = CkksEncoder::new(64, 1u64 << 30);
        let back = round_trip(&enc, &[1.0, 2.0, 3.0]);
        assert_eq!(back.len(), 32);
        assert!((back[0] - 1.0).abs() < 1e-6);
        assert!((back[2] - 3.0).abs() < 1e-6);
        for b in &back[3..] {
            assert!(b.abs() < 1e-6);
        }
    }

    #[test]
    fn encoding_is_additive() {
        // encode(x) + encode(y) decodes to x + y (ring homomorphism on +).
        let enc = CkksEncoder::new(128, 1u64 << 35);
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<f64> = (0..64).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let y: Vec<f64> = (0..64).map(|_| rng.gen_range(-10.0..10.0)).collect();
        let cx = enc.encode(&x);
        let cy = enc.encode(&y);
        let sum: Vec<f64> = cx.iter().zip(&cy).map(|(&a, &b)| (a + b) as f64).collect();
        let back = enc.decode(&sum);
        for i in 0..64 {
            assert!((back[i] - (x[i] + y[i])).abs() < 1e-8);
        }
    }

    #[test]
    fn scalar_coefficient_multiplication_acts_slotwise() {
        // Multiplying all coefficients by an integer k scales every slot by k.
        let enc = CkksEncoder::new(128, 1u64 << 30);
        let x: Vec<f64> = (0..64).map(|i| i as f64 / 7.0).collect();
        let cx = enc.encode(&x);
        let scaled: Vec<f64> = cx.iter().map(|&c| (c * 3) as f64).collect();
        let back = enc.decode(&scaled);
        for i in 0..64 {
            assert!((back[i] - 3.0 * x[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn larger_scale_gives_smaller_error() {
        let coarse = CkksEncoder::new(256, 1u64 << 20);
        let fine = CkksEncoder::new(256, 1u64 << 45);
        let values: Vec<f64> = (0..128).map(|i| (i as f64).cos()).collect();
        let err = |enc: &CkksEncoder| -> f64 {
            round_trip(enc, &values)
                .iter()
                .zip(&values)
                .map(|(b, v)| (b - v).abs())
                .fold(0.0, f64::max)
        };
        assert!(err(&fine) < err(&coarse));
    }

    #[test]
    #[should_panic(expected = "too many values")]
    fn rejects_overfull_input() {
        let enc = CkksEncoder::new(64, 1u64 << 30);
        let _ = enc.encode(&vec![0.0; 33]);
    }

    #[test]
    fn decode_with_explicit_scale() {
        let enc = CkksEncoder::new(64, 1u64 << 20);
        let x = vec![2.0, -4.0];
        let cx = enc.encode(&x);
        // Simulate a scale-squaring operation: multiply coefficients by Δ·3.
        let delta = 1i64 << 20;
        let scaled: Vec<f64> = cx.iter().map(|&c| (c as f64) * (delta as f64) * 3.0).collect();
        let back = enc.decode_with_scale(&scaled, (delta as f64) * (delta as f64));
        assert!((back[0] - 6.0).abs() < 1e-4);
        assert!((back[1] + 12.0).abs() < 1e-4);
    }
}
