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

use std::f64::consts::PI;

use rhychee_telemetry as telemetry;

/// Minimal complex number (the crate avoids external numeric deps).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from rectangular parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// `e^{iθ}`.
    pub fn from_angle(theta: f64) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    fn add(self, o: Complex) -> Self {
        Complex { re: self.re + o.re, im: self.im + o.im }
    }

    fn sub(self, o: Complex) -> Self {
        Complex { re: self.re - o.re, im: self.im - o.im }
    }

    fn mul(self, o: Complex) -> Self {
        Complex { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }
}

/// In-place iterative radix-2 complex FFT.
///
/// `invert = true` computes the inverse transform including the `1/n`
/// scaling.
///
/// # Panics
///
/// Panics if `a.len()` is not a power of two.
fn fft(a: &mut [Complex], invert: bool) {
    let n = a.len();
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
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
    /// ξ^l for l in 0..N/2 where ξ = e^{iπ/N} (primitive 2N-th root).
    twist: Vec<Complex>,
    /// ξ^{-l} for l in 0..N/2.
    twist_inv: Vec<Complex>,
}

impl CkksEncoder {
    /// Creates an encoder for ring degree `n` at the given scale Δ.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or less than 4.
    pub fn new(n: usize, scale: u64) -> Self {
        assert!(n.is_power_of_two() && n >= 4, "ring degree must be a power of two ≥ 4");
        let half = n / 2;
        let base = PI / n as f64; // angle of ξ
        let twist = (0..half).map(|l| Complex::from_angle(base * l as f64)).collect();
        let twist_inv = (0..half).map(|l| Complex::from_angle(-base * l as f64)).collect();
        CkksEncoder { n, scale: scale as f64, twist, twist_inv }
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
        let mut z = Vec::new();
        let mut coeffs = Vec::new();
        self.encode_into(values, &mut z, &mut coeffs);
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
    pub fn encode_into(&self, values: &[f64], z: &mut Vec<Complex>, coeffs: &mut Vec<i64>) {
        let half = self.n / 2;
        assert!(values.len() <= half, "too many values for {} slots", half);
        let _t = telemetry::timer("fhe.ckks.encode");
        z.clear();
        z.extend(values.iter().map(|&v| Complex::new(v, 0.0)));
        z.resize(half, Complex::default());
        // Inverse FFT recovers the folded, twisted coefficient vector d.
        fft(z, true);
        // Untwist: c_l = Re(d_l ξ^{-l}), c_{l+N/2} = Im(d_l ξ^{-l}).
        coeffs.clear();
        coeffs.resize(self.n, 0);
        for (l, d) in z.iter().enumerate() {
            let u = d.mul(self.twist_inv[l]);
            coeffs[l] = (u.re * self.scale).round() as i64;
            coeffs[l + half] = (u.im * self.scale).round() as i64;
        }
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
    pub fn decode_with_scale(&self, coeffs: &[f64], scale: f64) -> Vec<f64> {
        assert_eq!(coeffs.len(), self.n, "coefficient vector must have length N");
        let _t = telemetry::timer("fhe.ckks.decode");
        let half = self.n / 2;
        // Twist and fold: d_l = (c_l + i c_{l+N/2}) ξ^l.
        let mut z: Vec<Complex> = (0..half)
            .map(|l| Complex::new(coeffs[l], coeffs[l + half]).mul(self.twist[l]))
            .collect();
        fft(&mut z, false);
        z.iter().map(|c| c.re / scale).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
        fft(&mut a, false);
        fft(&mut a, true);
        for (x, y) in a.iter().zip(&original) {
            assert!((x.re - y.re).abs() < 1e-12);
            assert!((x.im - y.im).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut a = vec![Complex::default(); 8];
        a[0] = Complex::new(1.0, 0.0);
        fft(&mut a, false);
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
