//! AVX2 backend: 4-lane Harvey/Shoup forward butterflies; the inverse
//! runs the scalar reference.
//!
//! AVX2 has no 64×64→128 multiply, so the Shoup multiply-high is
//! rebuilt from four `_mm256_mul_epu32` 32×32→64 partial products per
//! lane (the classic schoolbook high-half with explicit carry
//! propagation), and the wrapping low half from three. Every operation
//! is exact wrapping u64 arithmetic — the same sequence of additions,
//! subtractions and conditional reductions as the scalar reference —
//! so outputs are **bit-identical** to `NttTable::forward_scalar` by
//! construction, not merely congruent mod q.
//!
//! Butterfly passes whose contiguous run is shorter than one vector
//! (`t < 4`: the last two passes) fall through to the scalar loop; for
//! the ring degrees the workspace uses (512–8192) that leaves ≥ 80 % of
//! the butterflies vectorized.
//!
//! # Safety
//!
//! All `unsafe` here is (a) AVX2 intrinsics inside
//! `#[target_feature(enable = "avx2")]` functions and (b) raw-pointer
//! loads/stores within `a[..n]` proven in bounds by the same index
//! algebra the scalar loops use (`j + t + 3 < j1 + 2t ≤ n`). The
//! module is compiled only on `x86_64` and the kernel is handed out
//! only when `is_x86_feature_detected!("avx2")` holds (see
//! [`available`]), so the target-feature contract is met at every
//! call site.

use core::arch::x86_64::*;

use super::{NttKernel, NttTable};

/// Rings smaller than this gain nothing from 4-lane vectors (most
/// passes would hit the scalar fallback anyway); dispatch whole
/// transforms to the scalar reference instead.
const MIN_VECTOR_RING: usize = 16;

#[derive(Debug)]
pub(super) struct Avx2Kernel;

static KERNEL: Avx2Kernel = Avx2Kernel;

/// Runtime gate: the only path that hands out the AVX2 kernel.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx2")
}

pub(super) fn kernel() -> &'static dyn NttKernel {
    &KERNEL
}

impl NttKernel for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }
    fn forward(&self, table: &NttTable, a: &mut [u64]) {
        if table.n < MIN_VECTOR_RING {
            return table.forward_scalar(a);
        }
        // SAFETY: this kernel is only obtainable through
        // `available_kernels()` / `active_kernel()`, both of which
        // check `is_x86_feature_detected!("avx2")` first.
        unsafe { forward_avx2(table, a) }
    }
    /// The scalar inverse: a 4-lane one with this multiply-high took
    /// 1.2× its time per transform at N = 8192.
    fn inverse(&self, table: &NttTable, a: &mut [u64]) {
        table.inverse_scalar(a);
    }
}

/// High 64 bits of the full 128-bit product per lane, from 32-bit
/// partial products (Hacker's Delight `mulhu`): with
/// `a·b = lo·lo + 2^32(hi·lo + lo·hi) + 2^64 hi·hi`,
/// `t1 = hi·lo + (lo·lo >> 32)` and `u = lo·hi + (t1 mod 2^32)`
/// (neither overflows a lane), the high half is
/// `hi·hi + (t1 >> 32) + (u >> 32)`.
///
/// `b_hi` must be `b >> 32` per lane (`_mm256_mul_epu32` reads only
/// the low 32 bits of each lane, so `b` itself serves as `b_lo`);
/// `y_hi` likewise, precomputed so it can be shared with [`mul_lo64`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_hi64(b: __m256i, b_hi: __m256i, y: __m256i, y_hi: __m256i) -> __m256i {
    let lo_lo = _mm256_mul_epu32(b, y);
    let hi_lo = _mm256_mul_epu32(b_hi, y);
    let lo_hi = _mm256_mul_epu32(b, y_hi);
    let hi_hi = _mm256_mul_epu32(b_hi, y_hi);
    let t1 = _mm256_add_epi64(hi_lo, _mm256_srli_epi64::<32>(lo_lo));
    let m = _mm256_set1_epi64x(0xFFFF_FFFF);
    let u = _mm256_add_epi64(lo_hi, _mm256_and_si256(t1, m));
    _mm256_add_epi64(
        _mm256_add_epi64(hi_hi, _mm256_srli_epi64::<32>(t1)),
        _mm256_srli_epi64::<32>(u),
    )
}

/// Wrapping low 64 bits of the product per lane:
/// `lo·lo + ((hi·lo + lo·hi) << 32)` — bits above 2^64 are discarded
/// exactly as scalar `u64::wrapping_mul` discards them.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mul_lo64(b: __m256i, b_hi: __m256i, y: __m256i, y_hi: __m256i) -> __m256i {
    let lo_lo = _mm256_mul_epu32(b, y);
    let hi_lo = _mm256_mul_epu32(b_hi, y);
    let lo_hi = _mm256_mul_epu32(b, y_hi);
    _mm256_add_epi64(lo_lo, _mm256_slli_epi64::<32>(_mm256_add_epi64(hi_lo, lo_hi)))
}

/// Per lane: `x >= bound ? x - bound : x`, unsigned. AVX2 only has a
/// signed 64-bit compare, so `x` is biased by `2^63`; `bound_biased`
/// must be `bound ^ 2^63`, hoisted by the caller.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sub_if_ge(x: __m256i, bound: __m256i, bound_biased: __m256i, sign: __m256i) -> __m256i {
    let lt = _mm256_cmpgt_epi64(bound_biased, _mm256_xor_si256(x, sign));
    _mm256_sub_epi64(x, _mm256_andnot_si256(lt, bound))
}

/// 4-lane `mul_shoup_lazy(y, w, w_shoup, q)`:
/// `w·y − ((w_shoup·y) >> 64)·q` in wrapping u64, result in `[0, 2q)`.
#[inline]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn mul_shoup_lazy4(
    y: __m256i,
    w: __m256i,
    w_hi: __m256i,
    ws: __m256i,
    ws_hi: __m256i,
    q: __m256i,
    q_hi: __m256i,
) -> __m256i {
    let y_hi = _mm256_srli_epi64::<32>(y);
    let hi = mul_hi64(ws, ws_hi, y, y_hi);
    let hi_hi = _mm256_srli_epi64::<32>(hi);
    _mm256_sub_epi64(mul_lo64(w, w_hi, y, y_hi), mul_lo64(q, q_hi, hi, hi_hi))
}

#[target_feature(enable = "avx2")]
unsafe fn forward_avx2(table: &NttTable, a: &mut [u64]) {
    let q = table.q;
    let two_q = 2 * q;
    let n = table.n;
    let q_v = _mm256_set1_epi64x(q as i64);
    let q_hi = _mm256_set1_epi64x((q >> 32) as i64);
    let two_q_v = _mm256_set1_epi64x(two_q as i64);
    let sign = _mm256_set1_epi64x(i64::MIN);
    let two_q_b = _mm256_xor_si256(two_q_v, sign);
    let q_b = _mm256_xor_si256(q_v, sign);
    let base = a.as_mut_ptr();
    let mut t = n;
    let mut m = 1;
    while m < n {
        t /= 2;
        for i in 0..m {
            let j1 = 2 * i * t;
            let s = table.psi_rev[m + i];
            let s_shoup = table.psi_rev_shoup[m + i];
            if t >= 4 {
                let w = _mm256_set1_epi64x(s as i64);
                let w_hi = _mm256_set1_epi64x((s >> 32) as i64);
                let ws = _mm256_set1_epi64x(s_shoup as i64);
                let ws_hi = _mm256_set1_epi64x((s_shoup >> 32) as i64);
                let mut j = j1;
                while j < j1 + t {
                    // SAFETY: j + t + 3 ≤ j1 + 2t − 1 < n.
                    let pu = base.add(j) as *mut __m256i;
                    let pv = base.add(j + t) as *mut __m256i;
                    let mut u = _mm256_loadu_si256(pu);
                    let y = _mm256_loadu_si256(pv);
                    u = sub_if_ge(u, two_q_v, two_q_b, sign);
                    let v = mul_shoup_lazy4(y, w, w_hi, ws, ws_hi, q_v, q_hi);
                    _mm256_storeu_si256(pu, _mm256_add_epi64(u, v));
                    _mm256_storeu_si256(pv, _mm256_add_epi64(u, _mm256_sub_epi64(two_q_v, v)));
                    j += 4;
                }
            } else {
                for j in j1..j1 + t {
                    let mut u = a[j];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = super::mul_shoup_lazy(a[j + t], s, s_shoup, q);
                    a[j] = u + v;
                    a[j + t] = u + two_q - v;
                }
            }
        }
        m *= 2;
    }
    // Canonicalize [0, 4q) → [0, q), 4 lanes at a time (n is a power
    // of two ≥ MIN_VECTOR_RING, so it divides evenly).
    let mut j = 0;
    while j < n {
        // SAFETY: j + 3 < n since 4 | n.
        let p = base.add(j) as *mut __m256i;
        let mut x = _mm256_loadu_si256(p);
        x = sub_if_ge(x, two_q_v, two_q_b, sign);
        x = sub_if_ge(x, q_v, q_b, sign);
        _mm256_storeu_si256(p, x);
        j += 4;
    }
}
