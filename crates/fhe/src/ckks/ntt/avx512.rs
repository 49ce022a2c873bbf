//! AVX-512 backend: 8-lane Harvey/Shoup butterflies and key-row products.
//!
//! AVX-512DQ has a native vector 64×64→low-64 multiply (`vpmullq`),
//! and AVX-512F a native unsigned 64-bit min (`vpminuq`) that turns
//! the conditional lazy reduction `x >= b ? x - b : x` into two ops
//! (`min(x, x - b)` — the subtraction wraps far above `b` exactly when
//! `x < b`). The [`Dq`] multiplier rebuilds only the 64-bit
//! multiply-high from 32×32→64 `vpmuludq` partials.
//!
//! *Every* pass is vectorized: the short passes (`t < 8`), whose
//! butterfly halves are interleaved within a vector, run through
//! `vpermi2q` deinterleave/reinterleave shuffles with the per-group
//! twiddles gathered by `vpermq` from the contiguous twiddle table.
//! Two full-array sweeps are also fused away: the forward
//! canonicalization happens inside the last (`t = 1`) pass, and the
//! inverse `N^{-1}` scaling is pre-folded into the single twiddle of
//! the final (`t = N/2`) pass (`NttTable::inv_last_folded`). Both fusions only change lazy
//! intermediates; canonical outputs are bit-identical to the scalar
//! reference.
//!
//! # Two multipliers
//!
//! Every twiddle product is a Shoup product `w·y − hi·q` with `hi` the
//! high part of `y` times a precomputed quotient of `w`. The loop
//! bodies are generic over how that product is computed
//! ([`ShoupMul8`]) and compiled twice:
//!
//! - [`Dq`], under `avx512f,avx512dq`, for any `q < 2^62`: the table's
//!   quotient `ws = ⌊w·2^64/q⌋`, its 64-bit multiply-high rebuilt from
//!   four `vpmuludq` partials, the two low products by `vpmullq`.
//! - [`Ifma`], under `avx512f,avx512dq,avx512ifma`, for `q < 2^50` on a
//!   CPU with IFMA52: the 52-bit quotient `⌊w·2^52/q⌋ = ws >> 12`
//!   (nested floors, so the same tables serve both), one
//!   `vpmadd52huq` for `hi` and two `vpmadd52luq` for the low 52 bits
//!   of `w·y − hi·q`. With `q < 2^50` every value a butterfly or row
//!   multiplies is below `4q < 2^52`, the width IFMA reads, and the
//!   result lies in `[0, 2q)` as the [`Dq`] one does.
//!
//! The two may differ by `q` in a lazy intermediate, never in a
//! canonical output, so both are bit-identical to the scalar
//! reference. The transforms and [`NttKernel::mul_acc_row`] pick
//! [`Ifma`] whenever it applies.
//!
//! # Safety
//!
//! Intrinsics only inside the `dq` / `ifma` `#[target_feature]`
//! functions (the generic bodies are `#[inline(always)]` into them),
//! the kernel handed out only when AVX-512F/DQ are detected at runtime
//! ([`available`]), the `ifma` compilation called only in a match arm
//! that has detected `avx512ifma` and checked `q < 2^50` in the same
//! expression, and raw-pointer accesses in bounds by the scalar loops'
//! index algebra (main passes: `j + t + 7 ≤ j1 + 2t − 1 < n`; tail
//! passes: whole 16-element blocks of `a` and ≤ 8-element twiddle
//! loads ending exactly at the table's length; rows: whole 8-element
//! chunks of four rows of one checked length).

use core::arch::x86_64::*;

use super::{mul_acc_row_scalar, NttKernel, NttTable};

/// Tail passes need 16-element blocks; below 32 the main loop never
/// runs and the scalar path is at no disadvantage.
const MIN_VECTOR_RING: usize = 32;

/// Moduli below this take the [`Ifma`] multiplier where the CPU has it.
const IFMA_BOUND: u64 = 1 << 50;

#[derive(Debug)]
pub(super) struct Avx512Kernel;

static KERNEL: Avx512Kernel = Avx512Kernel;

/// Runtime gate: the only path that hands out the AVX-512 kernel.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

pub(super) fn kernel() -> &'static dyn NttKernel {
    &KERNEL
}

fn ifma_detected() -> bool {
    is_x86_feature_detected!("avx512ifma")
}

/// The compilation of the bodies a transform or row runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Multiplier {
    Dq,
    Ifma,
}

impl Multiplier {
    /// [`Ifma`](Multiplier::Ifma) when `q < 2^50` and the CPU has it.
    fn for_modulus(q: u64) -> Multiplier {
        if q < IFMA_BOUND && ifma_detected() {
            Multiplier::Ifma
        } else {
            Multiplier::Dq
        }
    }
}

impl NttKernel for Avx512Kernel {
    fn name(&self) -> &'static str {
        "avx512"
    }
    fn forward(&self, table: &NttTable, a: &mut [u64]) {
        forward_with(Multiplier::for_modulus(table.q), table, a);
    }
    fn inverse(&self, table: &NttTable, a: &mut [u64]) {
        inverse_with(Multiplier::for_modulus(table.q), table, a);
    }
    fn mul_acc_row(
        &self,
        q: u64,
        acc: &mut [u64],
        w: &[u64],
        w_shoup: &[u64],
        x: &[u64],
        subtract: bool,
    ) {
        mul_acc_row_with(Multiplier::for_modulus(q), q, acc, w, w_shoup, x, subtract);
    }
}

// The three entry points below are reached only through this kernel,
// which `available()` gates on AVX-512F/DQ (and from this module's
// tests, which check `available()` first).

fn forward_with(mul: Multiplier, table: &NttTable, a: &mut [u64]) {
    if table.n < MIN_VECTOR_RING {
        return table.forward_scalar(a);
    }
    match mul {
        // SAFETY: IFMA detected and q < 2^50 in this expression.
        Multiplier::Ifma if table.q < IFMA_BOUND && ifma_detected() => unsafe {
            ifma::forward(table, a)
        },
        // SAFETY: AVX-512F/DQ, see above.
        _ => unsafe { dq::forward(table, a) },
    }
}

fn inverse_with(mul: Multiplier, table: &NttTable, a: &mut [u64]) {
    if table.n < MIN_VECTOR_RING {
        return table.inverse_scalar(a);
    }
    match mul {
        // SAFETY: as in `forward_with`.
        Multiplier::Ifma if table.q < IFMA_BOUND && ifma_detected() => unsafe {
            ifma::inverse(table, a)
        },
        // SAFETY: as in `forward_with`.
        _ => unsafe { dq::inverse(table, a) },
    }
}

fn mul_acc_row_with(
    mul: Multiplier,
    q: u64,
    acc: &mut [u64],
    w: &[u64],
    w_shoup: &[u64],
    x: &[u64],
    subtract: bool,
) {
    let n = acc.len();
    assert!(w.len() == n && w_shoup.len() == n && x.len() == n, "rows of unequal length");
    match mul {
        // SAFETY: as in `forward_with`; the four rows have one length.
        Multiplier::Ifma if q < IFMA_BOUND && ifma_detected() => unsafe {
            ifma::mul_acc_row(q, acc, w, w_shoup, x, subtract)
        },
        // SAFETY: as in `forward_with`; the four rows have one length.
        _ => unsafe { dq::mul_acc_row(q, acc, w, w_shoup, x, subtract) },
    }
}

/// The bodies compiled for AVX-512F/DQ with the [`Dq`] multiplier.
mod dq {
    use super::{forward_body, inverse_body, mul_acc_row_body, Dq, NttTable};

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn forward(table: &NttTable, a: &mut [u64]) {
        forward_body::<Dq>(table, a);
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn inverse(table: &NttTable, a: &mut [u64]) {
        inverse_body::<Dq>(table, a);
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn mul_acc_row(
        q: u64,
        acc: &mut [u64],
        w: &[u64],
        w_shoup: &[u64],
        x: &[u64],
        subtract: bool,
    ) {
        mul_acc_row_body::<Dq>(q, acc, w, w_shoup, x, subtract);
    }
}

/// The same bodies compiled with IFMA52 and the [`Ifma`] multiplier;
/// callers have checked `q < 2^50`.
mod ifma {
    use super::{forward_body, inverse_body, mul_acc_row_body, Ifma, NttTable};

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    pub(super) unsafe fn forward(table: &NttTable, a: &mut [u64]) {
        forward_body::<Ifma>(table, a);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    pub(super) unsafe fn inverse(table: &NttTable, a: &mut [u64]) {
        inverse_body::<Ifma>(table, a);
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    pub(super) unsafe fn mul_acc_row(
        q: u64,
        acc: &mut [u64],
        w: &[u64],
        w_shoup: &[u64],
        x: &[u64],
        subtract: bool,
    ) {
        mul_acc_row_body::<Ifma>(q, acc, w, w_shoup, x, subtract);
    }
}

/// Per lane: `x >= bound ? x - bound : x` via `vpminuq`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn sub_if_ge(x: __m512i, bound: __m512i) -> __m512i {
    _mm512_min_epu64(x, _mm512_sub_epi64(x, bound))
}

/// High 64 bits of the 128-bit product per lane, from 32-bit partial
/// products (Hacker's Delight `mulhu`): with `b` and `y` split into
/// 32-bit halves, `b·y = lo·lo + 2^32(hi·lo + lo·hi) + 2^64 hi·hi`,
/// `t1 = hi·lo + (lo·lo >> 32)` and `u = lo·hi + (t1 mod 2^32)`
/// (neither overflows a lane), the high half is
/// `hi·hi + (t1 >> 32) + (u >> 32)`.
///
/// `b_hi`/`y_hi` must hold `b >> 32`/`y >> 32` in the low 32 bits of
/// each lane (`_mm512_mul_epu32` reads only those, so `b` and `y`
/// themselves serve as the low halves).
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn mul_hi64(b: __m512i, b_hi: __m512i, y: __m512i, y_hi: __m512i) -> __m512i {
    let lo_lo = _mm512_mul_epu32(b, y);
    let hi_lo = _mm512_mul_epu32(b_hi, y);
    let lo_hi = _mm512_mul_epu32(b, y_hi);
    let hi_hi = _mm512_mul_epu32(b_hi, y_hi);
    let t1 = _mm512_add_epi64(hi_lo, _mm512_srli_epi64::<32>(lo_lo));
    let m = _mm512_set1_epi64(0xFFFF_FFFF);
    let u = _mm512_add_epi64(lo_hi, _mm512_and_si512(t1, m));
    _mm512_add_epi64(
        _mm512_add_epi64(hi_hi, _mm512_srli_epi64::<32>(t1)),
        _mm512_srli_epi64::<32>(u),
    )
}

/// An 8-lane `mul_shoup_lazy`: `w·y mod q` in `[0, 2q)` for `w < q`
/// with the table's quotient `ws = ⌊w·2^64/q⌋`.
trait ShoupMul8: Copy {
    /// Twiddles prepared for [`mul`](Self::mul).
    type Twiddle: Copy;
    /// The multiplier for modulus `q`.
    unsafe fn new(q: u64) -> Self;
    /// One twiddle `w` with quotient `ws` in every lane.
    unsafe fn splat(self, w: u64, ws: u64) -> Self::Twiddle;
    /// Eight twiddles `w` with quotients `ws`.
    unsafe fn twiddle(self, w: __m512i, ws: __m512i) -> Self::Twiddle;
    /// The lazy product, for `y < 4q`.
    unsafe fn mul(self, y: __m512i, w: Self::Twiddle) -> __m512i;
}

/// `hi = ⌊ws·y/2^64⌋` from `vpmuludq` partials, `w·y − hi·q` by two
/// wrapping `vpmullq` (any `y < 2^64`; the lazy bound needs `q < 2^62`).
#[derive(Clone, Copy)]
struct Dq {
    q: __m512i,
}

impl ShoupMul8 for Dq {
    /// `(w, ws, h)` with `ws >> 32` in the low dword of each lane of `h`
    /// (all `vpmuludq` reads).
    type Twiddle = (__m512i, __m512i, __m512i);

    #[inline(always)]
    unsafe fn new(q: u64) -> Self {
        Dq { q: _mm512_set1_epi64(q as i64) }
    }

    #[inline(always)]
    unsafe fn splat(self, w: u64, ws: u64) -> Self::Twiddle {
        let [w, ws, ws_hi] = [w, ws, ws >> 32].map(|v| _mm512_set1_epi64(v as i64));
        (w, ws, ws_hi)
    }

    /// `ws`'s high halves by a dword shuffle, not a shift: LLVM matches
    /// `mul_hi64` over `ws >> 32` and `y >> 32` as a 128-bit product and
    /// lowers it to eight scalar `mul`s.
    #[inline(always)]
    unsafe fn twiddle(self, w: __m512i, ws: __m512i) -> Self::Twiddle {
        (w, ws, _mm512_shuffle_epi32::<0b11_11_01_01>(ws))
    }

    #[inline(always)]
    unsafe fn mul(self, y: __m512i, (w, ws, ws_hi): Self::Twiddle) -> __m512i {
        let hi = mul_hi64(ws, ws_hi, y, _mm512_srli_epi64::<32>(y));
        _mm512_sub_epi64(_mm512_mullo_epi64(w, y), _mm512_mullo_epi64(hi, self.q))
    }
}

/// `hi = ⌊(ws >> 12)·y/2^52⌋` by `vpmadd52huq`, then the low 52 bits of
/// `w·y + hi·(2^52 − q)` by two `vpmadd52luq` and a mask. For `q < 2^50`
/// and `y < 2^52`: `0 ≤ w·y − hi·q < q·(y/2^52 + 1) < 2q < 2^52`, so the
/// masked sum is that difference.
#[derive(Clone, Copy)]
struct Ifma {
    neg_q: __m512i,
    low52: __m512i,
}

impl ShoupMul8 for Ifma {
    /// `(w, ws >> 12)`.
    type Twiddle = (__m512i, __m512i);

    #[inline(always)]
    unsafe fn new(q: u64) -> Self {
        Ifma {
            neg_q: _mm512_set1_epi64(((1u64 << 52) - q) as i64),
            low52: _mm512_set1_epi64(((1u64 << 52) - 1) as i64),
        }
    }

    #[inline(always)]
    unsafe fn splat(self, w: u64, ws: u64) -> Self::Twiddle {
        (_mm512_set1_epi64(w as i64), _mm512_set1_epi64((ws >> 12) as i64))
    }

    #[inline(always)]
    unsafe fn twiddle(self, w: __m512i, ws: __m512i) -> Self::Twiddle {
        (w, _mm512_srli_epi64::<12>(ws))
    }

    #[inline(always)]
    unsafe fn mul(self, y: __m512i, (w, ws52): Self::Twiddle) -> __m512i {
        let zero = _mm512_setzero_si512();
        let hi = _mm512_madd52hi_epu64(zero, ws52, y);
        let wy = _mm512_madd52lo_epu64(zero, w, y);
        _mm512_and_si512(_mm512_madd52lo_epu64(wy, hi, self.neg_q), self.low52)
    }
}

/// Shuffle patterns for one interleaved ("tail") pass at `t ∈ {1,2,4}`.
///
/// A 16-element block holds `16/(2t)` butterfly groups; `u`/`v` pick
/// the group halves out of the block (indices 0–7 address the first
/// loaded vector, 8–15 the second, per `vpermi2q`), `tw` replicates
/// each of the block's consecutive twiddles `t` times, and `o0`/`o1`
/// interleave the halves back into block order.
struct TailIdx {
    u: __m512i,
    v: __m512i,
    tw: __m512i,
    o0: __m512i,
    o1: __m512i,
}

#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn tail_idx(t: usize) -> TailIdx {
    match t {
        4 => TailIdx {
            u: _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
            v: _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
            tw: _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1),
            o0: _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11),
            o1: _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15),
        },
        2 => TailIdx {
            u: _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13),
            v: _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15),
            tw: _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3),
            o0: _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11),
            o1: _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15),
        },
        _ => TailIdx {
            u: _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14),
            v: _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15),
            tw: _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7),
            o0: _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11),
            o1: _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15),
        },
    }
}

#[inline(always)]
unsafe fn forward_body<M: ShoupMul8>(table: &NttTable, a: &mut [u64]) {
    let q = table.q;
    let two_q = 2 * q;
    let n = table.n;
    let mul = M::new(q);
    let q_v = _mm512_set1_epi64(q as i64);
    let two_q_v = _mm512_set1_epi64(two_q as i64);
    let base = a.as_mut_ptr();
    let mut t = n;
    let mut m = 1;
    // Main passes: each group's halves are ≥ one vector long.
    while t > 8 {
        t /= 2;
        for i in 0..m {
            let j1 = 2 * i * t;
            let w = mul.splat(table.psi_rev[m + i], table.psi_rev_shoup[m + i]);
            let mut j = j1;
            while j < j1 + t {
                // SAFETY: j + t + 7 ≤ j1 + 2t − 1 < n.
                let pu = base.add(j) as *mut __m512i;
                let pv = base.add(j + t) as *mut __m512i;
                let u = sub_if_ge(_mm512_loadu_si512(pu), two_q_v);
                let v = mul.mul(_mm512_loadu_si512(pv), w);
                _mm512_storeu_si512(pu, _mm512_add_epi64(u, v));
                _mm512_storeu_si512(pv, _mm512_add_epi64(u, _mm512_sub_epi64(two_q_v, v)));
                j += 8;
            }
        }
        m *= 2;
    }
    // Tail passes (t = 4, 2, 1): interleaved halves via vpermi2q. The
    // last pass canonicalizes its outputs, replacing the separate
    // [0, 4q) → [0, q) sweep.
    while m < n {
        t /= 2;
        let idx = tail_idx(t);
        let groups_per_block = 16 / (2 * t);
        let tw_base = table.psi_rev.as_ptr().add(m);
        let tws_base = table.psi_rev_shoup.as_ptr().add(m);
        let mut k = 0;
        let mut g = 0;
        while k < n {
            // SAFETY: blocks cover a[k..k+16], k + 16 ≤ n (16 | n for
            // n ≥ MIN_VECTOR_RING). Twiddle loads read 8 u64 at
            // offset m + g; the largest such read ends at
            // m + (m − groups_per_block) + 8 ≤ 2m ≤ n.
            let p0 = base.add(k) as *mut __m512i;
            let p1 = base.add(k + 8) as *mut __m512i;
            let z0 = _mm512_loadu_si512(p0);
            let z1 = _mm512_loadu_si512(p1);
            let u = sub_if_ge(_mm512_permutex2var_epi64(z0, idx.u, z1), two_q_v);
            let y = _mm512_permutex2var_epi64(z0, idx.v, z1);
            let tw_raw = _mm512_loadu_si512(tw_base.add(g) as *const __m512i);
            let tws_raw = _mm512_loadu_si512(tws_base.add(g) as *const __m512i);
            let w = mul.twiddle(
                _mm512_permutexvar_epi64(idx.tw, tw_raw),
                _mm512_permutexvar_epi64(idx.tw, tws_raw),
            );
            let v = mul.mul(y, w);
            let mut out_u = _mm512_add_epi64(u, v);
            let mut out_v = _mm512_add_epi64(u, _mm512_sub_epi64(two_q_v, v));
            if t == 1 {
                out_u = sub_if_ge(sub_if_ge(out_u, two_q_v), q_v);
                out_v = sub_if_ge(sub_if_ge(out_v, two_q_v), q_v);
            }
            _mm512_storeu_si512(p0, _mm512_permutex2var_epi64(out_u, idx.o0, out_v));
            _mm512_storeu_si512(p1, _mm512_permutex2var_epi64(out_u, idx.o1, out_v));
            k += 16;
            g += groups_per_block;
        }
        m *= 2;
    }
}

#[inline(always)]
unsafe fn inverse_body<M: ShoupMul8>(table: &NttTable, a: &mut [u64]) {
    let q = table.q;
    let two_q = 2 * q;
    let n = table.n;
    let mul = M::new(q);
    let q_v = _mm512_set1_epi64(q as i64);
    let two_q_v = _mm512_set1_epi64(two_q as i64);
    let base = a.as_mut_ptr();
    let mut t = 1;
    let mut m = n;
    // Tail passes (t = 1, 2, 4): interleaved halves.
    while t < 8 && m > 2 {
        let h = m / 2;
        let idx = tail_idx(t);
        let groups_per_block = 16 / (2 * t);
        let tw_base = table.psi_inv_rev.as_ptr().add(h);
        let tws_base = table.psi_inv_rev_shoup.as_ptr().add(h);
        let mut k = 0;
        let mut g = 0;
        while k < n {
            // SAFETY: same block/twiddle bounds as the forward tail.
            let p0 = base.add(k) as *mut __m512i;
            let p1 = base.add(k + 8) as *mut __m512i;
            let z0 = _mm512_loadu_si512(p0);
            let z1 = _mm512_loadu_si512(p1);
            let u = _mm512_permutex2var_epi64(z0, idx.u, z1);
            let v = _mm512_permutex2var_epi64(z0, idx.v, z1);
            let tw_raw = _mm512_loadu_si512(tw_base.add(g) as *const __m512i);
            let tws_raw = _mm512_loadu_si512(tws_base.add(g) as *const __m512i);
            let w = mul.twiddle(
                _mm512_permutexvar_epi64(idx.tw, tw_raw),
                _mm512_permutexvar_epi64(idx.tw, tws_raw),
            );
            let sum = sub_if_ge(_mm512_add_epi64(u, v), two_q_v);
            let diff = _mm512_sub_epi64(_mm512_add_epi64(u, two_q_v), v);
            let out_v = mul.mul(diff, w);
            _mm512_storeu_si512(p0, _mm512_permutex2var_epi64(sum, idx.o0, out_v));
            _mm512_storeu_si512(p1, _mm512_permutex2var_epi64(sum, idx.o1, out_v));
            k += 16;
            g += groups_per_block;
        }
        t *= 2;
        m = h;
    }
    // Main passes, stopping before the final (t = N/2) one.
    while m > 2 {
        let h = m / 2;
        let mut j1 = 0;
        for i in 0..h {
            let w = mul.splat(table.psi_inv_rev[h + i], table.psi_inv_rev_shoup[h + i]);
            let mut j = j1;
            while j < j1 + t {
                // SAFETY: j + t + 7 ≤ j1 + 2t − 1 < n.
                let pu = base.add(j) as *mut __m512i;
                let pv = base.add(j + t) as *mut __m512i;
                let u = _mm512_loadu_si512(pu);
                let v = _mm512_loadu_si512(pv);
                let sum = sub_if_ge(_mm512_add_epi64(u, v), two_q_v);
                _mm512_storeu_si512(pu, sum);
                let diff = _mm512_sub_epi64(_mm512_add_epi64(u, two_q_v), v);
                _mm512_storeu_si512(pv, mul.mul(diff, w));
                j += 8;
            }
            j1 += 2 * t;
        }
        t *= 2;
        m = h;
    }
    // Final pass (t = N/2, one twiddle): fold in N^{-1} on the sum
    // half and the prefolded twiddle on the difference half, emitting
    // fully reduced outputs — replaces the separate scaling sweep.
    let w_n = mul.splat(table.n_inv, table.n_inv_shoup);
    let w_f = mul.splat(table.inv_last_folded, table.inv_last_folded_shoup);
    let half = n / 2;
    let mut j = 0;
    while j < half {
        // SAFETY: j + half + 7 ≤ n − 1.
        let pu = base.add(j) as *mut __m512i;
        let pv = base.add(j + half) as *mut __m512i;
        let u = _mm512_loadu_si512(pu);
        let v = _mm512_loadu_si512(pv);
        let sum = sub_if_ge(_mm512_add_epi64(u, v), two_q_v);
        _mm512_storeu_si512(pu, sub_if_ge(mul.mul(sum, w_n), q_v));
        let diff = _mm512_sub_epi64(_mm512_add_epi64(u, two_q_v), v);
        _mm512_storeu_si512(pv, sub_if_ge(mul.mul(diff, w_f), q_v));
        j += 8;
    }
}

/// `acc ← acc ± w∘x mod q` on whole 8-element chunks; the `len % 8`
/// tail runs the scalar row. Inputs are canonical, so each product is
/// reduced once to `[0, q)` before the modular add or subtract.
#[inline(always)]
unsafe fn mul_acc_row_body<M: ShoupMul8>(
    q: u64,
    acc: &mut [u64],
    w: &[u64],
    w_shoup: &[u64],
    x: &[u64],
    subtract: bool,
) {
    let mul = M::new(q);
    let q_v = _mm512_set1_epi64(q as i64);
    let vectors = acc.len() / 8 * 8;
    let mut j = 0;
    while j < vectors {
        // SAFETY: j + 8 ≤ vectors ≤ the length of all four rows.
        let pa = acc.as_mut_ptr().add(j) as *mut __m512i;
        let w_j = _mm512_loadu_si512(w.as_ptr().add(j) as *const __m512i);
        let ws_j = _mm512_loadu_si512(w_shoup.as_ptr().add(j) as *const __m512i);
        let x_j = _mm512_loadu_si512(x.as_ptr().add(j) as *const __m512i);
        let p = sub_if_ge(mul.mul(x_j, mul.twiddle(w_j, ws_j)), q_v);
        let a_j = _mm512_loadu_si512(pa);
        let out = if subtract {
            // a − p wraps exactly when a < p, and then a − p + q is the
            // smaller lane.
            let d = _mm512_sub_epi64(a_j, p);
            _mm512_min_epu64(d, _mm512_add_epi64(d, q_v))
        } else {
            sub_if_ge(_mm512_add_epi64(a_j, p), q_v)
        };
        _mm512_storeu_si512(pa, out);
        j += 8;
    }
    mul_acc_row_scalar(
        q,
        &mut acc[vectors..],
        &w[vectors..],
        &w_shoup[vectors..],
        &x[vectors..],
        subtract,
    );
}

#[cfg(test)]
mod tests {
    use super::super::tests::{edge_rows, pairs, row_oracle};
    use super::super::{shoup, NttTable};
    use super::*;
    use crate::ckks::modarith::{find_ntt_primes, mul_mod};
    use rand::{rngs::StdRng, SeedableRng};

    /// The multipliers this CPU can run at `q`, saying on stderr when
    /// IFMA is absent (the test then covers the DQ bodies only).
    fn multipliers(q: u64) -> Vec<Multiplier> {
        if q < IFMA_BOUND && ifma_detected() {
            vec![Multiplier::Dq, Multiplier::Ifma]
        } else {
            vec![Multiplier::Dq]
        }
    }

    /// Whether AVX-512F/DQ (and IFMA) are here, said on stderr so the
    /// log shows which compilations ran.
    fn report() -> bool {
        let ifma = if ifma_detected() { "detected" } else { "absent — DQ multiplier only" };
        if !available() {
            eprintln!("avx512f+avx512dq: absent — no AVX-512 body to test");
            return false;
        }
        eprintln!("avx512f+avx512dq: detected; avx512ifma: {ifma}");
        true
    }

    #[test]
    fn every_multiplier_matches_scalar_transforms() {
        if !report() {
            return;
        }
        let scalar = &super::super::SCALAR_KERNEL;
        let mut rng = StdRng::seed_from_u64(0x1f3a);
        for bits in [30, 35, 40, 45, 50] {
            for n in [16usize, 512, 8192, 32768] {
                let q = find_ntt_primes(bits, 1, 2 * n as u64)[0];
                let table = NttTable::with_kernel(n, q, scalar);
                for (what, input) in edge_rows(&mut rng, n, q) {
                    let mut fwd_ref = input.clone();
                    table.forward_scalar(&mut fwd_ref);
                    let mut inv_ref = input.clone();
                    table.inverse_scalar(&mut inv_ref);
                    for mul in multipliers(q) {
                        let at = format!("{mul:?} on {what} at {bits}-bit prime, n = {n}");
                        let mut fwd = input.clone();
                        forward_with(mul, &table, &mut fwd);
                        assert_eq!(fwd, fwd_ref, "forward: {at}");
                        let mut inv = input.clone();
                        inverse_with(mul, &table, &mut inv);
                        assert_eq!(inv, inv_ref, "inverse: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_multiplier_matches_the_row_oracle() {
        if !report() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x20e5);
        for bits in [30, 35, 40, 45, 50, 61] {
            let q = find_ntt_primes(bits, 1, 2 * 8192)[0];
            // 8195 elements: whole vectors and a scalar tail.
            let rows = edge_rows(&mut rng, 8195, q);
            for (what_w, w) in &rows {
                let w_shoup: Vec<u64> = w.iter().map(|&v| shoup(v, q)).collect();
                for ((what_x, x), (what_a, acc)) in pairs(&rows) {
                    for subtract in [false, true] {
                        let want = row_oracle(q, acc, w, x, subtract);
                        for mul in multipliers(q) {
                            let mut got = acc.clone();
                            mul_acc_row_with(mul, q, &mut got, w, &w_shoup, x, subtract);
                            assert!(
                                got == want,
                                "{mul:?} w = {what_w}, x = {what_x}, acc = {what_a}, \
                                 subtract = {subtract} at {bits}-bit prime"
                            );
                        }
                    }
                }
            }
        }
    }

    /// One lane-helper product per `y`, through a target-feature frame.
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn dq_lanes(q: u64, w: u64, y: [u64; 8]) -> [u64; 8] {
        lanes::<Dq>(q, w, y)
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn ifma_lanes(q: u64, w: u64, y: [u64; 8]) -> [u64; 8] {
        lanes::<Ifma>(q, w, y)
    }

    #[inline(always)]
    unsafe fn lanes<M: ShoupMul8>(q: u64, w: u64, y: [u64; 8]) -> [u64; 8] {
        let mul = M::new(q);
        let tw = mul.splat(w, shoup(w, q));
        let r = mul.mul(_mm512_loadu_si512(y.as_ptr() as *const __m512i), tw);
        let mut out = [0u64; 8];
        _mm512_storeu_si512(out.as_mut_ptr() as *mut __m512i, r);
        out
    }

    fn assert_lazy_products(name: &str, q: u64, ys: [u64; 8], f: impl Fn(u64) -> [u64; 8]) {
        for w in [0, 1, q - 1] {
            for (&y, r) in ys.iter().zip(f(w)) {
                let at = format!("{name}: q = {q}, w = {w}, y = {y}");
                assert!(r < 2 * q, "lazy product out of range: {at}");
                assert_eq!(r % q, mul_mod(w, y % q, q), "wrong residue: {at}");
            }
        }
    }

    /// Both 8-lane Shoup helpers at the ends of their lazy input range:
    /// DQ at the largest 61-bit prime up to `4q − 1`, IFMA at the largest
    /// prime below `2^50` up to `2^52 − 1`.
    #[test]
    fn lazy_products_stay_below_two_q_at_the_range_edges() {
        if !report() {
            return;
        }
        let q = find_ntt_primes(61, 1, 2)[0];
        let ys = [0, 1, q - 1, 2 * q - 1, 4 * q - 1, q, 2 * q, 3 * q];
        // SAFETY: AVX-512F/DQ detected by `report`.
        assert_lazy_products("dq", q, ys, |w| unsafe { dq_lanes(q, w, ys) });
        if ifma_detected() {
            let q = find_ntt_primes(50, 1, 2)[0];
            let ys = [0, 1, q - 1, 2 * q - 1, 4 * q - 1, (1 << 52) - 1, q, 3 * q];
            // SAFETY: IFMA detected on the line above.
            assert_lazy_products("ifma", q, ys, |w| unsafe { ifma_lanes(q, w, ys) });
        }
    }
}
