//! Negacyclic number-theoretic transform over `Z_q[X]/(X^N + 1)`.
//!
//! Implements the merged-twist NTT of Longa–Naehrig: the powers of the
//! primitive 2N-th root ψ are folded into the butterfly twiddles, so the
//! transform computes the negacyclic convolution directly without separate
//! pre-/post-scaling passes.
//!
//! Twiddle multiplications use Shoup's precomputed-quotient trick: for
//! each twiddle `w` we store `w_shoup = ⌊w·2^64/q⌋`, turning the modular
//! product into one `u64×u64→u128` high half, two wrapping `u64`
//! multiplies and at most one conditional subtraction. Butterflies run
//! with Harvey-style lazy reduction — values stay in `[0, 4q)` through
//! the forward passes and `[0, 2q)` through the inverse passes, and are
//! reduced to canonical `[0, q)` once at the end — which requires
//! `q < 2^62` (guaranteed: `find_ntt_primes` caps primes at 62 bits).
//! Outputs are bit-identical to the plain `mul_mod` implementation this
//! replaces.
//!
//! # Kernel backends
//!
//! The butterfly loops run behind the [`NttKernel`] trait. Two
//! backends exist: the scalar Harvey path above (always compiled, the
//! reference, and the only one off `x86_64`) and an AVX-512 backend
//! (8-lane, both directions). One backend is selected per process by
//! runtime feature detection (AVX-512 wherever the CPU has it), and the
//! choice is cached inside every [`NttTable`], so `forward`/
//! `inverse`/`multiply` and the per-RNS-prime loops dispatch
//! through a preresolved vtable pointer with zero per-call branching.
//! All backends perform the *same* wrapping-u64 lazy-reduction
//! arithmetic, so outputs are bit-identical across backends (asserted
//! by proptests and by `cipher::tests::every_ntt_kernel_matches_scalar_end_to_end`,
//! which runs whole CKKS flows through every detected kernel).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use super::modarith::{add_mod, inv_mod, mul_mod, primitive_root, reduce_once, sub_mod};
use rhychee_telemetry as telemetry;

#[cfg(target_arch = "x86_64")]
mod avx512;

/// One NTT butterfly-kernel backend.
///
/// Implementations must reproduce the scalar reference arithmetic
/// exactly — same lazy-reduction bounds, same wrapping-u64 operations —
/// so that every backend is bit-identical to the scalar reference
/// (`NttTable::forward_scalar`); the repo's determinism invariants
/// (parallel determinism, the pinned model bits of `domain_equivalence`)
/// depend on it.
/// The table's twiddles are passed back in so kernels stay stateless
/// and one process-global instance serves every `(n, q)` pair.
pub trait NttKernel: Send + Sync + std::fmt::Debug {
    /// Stable backend name: `"scalar"` or `"avx512"`.
    fn name(&self) -> &'static str;
    /// In-place forward butterflies + canonicalization for `table`.
    fn forward(&self, table: &NttTable, a: &mut [u64]);
    /// In-place inverse butterflies + `N^{-1}` scaling for `table`.
    fn inverse(&self, table: &NttTable, a: &mut [u64]);
    /// `acc ← acc + w∘x mod q`, or `acc − w∘x` when `subtract`, with
    /// canonical outputs: the pointwise product of a fixed row `w` (a
    /// key) with Shoup companions `w_shoup[j] = ⌊w[j]·2^64/q⌋` and a
    /// fresh row `x`, accumulated in place. Every input is below
    /// `q < 2^62` and the four rows have one length. The default runs
    /// scalar Shoup products.
    fn mul_acc_row(
        &self,
        q: u64,
        acc: &mut [u64],
        w: &[u64],
        w_shoup: &[u64],
        x: &[u64],
        subtract: bool,
    ) {
        mul_acc_row_scalar(q, acc, w, w_shoup, x, subtract);
    }
}

/// The scalar body of [`NttKernel::mul_acc_row`] (and the SIMD rows'
/// tail): one Shoup product and one sign-masked reduce per element.
fn mul_acc_row_scalar(
    q: u64,
    acc: &mut [u64],
    w: &[u64],
    w_shoup: &[u64],
    x: &[u64],
    subtract: bool,
) {
    let rows = acc.iter_mut().zip(w.iter().zip(w_shoup)).zip(x);
    let product = |(w, ws): (&u64, &u64), x: u64| reduce_once(mul_shoup_lazy(x, *w, *ws, q), q);
    if subtract {
        for ((a, w), &x) in rows {
            *a = reduce_once(*a + q - product(w, x), q);
        }
    } else {
        for ((a, w), &x) in rows {
            *a = reduce_once(*a + product(w, x), q);
        }
    }
}

/// The scalar Harvey lazy-reduction reference backend (always available).
#[derive(Debug)]
struct ScalarKernel;

static SCALAR_KERNEL: ScalarKernel = ScalarKernel;

impl NttKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }
    fn forward(&self, table: &NttTable, a: &mut [u64]) {
        table.forward_scalar(a);
    }
    fn inverse(&self, table: &NttTable, a: &mut [u64]) {
        table.inverse_scalar(a);
    }
}

/// Both backends compiled into this binary *and* usable on this CPU:
/// scalar first, then AVX-512 only when AVX-512F/DQ are detected at
/// runtime, so handing any element of this slice to
/// [`NttTable::with_kernel`] is always safe.
pub fn available_kernels() -> &'static [&'static dyn NttKernel] {
    static KERNELS: OnceLock<Vec<&'static dyn NttKernel>> = OnceLock::new();
    KERNELS.get_or_init(|| {
        #[allow(unused_mut)]
        let mut v: Vec<&'static dyn NttKernel> = vec![&SCALAR_KERNEL];
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            v.push(avx512::kernel());
        }
        v
    })
}

/// The process-wide backend: the last (widest) entry of
/// [`available_kernels`] — AVX-512 where AVX-512F/DQ are detected, else
/// scalar — resolved once and cached, so per-call dispatch is a
/// preresolved vtable pointer. Publishes the `fhe.ckks.ntt.backend`
/// info metric on first resolution.
pub fn active_kernel() -> &'static dyn NttKernel {
    static ACTIVE: OnceLock<&'static dyn NttKernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let kernel = *available_kernels().last().expect("scalar kernel always present");
        telemetry::count_labeled("fhe.ckks.ntt.backend", "backend", kernel.name(), 1);
        kernel
    })
}

/// Process-wide table cache keyed by `(n, q)`.
///
/// Twiddle tables are pure functions of the ring degree and modulus, so
/// every [`CkksContext`](super::cipher::CkksContext) built for the same
/// parameter set can share one table per prime — repeated context
/// construction (per-client setups, tests) stops redoing the root search
/// and `O(N)` twiddle precomputation. Like the `rhychee-par` pool the
/// cache is spawn-once and never evicted; a workload touches a handful
/// of `(n, q)` pairs at most.
type TableMap = HashMap<(usize, u64), Arc<NttTable>>;
static TABLE_CACHE: OnceLock<Mutex<TableMap>> = OnceLock::new();

/// Returns the shared table for `(n, q)`, building it on first use.
///
/// Emits `fhe.ckks.ntt.table_cache.hit` / `.miss` counters so the
/// reuse rate is observable.
///
/// # Panics
///
/// Panics under the same conditions as [`NttTable::new`].
pub fn cached_table(n: usize, q: u64) -> Arc<NttTable> {
    let cache = TABLE_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(table) = map.get(&(n, q)) {
        telemetry::count("fhe.ckks.ntt.table_cache.hit", 1);
        return Arc::clone(table);
    }
    telemetry::count("fhe.ckks.ntt.table_cache.miss", 1);
    let table = Arc::new(NttTable::new(n, q));
    map.insert((n, q), Arc::clone(&table));
    table
}

/// Total bytes retained by the process-wide twiddle-table cache — one
/// entry per `(n, q)` pair ever requested, never evicted. Feeds the
/// `fhe.ntt_table_cache` entry of the memory observability breakdown.
pub(crate) fn table_cache_bytes() -> u64 {
    let Some(cache) = TABLE_CACHE.get() else {
        return 0;
    };
    let map = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    map.values().map(|t| t.bytes()).sum()
}

/// `⌊w·2^64/q⌋` — Shoup's precomputed quotient for twiddle `w < q`.
#[inline]
pub(super) fn shoup(w: u64, q: u64) -> u64 {
    (((w as u128) << 64) / q as u128) as u64
}

/// Shoup modular product `w·y mod q`, lazily reduced to `[0, 2q)`.
///
/// Requires `w < q` and `w_shoup = ⌊w·2^64/q⌋`; `y` may be any `u64`
/// (in particular a `[0, 4q)` lazy value).
#[inline(always)]
fn mul_shoup_lazy(y: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let hi = ((w_shoup as u128 * y as u128) >> 64) as u64;
    w.wrapping_mul(y).wrapping_sub(hi.wrapping_mul(q))
}

/// Shoup modular product fully reduced to `[0, q)`.
#[inline(always)]
pub(super) fn mul_shoup(y: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    let r = mul_shoup_lazy(y, w, w_shoup, q);
    if r >= q {
        r - q
    } else {
        r
    }
}

/// Precomputed NTT tables for one prime modulus.
///
/// Construction cost is `O(N)` after the root search; transforms are
/// `O(N log N)`. One table is built per RNS prime in a parameter set.
#[derive(Debug, Clone)]
pub struct NttTable {
    q: u64,
    n: usize,
    /// ψ^i in bit-reversed index order (forward twiddles).
    psi_rev: Vec<u64>,
    /// Shoup quotients for `psi_rev`.
    psi_rev_shoup: Vec<u64>,
    /// ψ^{-i} in bit-reversed index order (inverse twiddles).
    psi_inv_rev: Vec<u64>,
    /// Shoup quotients for `psi_inv_rev`.
    psi_inv_rev_shoup: Vec<u64>,
    /// N^{-1} mod q, folded into the last inverse pass.
    n_inv: u64,
    /// Shoup quotient for `n_inv`.
    n_inv_shoup: u64,
    /// `psi_inv_rev[1] · N^{-1} mod q` — the single twiddle of the
    /// final inverse pass with the `N^{-1}` scaling pre-folded, so
    /// SIMD kernels can emit canonical outputs from that pass and skip
    /// the separate scaling sweep (outputs are fully reduced either
    /// way, so this cannot change results).
    inv_last_folded: u64,
    /// Shoup quotient for `inv_last_folded`.
    inv_last_folded_shoup: u64,
    /// The butterfly backend this table dispatches through — resolved
    /// once at construction ([`active_kernel`] unless overridden via
    /// [`NttTable::with_kernel`]), so per-call dispatch is branch-free.
    kernel: &'static dyn NttKernel,
}

impl NttTable {
    /// Builds tables for ring degree `n` (a power of two) and prime `q`
    /// with `q ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two, `q ≢ 1 (mod 2n)`, or
    /// `q ≥ 2^62` (the lazy-reduction headroom bound).
    pub fn new(n: usize, q: u64) -> Self {
        Self::with_kernel(n, q, active_kernel())
    }

    /// Builds tables for `(n, q)` dispatching through an explicit
    /// backend instead of the process-wide [`active_kernel`]. Used by
    /// the per-backend proptests, the cross-backend bit-identity test
    /// and `bench_fhe`'s per-backend rows. `kernel` must come from
    /// [`available_kernels`], which only hands out backends the running
    /// CPU supports.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NttTable::new`].
    pub fn with_kernel(n: usize, q: u64, kernel: &'static dyn NttKernel) -> Self {
        assert!(n.is_power_of_two(), "ring degree must be a power of two");
        assert_eq!((q - 1) % (2 * n as u64), 0, "q must be 1 mod 2N");
        assert!(q < 1u64 << 62, "q must be < 2^62 for lazy reduction");
        let psi = primitive_root(2 * n as u64, q);
        let psi_inv = inv_mod(psi, q);
        let log_n = n.trailing_zeros();
        let mut psi_rev = vec![0u64; n];
        let mut psi_inv_rev = vec![0u64; n];
        let mut fwd = 1u64;
        let mut inv = 1u64;
        let mut powers_fwd = vec![0u64; n];
        let mut powers_inv = vec![0u64; n];
        for i in 0..n {
            powers_fwd[i] = fwd;
            powers_inv[i] = inv;
            fwd = mul_mod(fwd, psi, q);
            inv = mul_mod(inv, psi_inv, q);
        }
        for i in 0..n {
            let r = (i as u32).reverse_bits() >> (32 - log_n);
            psi_rev[i] = powers_fwd[r as usize];
            psi_inv_rev[i] = powers_inv[r as usize];
        }
        let psi_rev_shoup = psi_rev.iter().map(|&w| shoup(w, q)).collect();
        let psi_inv_rev_shoup = psi_inv_rev.iter().map(|&w| shoup(w, q)).collect();
        let n_inv = inv_mod(n as u64, q);
        let n_inv_shoup = shoup(n_inv, q);
        let inv_last_folded = if n > 1 { mul_mod(psi_inv_rev[1], n_inv, q) } else { n_inv };
        let inv_last_folded_shoup = shoup(inv_last_folded, q);
        NttTable {
            q,
            n,
            psi_rev,
            psi_rev_shoup,
            psi_inv_rev,
            psi_inv_rev_shoup,
            n_inv,
            n_inv_shoup,
            inv_last_folded,
            inv_last_folded_shoup,
            kernel,
        }
    }

    /// The prime modulus of this table.
    pub(crate) fn modulus(&self) -> u64 {
        self.q
    }

    /// Name of the butterfly backend this table dispatches through.
    pub fn backend(&self) -> &'static str {
        self.kernel.name()
    }

    /// The ring degree of this table.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Heap bytes held by this table's four twiddle vectors.
    pub fn bytes(&self) -> u64 {
        8 * (self.psi_rev.capacity()
            + self.psi_rev_shoup.capacity()
            + self.psi_inv_rev.capacity()
            + self.psi_inv_rev_shoup.capacity()) as u64
    }

    /// In-place forward negacyclic NTT.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        let _t = telemetry::timer("fhe.ckks.ntt.forward");
        self.kernel.forward(self, a);
    }

    /// Scalar reference forward butterflies (no telemetry, no length
    /// check — callers are [`forward`](Self::forward) and the SIMD
    /// kernels' small-ring fallback).
    pub(crate) fn forward_scalar(&self, a: &mut [u64]) {
        let q = self.q;
        let two_q = 2 * q;
        let mut t = self.n;
        let mut m = 1;
        // Cooley–Tukey passes with the [0, 4q) lazy invariant: `u` is
        // reduced into [0, 2q) before use, the Shoup product lands in
        // [0, 2q), so both outputs stay below 4q.
        while m < self.n {
            t /= 2;
            for i in 0..m {
                let j1 = 2 * i * t;
                let s = self.psi_rev[m + i];
                let s_shoup = self.psi_rev_shoup[m + i];
                for j in j1..j1 + t {
                    let mut u = a[j];
                    if u >= two_q {
                        u -= two_q;
                    }
                    let v = mul_shoup_lazy(a[j + t], s, s_shoup, q);
                    a[j] = u + v;
                    a[j + t] = u + two_q - v;
                }
            }
            m *= 2;
        }
        for x in a.iter_mut() {
            let mut y = *x;
            if y >= two_q {
                y -= two_q;
            }
            if y >= q {
                y -= q;
            }
            *x = y;
        }
    }

    /// In-place inverse negacyclic NTT (including the `N^{-1}` scaling).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != N`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length must equal ring degree");
        let _t = telemetry::timer("fhe.ckks.ntt.inverse");
        self.kernel.inverse(self, a);
    }

    /// Scalar reference inverse butterflies (see
    /// [`forward_scalar`](Self::forward_scalar)).
    pub(crate) fn inverse_scalar(&self, a: &mut [u64]) {
        let q = self.q;
        let two_q = 2 * q;
        let mut t = 1;
        let mut m = self.n;
        // Gentleman–Sande passes with the [0, 2q) lazy invariant: the
        // sum is conditionally reduced back below 2q, the difference
        // (at most 4q before the Shoup product) lands in [0, 2q).
        while m > 1 {
            let h = m / 2;
            let mut j1 = 0;
            for i in 0..h {
                let s = self.psi_inv_rev[h + i];
                let s_shoup = self.psi_inv_rev_shoup[h + i];
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    let mut sum = u + v;
                    if sum >= two_q {
                        sum -= two_q;
                    }
                    a[j] = sum;
                    a[j + t] = mul_shoup_lazy(u + two_q - v, s, s_shoup, q);
                }
                j1 += 2 * t;
            }
            t *= 2;
            m = h;
        }
        for x in a.iter_mut() {
            *x = mul_shoup(*x, self.n_inv, self.n_inv_shoup, q);
        }
    }

    /// `acc ← acc ± w∘x mod q` on this table's backend
    /// ([`NttKernel::mul_acc_row`]): `w` a fixed row with Shoup
    /// companions `w_shoup`, every input canonical.
    ///
    /// # Panics
    ///
    /// Panics if a row's length is not N.
    pub(crate) fn mul_acc(
        &self,
        acc: &mut [u64],
        w: &[u64],
        w_shoup: &[u64],
        x: &[u64],
        subtract: bool,
    ) {
        for len in [acc.len(), w.len(), w_shoup.len(), x.len()] {
            assert_eq!(len, self.n, "row length must equal ring degree");
        }
        self.kernel.mul_acc_row(self.q, acc, w, w_shoup, x, subtract);
    }

    /// Negacyclic polynomial product `a * b mod (X^N + 1, q)` via NTT.
    ///
    /// Convenience wrapper used by tests and non-hot paths; hot paths keep
    /// operands in the NTT domain and multiply pointwise.
    pub fn multiply(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        for (x, y) in fa.iter_mut().zip(&fb) {
            *x = mul_mod(*x, *y, self.q);
        }
        self.inverse(&mut fa);
        fa
    }
}

/// Schoolbook negacyclic multiplication, used as a test oracle.
///
/// `O(N^2)`; only suitable for small N.
pub fn negacyclic_mul_naive(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let p = mul_mod(ai, bj, q);
            let k = i + j;
            if k < n {
                out[k] = add_mod(out[k], p, q);
            } else {
                // X^N = -1
                out[k - n] = sub_mod(out[k - n], p, q);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::modarith::find_ntt_primes;
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// A uniform row and the rows at the edges of the lazy-reduction
    /// ranges: all 0, all `q − 1`, alternating, one `q − 1` impulse.
    pub(super) fn edge_rows(rng: &mut StdRng, n: usize, q: u64) -> [(&'static str, Vec<u64>); 5] {
        let mut impulse = vec![0u64; n];
        impulse[n - 1] = q - 1;
        [
            ("uniform", (0..n).map(|_| rng.gen_range(0..q)).collect()),
            ("all 0", vec![0; n]),
            ("all q-1", vec![q - 1; n]),
            ("alternating 0/q-1", (0..n).map(|i| (i as u64 % 2) * (q - 1)).collect()),
            ("q-1 impulse", impulse),
        ]
    }

    /// Every ordered pair of rows.
    pub(super) fn pairs<T>(rows: &[T]) -> impl Iterator<Item = (&T, &T)> {
        rows.iter().flat_map(move |a| rows.iter().map(move |b| (a, b)))
    }

    /// `acc ± w∘x` by `mul_mod` and `add_mod` / `sub_mod`.
    pub(super) fn row_oracle(
        q: u64,
        acc: &[u64],
        w: &[u64],
        x: &[u64],
        subtract: bool,
    ) -> Vec<u64> {
        let products = w.iter().zip(x).map(|(&w, &x)| mul_mod(w, x, q));
        let op = if subtract { sub_mod } else { add_mod };
        acc.iter().zip(products).map(|(&a, p)| op(a, p, q)).collect()
    }

    /// Every backend's row product equals the oracle at every workspace
    /// prime width, 61 bits included, on every pair of edge rows.
    #[test]
    fn every_backend_row_product_matches_the_oracle() {
        let mut rng = StdRng::seed_from_u64(0x40e);
        for bits in [30, 35, 40, 45, 50, 61] {
            let q = find_ntt_primes(bits, 1, 2 * 8192)[0];
            let rows = edge_rows(&mut rng, 8192, q);
            for &kernel in available_kernels() {
                let table = NttTable::with_kernel(8192, q, kernel);
                for (what_w, w) in &rows {
                    let w_shoup: Vec<u64> = w.iter().map(|&v| shoup(v, q)).collect();
                    for ((what_x, x), (what_a, acc)) in pairs(&rows) {
                        for subtract in [false, true] {
                            let mut got = acc.clone();
                            table.mul_acc(&mut got, w, &w_shoup, x, subtract);
                            assert!(
                                got == row_oracle(q, acc, w, x, subtract),
                                "{}: w = {what_w}, x = {what_x}, acc = {what_a}, \
                                 subtract = {subtract} at {bits}-bit prime",
                                kernel.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn active_kernel_is_the_widest_available() {
        let widest = available_kernels().last().expect("scalar is always available");
        assert_eq!(active_kernel().name(), widest.name());
    }

    fn table(n: usize) -> NttTable {
        let q = find_ntt_primes(40, 1, 2 * n as u64)[0];
        NttTable::new(n, q)
    }

    #[test]
    fn shoup_product_matches_mul_mod() {
        let q = find_ntt_primes(61, 1, 128)[0];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let w = rng.gen_range(0..q);
            let ws = shoup(w, q);
            // `y` ranges over the full lazy domain [0, 4q).
            let y = rng.gen_range(0..4 * q);
            let r = mul_shoup_lazy(y, w, ws, q);
            assert!(r < 2 * q, "lazy result out of range");
            assert_eq!(r % q, mul_mod(w, y % q, q));
            assert_eq!(mul_shoup(y, w, ws, q), mul_mod(w, y % q, q));
        }
    }

    #[test]
    fn forward_inverse_round_trip() {
        let t = table(256);
        let mut rng = StdRng::seed_from_u64(1);
        let original: Vec<u64> = (0..256).map(|_| rng.gen_range(0..t.modulus())).collect();
        let mut a = original.clone();
        t.forward(&mut a);
        assert_ne!(a, original, "transform should not be identity");
        t.inverse(&mut a);
        assert_eq!(a, original);
    }

    #[test]
    fn round_trip_at_61_bit_prime() {
        // Exercises the lazy-reduction headroom near the 62-bit cap.
        let n = 128;
        let q = find_ntt_primes(61, 1, 2 * n as u64)[0];
        assert!(q > 1u64 << 60);
        let t = NttTable::new(n as usize, q);
        let mut rng = StdRng::seed_from_u64(7);
        let original: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        let mut a = original.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        assert_eq!(a, original);
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        assert_eq!(t.multiply(&original, &b), negacyclic_mul_naive(&original, &b, q));
    }

    #[test]
    fn forward_output_is_canonical() {
        let t = table(64);
        let mut rng = StdRng::seed_from_u64(11);
        let mut a: Vec<u64> = (0..64).map(|_| rng.gen_range(0..t.modulus())).collect();
        t.forward(&mut a);
        assert!(a.iter().all(|&x| x < t.modulus()));
    }

    #[test]
    fn ntt_multiply_matches_naive() {
        let t = table(64);
        let q = t.modulus();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
            let b: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
            assert_eq!(t.multiply(&a, &b), negacyclic_mul_naive(&a, &b, q));
        }
    }

    #[test]
    fn multiply_by_one_is_identity() {
        let t = table(128);
        let mut one = vec![0u64; 128];
        one[0] = 1;
        let mut rng = StdRng::seed_from_u64(3);
        let a: Vec<u64> = (0..128).map(|_| rng.gen_range(0..t.modulus())).collect();
        assert_eq!(t.multiply(&a, &one), a);
    }

    #[test]
    fn multiply_by_x_rotates_with_sign() {
        // X * (c_0, ..., c_{N-1}) = (-c_{N-1}, c_0, ..., c_{N-2}) in the
        // negacyclic ring.
        let t = table(16);
        let q = t.modulus();
        let mut x = vec![0u64; 16];
        x[1] = 1;
        let a: Vec<u64> = (1..=16).collect();
        let out = t.multiply(&a, &x);
        assert_eq!(out[0], q - 16);
        assert_eq!(&out[1..], &a[..15]);
    }

    #[test]
    fn works_at_large_degree() {
        let t = table(4096);
        let mut rng = StdRng::seed_from_u64(4);
        let original: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..t.modulus())).collect();
        let mut a = original.clone();
        t.forward(&mut a);
        t.inverse(&mut a);
        assert_eq!(a, original);
    }

    #[test]
    #[should_panic(expected = "ring degree")]
    fn rejects_wrong_length() {
        let t = table(64);
        let mut a = vec![0u64; 32];
        t.forward(&mut a);
    }
}
