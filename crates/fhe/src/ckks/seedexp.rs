//! Deterministic seeded expansion of uniform polynomials.
//!
//! Symmetric CKKS ciphertexts have `c1 = a` drawn uniformly from `R_q`,
//! so the wire format can ship a 32-byte seed in place of the full
//! residue rows and let the receiver re-expand them. The expansion must
//! be byte-stable forever — a client and server built from different
//! toolchains (or different `rand` crate versions) must derive the same
//! polynomial from the same seed — so the generator here is hand-rolled:
//! splitmix64 to absorb the seed into per-stream state, a
//! xoshiro256\*\* core for the output stream, and mask-and-reject
//! sampling into `[0, q)`. Each `(seed, prime index)` pair gets an
//! independent stream so residue rows can be expanded in any order (or
//! in parallel) with identical results.
//!
//! Rows are expanded directly in the evaluation (NTT) domain: the NTT is
//! a bijection on `Z_q^N`, so a uniform evaluation-domain polynomial is
//! exactly as uniform as a coefficient-domain one, and fresh symmetric
//! ciphertexts never pay a transform for `c1` at all.

/// One round of splitmix64: advances `state` and returns a mixed output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256** stream keyed by `(seed, stream index)`.
pub(crate) struct SeedStream {
    s: [u64; 4],
}

impl SeedStream {
    /// Derives an independent stream from the 32-byte seed and a stream
    /// index (one stream per RNS prime row).
    pub(crate) fn new(seed: &[u8; 32], stream: u64) -> Self {
        // Absorb the seed words and the stream index through splitmix64,
        // then squeeze the four state words. splitmix64 is a bijection of
        // its state, so distinct (seed, stream) pairs cannot collapse to
        // the same absorber state.
        let mut st = stream ^ 0xA076_1D64_78BD_642F;
        for chunk in seed.chunks_exact(8) {
            st ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            let _ = splitmix64(&mut st);
        }
        let mut s = [0u64; 4];
        for word in s.iter_mut() {
            *word = splitmix64(&mut st);
        }
        // xoshiro256** requires a nonzero state; the squeeze outputs are
        // effectively random, but guard the measure-zero case anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SeedStream { s }
    }

    /// Next 64 output bits (xoshiro256** scrambler).
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw from `[0, q)` by masking to `bits_for(q)` bits and
    /// rejecting overshoots (acceptance ≥ 1/2 per draw).
    pub(crate) fn uniform_below(&mut self, q: u64) -> u64 {
        debug_assert!(q >= 2);
        let mask = u64::MAX >> (q - 1).leading_zeros();
        loop {
            let v = self.next_u64() & mask;
            if v < q {
                return v;
            }
        }
    }
}

/// Expands residue row `prime_idx` of the seeded uniform polynomial —
/// `out.len()` evaluation-domain points in `[0, q)` — into a caller-owned
/// row.
pub(crate) fn expand_row_into(seed: &[u8; 32], prime_idx: usize, q: u64, out: &mut [u64]) {
    let mut stream = SeedStream::new(seed, prime_idx as u64);
    for slot in out {
        *slot = stream.uniform_below(q);
    }
}

/// 32-bit integrity digest of a seed, carried alongside it on the wire.
///
/// A flipped seed bit would otherwise re-expand to an unrelated uniform
/// `c1` and silently decrypt to garbage; the digest turns that into a
/// deserialization *error*, keeping "corruption ⇒ garbage" semantics
/// exclusive to the canonical coefficient format used by the
/// noisy-channel experiments.
pub(crate) fn seed_check(seed: &[u8; 32]) -> u32 {
    let mut st = 0x1B87_3593_3B26_87DAu64;
    for chunk in seed.chunks_exact(8) {
        st ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let _ = splitmix64(&mut st);
    }
    let folded = splitmix64(&mut st);
    (folded ^ (folded >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand_row(seed: &[u8; 32], prime_idx: usize, q: u64, n: usize) -> Vec<u64> {
        let mut out = vec![0; n];
        expand_row_into(seed, prime_idx, q, &mut out);
        out
    }

    #[test]
    fn expansion_is_deterministic() {
        let seed = [0xABu8; 32];
        assert_eq!(expand_row(&seed, 0, 65537, 64), expand_row(&seed, 0, 65537, 64));
    }

    #[test]
    fn streams_differ_per_prime_and_seed() {
        let seed = [1u8; 32];
        let mut other = seed;
        other[31] ^= 1;
        let q = (1u64 << 50) - 27;
        assert_ne!(expand_row(&seed, 0, q, 32), expand_row(&seed, 1, q, 32));
        assert_ne!(expand_row(&seed, 0, q, 32), expand_row(&other, 0, q, 32));
    }

    #[test]
    fn outputs_are_in_range_and_cover_high_bits() {
        let seed = [7u8; 32];
        let q = (1u64 << 40) + 1 - (1u64 << 20); // forces rejection loop
        let row = expand_row(&seed, 3, q, 4096);
        assert!(row.iter().all(|&x| x < q));
        assert!(row.iter().any(|&x| x > q / 2), "top half of range never hit");
    }

    #[test]
    fn known_answer_is_stable() {
        // Locks the stream definition: any change to the absorber or the
        // scrambler breaks wire compatibility and must fail loudly.
        let seed: [u8; 32] = core::array::from_fn(|i| i as u8);
        let mut s = SeedStream::new(&seed, 2);
        let first: Vec<u64> = (0..4).map(|_| s.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                9347366695214510375,
                18349720289971276793,
                10545084371879311845,
                3970245312971844173
            ]
        );
    }

    #[test]
    fn seed_check_detects_any_single_byte_flip() {
        let seed = [0x5Au8; 32];
        let base = seed_check(&seed);
        for i in 0..32 {
            let mut corrupted = seed;
            corrupted[i] ^= 0x10;
            assert_ne!(seed_check(&corrupted), base, "flip at byte {i} undetected");
        }
    }
}
