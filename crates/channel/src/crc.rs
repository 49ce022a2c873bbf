//! Error-detection codes: CRC-32 (IEEE 802.3) and the 16-bit Internet
//! checksum (RFC 1071).
//!
//! The paper's receiver model (§IV-C) compares both: the checksum is
//! cheaper but far weaker; CRC-32 drives the undetected-error probability
//! `P_re = 2^-32` used in the failure analysis.

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Multiplies a register by `x` modulo `P`, the polynomial
/// `CRC32_POLY` stands for. Registers are reflected:
/// bit 31 holds the coefficient of `x^0`, bit 0 that of `x^31`.
const fn mul_x(reg: u32) -> u32 {
    if reg & 1 == 1 {
        (reg >> 1) ^ CRC32_POLY
    } else {
        reg >> 1
    }
}

/// Slice-by-8 lookup tables, built at compile time.
///
/// `TABLES[0]` is the classic byte-at-a-time table: entry `i` is the
/// CRC register after shifting byte `i` through eight zero bits.
/// `TABLES[k][i]` is the same byte followed by `k` further zero bytes
/// (`TABLES[k][i] = (TABLES[k-1][i] >> 8) ^ TABLES[0][TABLES[k-1][i] & 0xFF]`),
/// so the contribution of each of eight input bytes to the register
/// eight bytes later is one lookup, and the eight lookups XOR together
/// because the CRC is linear over GF(2).
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = mul_x(crc);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Computes the CRC-32 (IEEE 802.3, reflected) of a byte slice.
///
/// # Examples
///
/// ```
/// use rhychee_channel::crc::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // standard check value
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends a CRC-32 over more bytes: given `crc`, the CRC-32 of some
/// prefix (`0` for the empty prefix), returns the CRC-32 of the prefix
/// followed by `data`. So `crc32_update(crc32(a), b) == crc32(a ‖ b)`
/// for any split, and a message scattered over several buffers is
/// checksummed without gathering it into one.
///
/// On x86_64 CPUs with `pclmulqdq`, inputs of 64 bytes or more take a
/// carry-less-multiply fold over four 16-byte lanes. Everything else —
/// shorter inputs, the fold's last `len % 16` bytes, other targets —
/// takes one slice-by-8 register, eight bytes per step, bytewise over
/// the last `% 8`. Both paths give the same bits.
///
/// # Examples
///
/// ```
/// use rhychee_channel::crc::{crc32, crc32_update};
///
/// assert_eq!(crc32_update(crc32(b"1234"), b"56789"), crc32(b"123456789"));
/// ```
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::update(crc, data) {
        return crc;
    }
    !slice_by_8(!crc, data)
}

/// The portable stream: the register after `data` has passed through
/// it (the register is the bitwise NOT of the CRC).
fn slice_by_8(mut reg: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        reg = step8(reg, chunk);
    }
    for &b in chunks.remainder() {
        reg = (reg >> 8) ^ TABLES[0][((reg ^ u32::from(b)) & 0xFF) as usize];
    }
    reg
}

/// One slice-by-8 step: the register after eight more bytes of `chunk`
/// (exactly eight long).
#[inline(always)]
fn step8(reg: u32, chunk: &[u8]) -> u32 {
    let lo = reg ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// The carry-less-multiply fold for the reflected CRC-32, after Gopal
/// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009).
///
/// A 16-byte lane is a polynomial over GF(2); multiplying it by
/// `x^n mod P` moves it `n` bits further down the message and leaves its
/// remainder mod `P` unchanged. Four lanes fold 64 bytes per step, then
/// fold into one lane, which takes the remaining whole 16-byte chunks.
/// The last 128 bits reduce to 64, then to the 32-bit register with one
/// Barrett step. The slice-by-8 stream takes the last `len % 16` bytes.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi32_si128,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::{mul_x, slice_by_8, CRC32_POLY};

    /// `x^n mod P` as the fold multiplies by it: bit-reflected like a
    /// register, then shifted left one, because a carry-less product of
    /// reflected operands comes out one bit low.
    const fn xpow_mod(n: usize) -> i64 {
        let mut reg = 0x8000_0000; // the polynomial 1
        let mut bit = 0;
        while bit < n {
            reg = mul_x(reg);
            bit += 1;
        }
        (reg as i64) << 1
    }

    /// Carries a lane 512 bits forward, over the three lanes after it:
    /// its first eight bytes by `x^(512+32)`, its last eight by
    /// `x^(512−32)` (`0x1_5444_2bd4`, `0x1_c6e4_1596`).
    const FOLD_512: [i64; 2] = [xpow_mod(4 * 128 + 32), xpow_mod(4 * 128 - 32)];

    /// The same for 128 bits, one lane onto the next (`0x1_7519_97d0`,
    /// `0x0_ccaa_009e`).
    const FOLD_128: [i64; 2] = [xpow_mod(128 + 32), xpow_mod(128 - 32)];

    /// Folds the low 32 of the last 96 bits onto the 64 above them
    /// (`0x1_63cd_6124`).
    const FOLD_64: i64 = xpow_mod(64);

    /// `P` itself, bit-reflected over its 33 bits (`0x1_db71_0641`).
    const POLY: i64 = ((CRC32_POLY as i64) << 1) | 1;

    /// Barrett's `μ = ⌊x^64 / P⌋`, bit-reflected over its 33 bits
    /// (`0x1_f701_1641`).
    const MU: i64 = {
        let p = CRC32_POLY.reverse_bits() as u128 | 1 << 32; // P, not reflected
        let (mut rem, mut quo) = (1u128 << 64, 0u64);
        let mut i = 64;
        while i >= 32 {
            if rem >> i & 1 == 1 {
                rem ^= p << (i - 32);
                quo |= 1 << (i - 32);
            }
            i -= 1;
        }
        (quo.reverse_bits() >> 31) as i64
    };

    /// The fold, or `None` when this CPU has no `pclmulqdq`.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if !is_x86_feature_detected!("pclmulqdq") {
            return None;
        }
        // SAFETY: `fold`'s one target feature, `pclmulqdq`, was just
        // detected on this CPU. `fold` touches memory only through safe
        // slice and array indexing.
        Some(unsafe { fold(crc, data) })
    }

    /// `crc32_update` by the fold; inputs under 64 bytes take the
    /// slice-by-8 stream whole.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.as_chunks::<64>();
        let Some((first, blocks)) = blocks.split_first() else {
            return !slice_by_8(!crc, data);
        };
        let fold_512 = _mm_set_epi64x(FOLD_512[1], FOLD_512[0]);
        let mut lanes = split_lanes(first);
        // The register meets the first four message bytes, as in `step8`.
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(!crc as i32));
        for block in blocks {
            for (lane, next) in lanes.iter_mut().zip(split_lanes(block)) {
                *lane = _mm_xor_si128(carry(*lane, fold_512), next);
            }
        }
        let fold_128 = _mm_set_epi64x(FOLD_128[1], FOLD_128[0]);
        let [mut acc, rest @ ..] = lanes;
        for lane in rest {
            acc = _mm_xor_si128(carry(acc, fold_128), lane);
        }
        let (chunks, tail) = tail.as_chunks::<16>();
        for chunk in chunks {
            acc = _mm_xor_si128(carry(acc, fold_128), load(chunk));
        }
        !slice_by_8(reduce(acc, fold_128), tail)
    }

    /// `lane` carried forward by the distance `k` encodes: its first
    /// eight bytes times `k`'s low half plus its last eight times the
    /// high half.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn carry(lane: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(lane, k), _mm_clmulepi64_si128::<0x11>(lane, k))
    }

    /// The register left by the 128 bits in `acc`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(acc: __m128i, fold_128: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, -1, 0, -1);
        // 128 → 96 bits: the first 64 carried by `x^(128−32)` onto the last.
        let x =
            _mm_xor_si128(_mm_srli_si128::<8>(acc), _mm_clmulepi64_si128::<0x10>(acc, fold_128));
        // 96 → 64 bits: the low 32 carried by `x^64` onto the rest.
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64)),
        );
        // Barrett: `q = ⌊⌊x / x^32⌋·μ / x^32⌋` is the quotient of `x` by
        // `P`, so `x − q·P` is `x mod P`, left in bits 32..64.
        let barrett = _mm_set_epi64x(MU, POLY);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), barrett);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), barrett);
        (_mm_cvtsi128_si64(_mm_xor_si128(x, t)) >> 32) as u32
    }

    /// The four lanes of a 64-byte block.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn split_lanes(block: &[u8; 64]) -> [__m128i; 4] {
        let (chunks, _) = block.as_chunks::<16>();
        std::array::from_fn(|i| load(&chunks[i]))
    }

    /// Sixteen message bytes as one lane, first byte lowest.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        let (lo, hi) = bytes.split_at(8);
        let word = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("8 bytes"));
        _mm_set_epi64x(word(hi), word(lo))
    }
}

/// Computes the 16-bit Internet checksum (RFC 1071 ones'-complement sum).
///
/// The words are summed in a `u64` and the end-around carries folded
/// once at the end (RFC 1071's deferred carries), which is exact for any
/// slice shorter than 2^48 words.
///
/// # Examples
///
/// ```
/// use rhychee_channel::crc::internet_checksum;
///
/// let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// assert_eq!(internet_checksum(&data), 0x220d);
/// ```
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u64;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u64::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u64::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Which error-detection code a receiver runs on each packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detector {
    /// 32-bit cyclic redundancy check.
    Crc32,
    /// 16-bit Internet checksum.
    Checksum16,
}

impl Detector {
    /// Probability that a *corrupted* packet passes undetected
    /// (`P_re` in the paper: `2^-32` for CRC-32, `2^-16` for the
    /// checksum — the standard random-error approximation).
    pub fn undetected_probability(self) -> f64 {
        match self {
            Detector::Crc32 => 2.0f64.powi(-32),
            Detector::Checksum16 => 2.0f64.powi(-16),
        }
    }

    /// Computes the check tag over a payload (low bytes used for the
    /// 16-bit checksum).
    pub fn compute(self, data: &[u8]) -> u32 {
        match self {
            Detector::Crc32 => crc32(data),
            Detector::Checksum16 => u32::from(internet_checksum(data)),
        }
    }

    /// Verifies a tag produced by [`Detector::compute`].
    pub fn verify(self, data: &[u8], tag: u32) -> bool {
        self.compute(data) == tag
    }
}

impl std::fmt::Display for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Detector::Crc32 => write!(f, "CRC-32"),
            Detector::Checksum16 => write!(f, "Checksum-16"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The byte-at-a-time table walk this module shipped through PR 14,
    /// kept as the differential oracle for the slice-by-8 stream and the
    /// carry-less fold.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ CRC32_POLY } else { crc >> 1 };
            }
            *entry = crc;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_short_length() {
        // Lengths 0..=64 cross every combination of whole 8-byte steps
        // and bytewise tail, at every alignment of the slice start.
        let mut rng = StdRng::seed_from_u64(0x15);
        let data: Vec<u8> = (0..64 + 8).map(|_| rng.gen()).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn update_matches_bytewise_at_every_split_of_a_large_buffer() {
        let mut rng = StdRng::seed_from_u64(0x15_02);
        let data: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
        let want = crc32_bytewise(&data);
        assert_eq!(crc32(&data), want);
        // Splits 0..=8 leave the second call every possible phase
        // against the 8-byte step; the mirrored splits do the same to
        // the first call's tail.
        for split in (0..=8).chain(data.len() - 8..=data.len()) {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), want, "split {split}");
        }
        // Three-way, the shape the frame reader uses: header ‖ ctx ‖ payload.
        let crc = crc32_update(crc32_update(crc32(&data[..10]), &data[10..34]), &data[34..]);
        assert_eq!(crc, want);
        assert_eq!(crc32_update(0, &data), want, "0 is the CRC of the empty prefix");
        assert_eq!(crc32_update(want, &[]), want, "an empty extension changes nothing");
    }

    /// The fold called directly. CI runs on x86_64 CPUs that have
    /// `pclmulqdq`, so a missing feature fails here instead of quietly
    /// testing the portable stream twice.
    #[cfg(target_arch = "x86_64")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        assert!(std::arch::is_x86_feature_detected!("pclmulqdq"), "the fold would go untested");
        clmul::update(crc, data).expect("pclmulqdq detected")
    }

    /// The portable slice-by-8 stream called directly.
    fn portable(crc: u32, data: &[u8]) -> u32 {
        !slice_by_8(!crc, data)
    }

    /// A named way to extend a CRC.
    type Path = (&'static str, fn(u32, &[u8]) -> u32);

    /// Every way to extend a CRC: the dispatching entry point and each
    /// path it can take.
    fn paths() -> Vec<Path> {
        let mut paths: Vec<Path> = vec![("crc32_update", crc32_update), ("portable", portable)];
        #[cfg(target_arch = "x86_64")]
        paths.push(("fold", fold));
        paths
    }

    #[test]
    fn every_path_matches_bytewise_at_every_length_to_320_and_alignment() {
        // Lengths 0..=320 cross the 64-byte entry, one to four 64-byte
        // blocks, every count of trailing 16-byte chunks and every
        // `% 16` tail, at every start alignment inside a lane.
        let mut rng = StdRng::seed_from_u64(0x29);
        let data: Vec<u8> = (0..320 + 16).map(|_| rng.gen()).collect();
        for start in 0..16 {
            for len in 0..=320 {
                let slice = &data[start..start + len];
                let want = crc32_bytewise(slice);
                assert_eq!(crc32(slice), want, "crc32, start {start} len {len}");
                for (name, path) in paths() {
                    assert_eq!(path(0, slice), want, "{name}, start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn every_path_chains_at_lane_and_block_seams_after_a_nonzero_prefix() {
        // A nonzero CRC coming in is what lane 0's `!crc` seeding
        // carries: a prefix in front, then the rest split at each seam.
        let mut rng = StdRng::seed_from_u64(0x29_02);
        let prefix: Vec<u8> = (0..7).map(|_| rng.gen()).collect();
        let seed = crc32(&prefix);
        assert_ne!(seed, 0);
        for len in [64, 65, 79, 80, 127, 128, 129, 200, 320, 4096 + 17] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let want = crc32_bytewise(&[&prefix[..], &data].concat());
            for (name, path) in paths() {
                assert_eq!(path(seed, &data), want, "{name}, len {len} unsplit");
                for split in
                    [0, 1, 15, 16, 17, 63, 64, 65, len - 1].into_iter().filter(|&s| s <= len)
                {
                    let (a, b) = data.split_at(split);
                    assert_eq!(path(path(seed, a), b), want, "{name}, len {len} split {split}");
                }
            }
        }
    }

    #[test]
    fn every_path_matches_bytewise_split_around_multiples_of_16_and_64() {
        let mut rng = StdRng::seed_from_u64(0x29_03);
        let data: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
        let want = crc32_bytewise(&data);
        let n = data.len();
        let seams = [16, 48, 64, 80, 128, 4096 + 16, n / 2, n - 64, n - 16];
        for (name, path) in paths() {
            assert_eq!(path(0, &data), want, "{name} unsplit");
            for split in seams.into_iter().flat_map(|m| [m - 1, m, m + 1]) {
                let (a, b) = data.split_at(split);
                assert_eq!(path(path(0, a), b), want, "{name}, split {split}");
            }
        }
    }

    #[test]
    fn crc32_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let tag = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), tag, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn crc32_detects_burst_errors() {
        let data = vec![0xAAu8; 200];
        let tag = crc32(&data);
        // All burst errors up to 32 bits are detected by CRC-32.
        for start in [0usize, 50, 199] {
            let mut corrupted = data.clone();
            corrupted[start] ^= 0xFF;
            if start + 1 < corrupted.len() {
                corrupted[start + 1] ^= 0xFF;
            }
            assert_ne!(crc32(&corrupted), tag);
        }
    }

    #[test]
    fn checksum_rfc1071_examples() {
        // Sum of zero data is 0xFFFF (complement of 0).
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xFFFF);
        // Odd-length input pads with zero.
        let even = internet_checksum(&[0x12, 0x34, 0x56, 0x00]);
        let odd = internet_checksum(&[0x12, 0x34, 0x56]);
        assert_eq!(even, odd);
    }

    /// RFC 1071's sum with the end-around carry folded after every word.
    fn checksum_fold_every_word(data: &[u8]) -> u16 {
        let mut sum = 0u32;
        for c in data.chunks(2) {
            sum += u32::from(u16::from_be_bytes([c[0], c.get(1).copied().unwrap_or(0)]));
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn checksum_does_not_overflow_on_large_inputs() {
        // All-ones words sum to 0xFFFF under ones'-complement addition,
        // whose complement is 0. A u32 accumulator overflowed from
        // 65,538 such words on (a debug panic, 0x0001 in release).
        for len in [131_076, 624_728, 1 << 20] {
            assert_eq!(internet_checksum(&vec![0xFF; len]), 0x0000, "{len} bytes of 0xFF");
        }
        let mut rng = StdRng::seed_from_u64(0x25_04);
        let data: Vec<u8> = (0..200_001).map(|_| rng.gen()).collect();
        for len in [200_000, 200_001] {
            let data = &data[..len];
            assert_eq!(internet_checksum(data), checksum_fold_every_word(data), "len {len}");
        }
    }

    #[test]
    fn checksum_misses_reordered_words() {
        // The classic checksum weakness: word reordering is invisible.
        let a = [0x12u8, 0x34, 0x56, 0x78];
        let b = [0x56u8, 0x78, 0x12, 0x34];
        assert_eq!(internet_checksum(&a), internet_checksum(&b));
        // CRC-32 catches it.
        assert_ne!(crc32(&a), crc32(&b));
    }

    #[test]
    fn detector_round_trip() {
        let data = b"payload".to_vec();
        for det in [Detector::Crc32, Detector::Checksum16] {
            let tag = det.compute(&data);
            assert!(det.verify(&data, tag));
            let mut bad = data.clone();
            bad[0] ^= 1;
            assert!(!det.verify(&bad, tag), "{det} missed a flip");
        }
    }

    #[test]
    fn undetected_probabilities() {
        assert!(
            Detector::Crc32.undetected_probability()
                < Detector::Checksum16.undetected_probability()
        );
        let p = Detector::Crc32.undetected_probability();
        assert!((p - 2.328e-10).abs() / p < 1e-3, "paper quotes 2.328e-10");
    }
}
