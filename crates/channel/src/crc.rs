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
/// On x86_64 CPUs with AVX-512F and VPCLMULQDQ, inputs of 64 bytes or
/// more take a carry-less-multiply fold over 512-bit registers.
/// Everything else — shorter inputs, the fold's last `len % 16` bytes,
/// other CPUs — takes one slice-by-8 register, eight bytes per step,
/// bytewise over the last `% 8`. Both paths give the same bits.
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
    if let Some(crc) = vpclmul::update(crc, data) {
        return crc;
    }
    !slice_by_8(!crc, data)
}

/// [`crc32_update`] that also appends `src` to `dst`, reading `src`
/// once: where the fold runs, each 64-byte block is stored to `dst` as
/// it is folded. The result and `dst` are those of
/// `dst.extend_from_slice(src)` followed by `crc32_update(crc, src)`.
///
/// # Examples
///
/// ```
/// use rhychee_channel::crc::{crc32, crc32_extend};
///
/// let mut copy = b"12".to_vec();
/// assert_eq!(crc32_extend(crc32(b"1234"), b"56789", &mut copy), crc32(b"123456789"));
/// assert_eq!(copy, b"1256789");
/// ```
pub fn crc32_extend(crc: u32, src: &[u8], dst: &mut Vec<u8>) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = vpclmul::extend(crc, src, dst) {
        return crc;
    }
    dst.extend_from_slice(src);
    crc32_update(crc, src)
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
/// Instruction" (Intel, 2009), on 512-bit registers.
///
/// A 16-byte lane is a polynomial over GF(2); multiplying it by
/// `x^n mod P` moves it `n` bits further down the message and leaves its
/// remainder mod `P` unchanged. A 512-bit register holds four lanes, and
/// `vpclmulqdq` multiplies all four at once. Four registers take 256
/// bytes per step, each carried 2048 bits over the three after it. They
/// fold into one register, which takes the remaining whole 64-byte
/// blocks, and that register folds into one lane, which takes the whole
/// 16-byte chunks after them. The last 128 bits reduce to 64, then to the
/// 32-bit register with one Barrett step. The slice-by-8 stream takes
/// the last `len % 16` bytes, and all of an input under 64 bytes.
///
/// `extend` runs the same fold and stores each 64-byte block to the
/// destination as it is loaded, so the bytes are read once for both.
#[cfg(target_arch = "x86_64")]
mod vpclmul {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
        _mm512_zextsi128_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64,
        _mm_cvtsi32_si128, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
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

    /// Carries a lane 2048 bits forward, over the three registers after
    /// its own: its first eight bytes by `x^(2048+32)`, its last eight by
    /// `x^(2048−32)` (`0x1_1542_778a`, `0x1_322d_1430`).
    const FOLD_2048: [i64; 2] = [xpow_mod(4 * 512 + 32), xpow_mod(4 * 512 - 32)];

    /// The same for 512 bits, one register onto the next (`0x1_5444_2bd4`,
    /// `0x1_c6e4_1596`).
    const FOLD_512: [i64; 2] = [xpow_mod(512 + 32), xpow_mod(512 - 32)];

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

    /// Whether this CPU runs the fold: every target feature of `fold`.
    pub(super) fn detected() -> bool {
        // `vpclmulqdq` does not imply the 128-bit `pclmulqdq` the lane
        // tail and `reduce` use, so both are asked for.
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("vpclmulqdq")
            && is_x86_feature_detected!("pclmulqdq")
    }

    /// `crc32_update` by the fold, or `None` when this CPU cannot run it.
    pub(super) fn update(crc: u32, data: &[u8]) -> Option<u32> {
        if !detected() {
            return None;
        }
        // SAFETY: `fold`'s target features were just detected on this
        // CPU. Without `COPY` it writes nothing, so `dst` is never used.
        Some(unsafe { fold::<false>(crc, data, std::ptr::null_mut()) })
    }

    /// `crc32_extend` by the fold, or `None` (with `dst` untouched) when
    /// this CPU cannot run it.
    pub(super) fn extend(crc: u32, src: &[u8], dst: &mut Vec<u8>) -> Option<u32> {
        if !detected() {
            return None;
        }
        dst.reserve(src.len());
        let len = dst.len();
        let spare = dst.spare_capacity_mut().as_mut_ptr().cast::<u8>();
        // SAFETY: `fold`'s target features were just detected on this
        // CPU. `reserve` left at least `src.len()` writable bytes at
        // `spare`, and `src`, a shared borrow, cannot overlap the spare
        // capacity of a vector borrowed mutably.
        let crc = unsafe { fold::<true>(crc, src, spare) };
        // SAFETY: `fold::<true>` has written all `src.len()` bytes after
        // the first `len`, and they are within the capacity.
        unsafe { dst.set_len(len + src.len()) };
        Some(crc)
    }

    /// The register after `src`, given the CRC before it; with `COPY`,
    /// every byte of `src` is also stored at its offset from `dst`.
    ///
    /// # Safety
    ///
    /// The CPU has AVX-512F, VPCLMULQDQ and PCLMULQDQ. With `COPY`, `dst`
    /// is valid for writes of `src.len()` bytes that overlap nothing
    /// `src` covers; without it, `dst` is not used.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq")]
    unsafe fn fold<const COPY: bool>(crc: u32, src: &[u8], dst: *mut u8) -> u32 {
        let blocks = src.len() / 64;
        let whole = blocks * 64;
        let (head, tail) = src.split_at(whole);
        // The tail's bytes first: nothing below reads them back from `dst`.
        if COPY {
            std::ptr::copy_nonoverlapping(tail.as_ptr(), dst.add(whole), tail.len());
        }
        if blocks == 0 {
            return !slice_by_8(!crc, src);
        }
        let src = head.as_ptr();
        // The register meets the first four message bytes, as in `step8`.
        let seed = _mm512_zextsi128_si512(_mm_cvtsi32_si128(!crc as i32));
        let fold_512 = _mm512_broadcast_i32x4(_mm_set_epi64x(FOLD_512[1], FOLD_512[0]));
        let (mut acc, mut at) = if blocks >= 4 {
            let fold_2048 = _mm512_broadcast_i32x4(_mm_set_epi64x(FOLD_2048[1], FOLD_2048[0]));
            let mut regs = [
                block::<COPY>(src, dst, 0),
                block::<COPY>(src, dst, 64),
                block::<COPY>(src, dst, 128),
                block::<COPY>(src, dst, 192),
            ];
            regs[0] = _mm512_xor_si512(regs[0], seed);
            let mut at = 256;
            while at + 256 <= whole {
                for (i, reg) in regs.iter_mut().enumerate() {
                    *reg = carry_xor(*reg, fold_2048, block::<COPY>(src, dst, at + 64 * i));
                }
                at += 256;
            }
            let [first, rest @ ..] = regs;
            (rest.into_iter().fold(first, |acc, reg| carry_xor(acc, fold_512, reg)), at)
        } else {
            (_mm512_xor_si512(block::<COPY>(src, dst, 0), seed), 64)
        };
        while at < whole {
            acc = carry_xor(acc, fold_512, block::<COPY>(src, dst, at));
            at += 64;
        }
        let fold_128 = _mm_set_epi64x(FOLD_128[1], FOLD_128[0]);
        let mut lane = _mm512_extracti32x4_epi32::<0>(acc);
        for next in [
            _mm512_extracti32x4_epi32::<1>(acc),
            _mm512_extracti32x4_epi32::<2>(acc),
            _mm512_extracti32x4_epi32::<3>(acc),
        ] {
            lane = _mm_xor_si128(carry(lane, fold_128), next);
        }
        let (chunks, rest) = tail.as_chunks::<16>();
        for chunk in chunks {
            lane = _mm_xor_si128(carry(lane, fold_128), _mm_loadu_si128(chunk.as_ptr().cast()));
        }
        !slice_by_8(reduce(lane, fold_128), rest)
    }

    /// The 64 bytes at `src + at`, stored to `dst + at` with `COPY`.
    ///
    /// The store is written in `asm!` because LLVM recognises a loop of
    /// plain load/store pairs as a `memcpy` and splits it out of the
    /// fold, which reads `src` a second time.
    ///
    /// # Safety
    ///
    /// As `fold`'s, and `at + 64` is within `src`'s length.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn block<const COPY: bool>(src: *const u8, dst: *mut u8, at: usize) -> __m512i {
        let v = _mm512_loadu_si512(src.add(at).cast());
        if COPY {
            std::arch::asm!(
                "vmovdqu64 zmmword ptr [{dst}], {v}",
                dst = in(reg) dst.add(at),
                v = in(zmm_reg) v,
                options(nostack, preserves_flags),
            );
        }
        v
    }

    /// Each lane of `reg` carried forward by the distance `k` encodes,
    /// XORed with `next`: one `vpternlogq` over the two products.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn carry_xor(reg: __m512i, k: __m512i, next: __m512i) -> __m512i {
        _mm512_ternarylogic_epi64::<0x96>(
            _mm512_clmulepi64_epi128::<0x00>(reg, k),
            _mm512_clmulepi64_epi128::<0x11>(reg, k),
            next,
        )
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

    #[cfg(test)]
    mod tests {
        #[test]
        fn fold_constants_are_the_published_ones() {
            // Gopal et al.'s constants for the reflected IEEE polynomial.
            assert_eq!(super::FOLD_2048, [0x1_1542_778a, 0x1_322d_1430]);
            assert_eq!(super::FOLD_512, [0x1_5444_2bd4, 0x1_c6e4_1596]);
            assert_eq!(super::FOLD_128, [0x1_7519_97d0, 0x0_ccaa_009e]);
            assert_eq!(super::FOLD_64, 0x1_63cd_6124);
            assert_eq!(super::POLY, 0x1_db71_0641);
            assert_eq!(super::MU, 0x1_f701_1641);
        }
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
        // Three-way: a message scattered over three buffers.
        let crc = crc32_update(crc32_update(crc32(&data[..10]), &data[10..34]), &data[34..]);
        assert_eq!(crc, want);
        assert_eq!(crc32_update(0, &data), want, "0 is the CRC of the empty prefix");
        assert_eq!(crc32_update(want, &[]), want, "an empty extension changes nothing");
    }

    /// Whether this CPU runs the 512-bit fold, said once on stderr so a
    /// log shows which paths a run compared.
    fn fold_detected() -> bool {
        #[cfg(target_arch = "x86_64")]
        let detected = vpclmul::detected();
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        eprintln!(
            "avx512f+vpclmulqdq: {}",
            if detected { "detected" } else { "absent — slice-by-8 only" }
        );
        detected
    }

    /// The 512-bit fold called directly.
    #[cfg(target_arch = "x86_64")]
    fn fold(crc: u32, data: &[u8]) -> u32 {
        vpclmul::update(crc, data).expect("the fold was detected")
    }

    /// The portable slice-by-8 stream called directly.
    fn portable(crc: u32, data: &[u8]) -> u32 {
        !slice_by_8(!crc, data)
    }

    /// `crc32_extend` onto a non-empty destination whose length is not a
    /// multiple of 16, asserting that it appends exactly `data`.
    fn extend(crc: u32, data: &[u8]) -> u32 {
        let mut dst = b"behind".to_vec();
        let crc = crc32_extend(crc, data, &mut dst);
        assert_eq!(&dst[..6], b"behind", "crc32_extend moved what was there");
        assert_eq!(&dst[6..], data, "crc32_extend appended other bytes");
        crc
    }

    /// A named way to extend a CRC.
    type Path = (&'static str, fn(u32, &[u8]) -> u32);

    /// Every way to extend a CRC: both entry points and each path they
    /// can take on this CPU.
    fn paths() -> Vec<Path> {
        let mut paths: Vec<Path> =
            vec![("crc32_update", crc32_update), ("portable", portable), ("crc32_extend", extend)];
        #[cfg(target_arch = "x86_64")]
        if fold_detected() {
            paths.push(("fold", fold));
        }
        paths
    }

    #[test]
    fn every_path_matches_bytewise_at_every_length_to_1300_and_alignment() {
        // Lengths 0..=1300 cross the 64-byte entry, one to three lone
        // 64-byte blocks, the 256-byte four-register entry, whole and
        // partial 256-byte steps past the 512-byte seam, every count of
        // trailing 16-byte chunks and every `% 16` tail, at every start
        // alignment inside a 64-byte block.
        let paths = paths();
        let mut rng = StdRng::seed_from_u64(0x48);
        let data: Vec<u8> = (0..1300 + 64).map(|_| rng.gen()).collect();
        for start in 0..64 {
            for len in 0..=1300 {
                let slice = &data[start..start + len];
                let want = crc32_bytewise(slice);
                assert_eq!(crc32(slice), want, "crc32, start {start} len {len}");
                for (name, path) in &paths {
                    assert_eq!(path(0, slice), want, "{name}, start {start} len {len}");
                }
            }
        }
    }

    #[test]
    fn every_path_chains_at_lane_and_block_seams_after_a_nonzero_prefix() {
        // A nonzero CRC coming in is what the first block's `!crc`
        // seeding carries: a prefix in front, then the rest split at each
        // seam.
        let paths = paths();
        let mut rng = StdRng::seed_from_u64(0x48_02);
        let prefix: Vec<u8> = (0..7).map(|_| rng.gen()).collect();
        let seed = crc32(&prefix);
        assert_ne!(seed, 0);
        let lens = [64, 65, 79, 80, 127, 128, 129, 200, 255, 256, 257, 320, 511, 512, 513, 1300];
        for len in lens.into_iter().chain([4096 + 17]) {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let want = crc32_bytewise(&[&prefix[..], &data].concat());
            let seams = [1, 16, 64, 256, 512, len];
            let splits = seams.into_iter().flat_map(|m| [m - 1, m, m + 1]).filter(|&s| s <= len);
            for (name, path) in &paths {
                assert_eq!(path(seed, &data), want, "{name}, len {len} unsplit");
                for split in splits.clone() {
                    let (a, b) = data.split_at(split);
                    assert_eq!(path(path(seed, a), b), want, "{name}, len {len} split {split}");
                }
            }
        }
    }

    #[test]
    fn every_path_matches_bytewise_split_around_multiples_of_16_64_and_256() {
        let paths = paths();
        let mut rng = StdRng::seed_from_u64(0x48_03);
        let data: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
        let want = crc32_bytewise(&data);
        let n = data.len();
        let seams = [16, 48, 64, 80, 128, 256, 512, 768, 4096 + 16, n / 2, n - 256, n - 64, n - 16];
        for (name, path) in &paths {
            assert_eq!(path(0, &data), want, "{name} unsplit");
            for split in seams.into_iter().flat_map(|m| [m - 1, m, m + 1]) {
                let (a, b) = data.split_at(split);
                assert_eq!(path(path(0, a), b), want, "{name}, split {split}");
            }
        }
    }

    #[test]
    fn crc32_extend_reserves_once_and_keeps_what_is_there() {
        // Into exact spare capacity: the destination is not reallocated,
        // and a long input appends after the bytes already there.
        let mut rng = StdRng::seed_from_u64(0x48_04);
        let src: Vec<u8> = (0..4096 + 77).map(|_| rng.gen()).collect();
        let mut dst = Vec::with_capacity(3 + src.len());
        dst.extend_from_slice(b"abc");
        let at = dst.as_ptr();
        assert_eq!(crc32_extend(crc32(b"abc"), &src, &mut dst), crc32_bytewise(&dst));
        assert_eq!(dst.as_ptr(), at, "spare capacity was enough");
        assert_eq!((&dst[..3], &dst[3..]), (&b"abc"[..], &src[..]));
        // An empty source changes neither.
        assert_eq!(crc32_extend(7, &[], &mut dst), 7);
        assert_eq!(dst.len(), 3 + src.len());
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
