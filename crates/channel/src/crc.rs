//! Error-detection codes: CRC-32 (IEEE 802.3) and the 16-bit Internet
//! checksum (RFC 1071).
//!
//! The paper's receiver model (§IV-C) compares both: the checksum is
//! cheaper but far weaker; CRC-32 drives the undetected-error probability
//! `P_re = 2^-32` used in the failure analysis.

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Bytes each of the four interleaved streams covers per block.
const STRIPE: usize = 2048;

/// Bytes the four-stream loop takes per block: four consecutive stripes.
const BLOCK: usize = 4 * STRIPE;

/// `x^(8·STRIPE) mod P`: what a register is multiplied by when
/// `STRIPE` zero bytes pass through it.
const STRIPE_SHIFT: u32 = {
    let mut reg = 0x8000_0000; // the polynomial 1
    let mut bit = 0;
    while bit < 8 * STRIPE {
        reg = mul_x(reg);
        bit += 1;
    }
    reg
};

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

/// `a·b mod P` over GF(2), 32 steps: `b·x^i` is added for each term
/// `x^i` of `a`.
fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for i in 0..32 {
        product ^= b & ((a >> (31 - i)) & 1).wrapping_neg();
        b = mul_x(b);
    }
    product
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
/// Each 8 KiB block runs four independent slice-by-8 registers over its
/// four 2 KiB stripes, so four table walks overlap instead of waiting on
/// one another; the last `data.len() % 8192` bytes take one register,
/// eight bytes per step, bytewise over the last `% 8`.
///
/// # Examples
///
/// ```
/// use rhychee_channel::crc::{crc32, crc32_update};
///
/// assert_eq!(crc32_update(crc32(b"1234"), b"56789"), crc32(b"123456789"));
/// ```
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut blocks = data.chunks_exact(BLOCK);
    for block in &mut blocks {
        let (s0, rest) = block.split_at(STRIPE);
        let (s1, rest) = rest.split_at(STRIPE);
        let (s2, s3) = rest.split_at(STRIPE);
        let (mut r0, mut r1, mut r2, mut r3) = (crc, 0, 0, 0);
        for (((c0, c1), c2), c3) in s0
            .chunks_exact(8)
            .zip(s1.chunks_exact(8))
            .zip(s2.chunks_exact(8))
            .zip(s3.chunks_exact(8))
        {
            r0 = step8(r0, c0);
            r1 = step8(r1, c1);
            r2 = step8(r2, c2);
            r3 = step8(r3, c3);
        }
        // The register is linear over GF(2): running `r` over a stripe
        // equals running 0 over it, XORed with `r` pushed through
        // `STRIPE` zero bytes, i.e. `r·STRIPE_SHIFT`.
        crc =
            mul_mod(mul_mod(mul_mod(r0, STRIPE_SHIFT) ^ r1, STRIPE_SHIFT) ^ r2, STRIPE_SHIFT) ^ r3;
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    for chunk in &mut chunks {
        crc = step8(crc, chunk);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
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

    /// Size of the appended check value in bits.
    pub fn tag_bits(self) -> usize {
        match self {
            Detector::Crc32 => 32,
            Detector::Checksum16 => 16,
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
    /// kept as the differential oracle for the single- and four-stream
    /// slice-by-8 loops.
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

    #[test]
    fn four_streams_match_bytewise_around_one_and_two_blocks() {
        // Lengths just under, at and over one and two blocks: the
        // four-stream loop, the single-stream 8-byte steps and the
        // bytewise tail in every combination, at every start alignment.
        let mut rng = StdRng::seed_from_u64(0x25);
        let data: Vec<u8> = (0..2 * BLOCK + 9 + 8).map(|_| rng.gen()).collect();
        for start in 0..8 {
            for len in (BLOCK - 9..=BLOCK + 9).chain(2 * BLOCK - 9..=2 * BLOCK + 9) {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn update_matches_bytewise_at_stripe_and_block_seams() {
        let mut rng = StdRng::seed_from_u64(0x25_02);
        let data: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
        let want = crc32_bytewise(&data);
        // Interior stripe seams of the first and second block, then
        // block seams up to the last one.
        let seams =
            [1, 2, 3, 5].map(|k| k * STRIPE).into_iter().chain([1, 2, 64, 127].map(|k| k * BLOCK));
        for seam in seams {
            for split in [seam - 1, seam, seam + 1] {
                let (a, b) = data.split_at(split);
                assert_eq!(crc32_update(crc32(a), b), want, "split {split}");
            }
        }
    }

    #[test]
    fn stripe_shift_is_the_register_effect_of_a_zero_stripe() {
        // Push the polynomial 1 through STRIPE zero bytes with the
        // byte-at-a-time table: the register left is x^(8·STRIPE) mod P.
        let zeros = |mut reg: u32| {
            for _ in 0..STRIPE {
                reg = (reg >> 8) ^ TABLES[0][(reg & 0xFF) as usize];
            }
            reg
        };
        assert_eq!(STRIPE_SHIFT, zeros(0x8000_0000));
        // And `mul_mod` by it is that push for any register.
        let mut rng = StdRng::seed_from_u64(0x25_03);
        for reg in [0, 1, 0x8000_0000, u32::MAX].into_iter().chain((0..64).map(|_| rng.gen())) {
            assert_eq!(mul_mod(reg, STRIPE_SHIFT), zeros(reg), "register {reg:#010x}");
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
        assert_eq!(Detector::Crc32.tag_bits(), 32);
        assert_eq!(Detector::Checksum16.tag_bits(), 16);
        let p = Detector::Crc32.undetected_probability();
        assert!((p - 2.328e-10).abs() / p < 1e-3, "paper quotes 2.328e-10");
    }
}
