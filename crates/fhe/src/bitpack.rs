//! Bit-level packing for ciphertext wire formats.
//!
//! Ciphertext sizes in the paper are counted in *bits* (`2N·log Q` for
//! RLWE, `(n+1)·log q` for LWE). Packing each residue at exactly
//! `⌈log2 q⌉` bits makes our serialized sizes match the analytical
//! formulas, which the channel experiments depend on.
//!
//! The layout is a little-endian bit stream: bit `k` of the stream is
//! bit `k % 8` of byte `k / 8`, values are appended least-significant
//! bit first, and the last byte is zero-padded. [`BitWriter`] and
//! [`BitReader`] move a whole value per step (a 64-bit accumulator on
//! the way out, an unaligned 128-bit window on the way in); the row
//! forms check lengths once per row instead of once per value.

use crate::ckks::modarith::{add_mod, reduce_once};
use crate::error::FheError;

/// Append-only bit writer (little-endian within bytes).
///
/// Pending bits live in a 64-bit accumulator that is flushed to the
/// byte buffer eight bytes at a time; [`BitWriter::into_bytes`] flushes
/// the zero-padded remainder.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// The low `acc_bits` bits are pending; everything above is zero.
    acc: u64,
    /// Always `< 64` between calls.
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that appends after the bytes already in `buf`
    /// (starting on a byte boundary) and reuses its capacity;
    /// [`BitWriter::into_bytes`] hands the buffer back.
    pub(crate) fn appending(buf: Vec<u8>) -> Self {
        BitWriter { buf, acc: 0, acc_bits: 0 }
    }

    /// Appends the low `bits` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64` or if `value` has bits set above `bits`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, bits: u32) {
        assert!(bits <= 64, "cannot write more than 64 bits at once");
        assert!(value <= mask(bits), "value {value} does not fit in {bits} bits");
        if bits == 0 {
            return;
        }
        self.acc |= value << self.acc_bits;
        let total = self.acc_bits + bits;
        if total < 64 {
            self.acc_bits = total;
            return;
        }
        self.buf.extend_from_slice(&self.acc.to_le_bytes());
        // `taken` bits of `value` completed the word; the rest carry over.
        let taken = 64 - self.acc_bits;
        self.acc = if taken == 64 { 0 } else { value >> taken };
        self.acc_bits = total - 64;
    }

    /// Appends every value of `values` at `bits` bits each — the same
    /// bytes as one [`BitWriter::write_bits`] per value, with the output
    /// reserved once for the whole row.
    ///
    /// # Panics
    ///
    /// As [`BitWriter::write_bits`], for any value of the row.
    pub(crate) fn write_row(&mut self, values: &[u64], bits: u32) {
        let row_bits = self.acc_bits as usize + values.len() * bits as usize;
        self.buf.reserve(row_bits.div_ceil(8));
        for &value in values {
            self.write_bits(value, bits);
        }
    }

    /// Finishes writing and returns the byte buffer, the last byte
    /// zero-padded.
    pub fn into_bytes(mut self) -> Vec<u8> {
        let pending = (self.acc_bits as usize).div_ceil(8);
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..pending]);
        self.buf
    }
}

/// A mask of the low `bits` bits (`bits ≤ 64`).
fn mask(bits: u32) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// The `bits`-bit value at bit offset `bit_pos` of `buf`. The caller
/// has checked `bit_pos + bits ≤ 8·buf.len()` and `bits ≤ 64`.
///
/// A value spans at most 9 bytes (7 bits of misalignment + 64), so a
/// 16-byte little-endian window starting at its first byte always
/// contains it. Within 16 bytes of the end of `buf` there is no such
/// window to load, so the tail path copies what is left into a
/// zero-padded one.
#[inline]
fn window(buf: &[u8], bit_pos: usize, bits: u32) -> u64 {
    let byte = bit_pos / 8;
    let word = match buf.get(byte..byte + 16) {
        Some(chunk) => u128::from_le_bytes(chunk.try_into().expect("16-byte window")),
        None => {
            let tail = &buf[byte..];
            let mut padded = [0u8; 16];
            padded[..tail.len()].copy_from_slice(tail);
            u128::from_le_bytes(padded)
        }
    };
    (word >> (bit_pos % 8)) as u64 & mask(bits)
}

/// Sequential bit reader over a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, bit_pos: 0 }
    }

    /// Checks that `bits` more bits are available; a failed check
    /// leaves the position untouched.
    fn check_available(&self, bits: usize) -> Result<(), FheError> {
        match self.bit_pos.checked_add(bits) {
            Some(end) if end <= self.buf.len() * 8 => Ok(()),
            _ => Err(FheError::Deserialize(format!(
                "unexpected end of buffer at bit {}",
                self.bit_pos
            ))),
        }
    }

    /// Reads the next `bits` bits.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Deserialize`] if the buffer is exhausted; a
    /// failed read consumes nothing.
    #[inline]
    pub fn read_bits(&mut self, bits: u32) -> Result<u64, FheError> {
        assert!(bits <= 64, "cannot read more than 64 bits at once");
        self.check_available(bits as usize)?;
        let value = window(self.buf, self.bit_pos, bits);
        self.bit_pos += bits as usize;
        Ok(value)
    }

    /// Reads the next `out.len()` values of `bits` bits each and calls
    /// `f(slot, value)` for each slot of `out` in order — the same values
    /// as one [`BitReader::read_bits`] per slot, with the length checked
    /// once for the whole row. `f` decides what a value does to its slot
    /// (store it, reduce it, add it), so a decoder is one pass over the
    /// row.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Deserialize`] if the buffer holds fewer than
    /// `out.len() · bits` more bits; a failed read consumes nothing,
    /// never calls `f` and leaves `out` untouched.
    #[inline]
    pub(crate) fn read_row_with(
        &mut self,
        out: &mut [u64],
        bits: u32,
        mut f: impl FnMut(&mut u64, u64),
    ) -> Result<(), FheError> {
        assert!(bits <= 64, "cannot read more than 64 bits at once");
        self.check_available(out.len() * bits as usize)?;
        for slot in out {
            f(slot, window(self.buf, self.bit_pos, bits));
            self.bit_pos += bits as usize;
        }
        Ok(())
    }

    /// Reads the next `out.len()` residues of prime `q`, each a
    /// `bits_for(q)`-bit field, into `out`, reduced into `[0, q)`:
    /// `*s = reduce_once(v, q)`.
    ///
    /// # Errors
    ///
    /// As [`BitReader::read_row_with`].
    pub(crate) fn read_residue_row(&mut self, out: &mut [u64], q: u64) -> Result<(), FheError> {
        self.residue_row::<false>(out, q)
    }

    /// Reads the next `acc.len()` residues of prime `q` as
    /// [`BitReader::read_residue_row`] does and modular-adds each into
    /// its slot of `acc`, whose values are in `[0, q)`:
    /// `*a = add_mod(*a, reduce_once(v, q), q)`.
    ///
    /// # Errors
    ///
    /// As [`BitReader::read_row_with`].
    pub(crate) fn add_residue_row(&mut self, acc: &mut [u64], q: u64) -> Result<(), FheError> {
        self.residue_row::<true>(acc, q)
    }

    /// The two residue-row forms: the AVX-512 kernel when it takes the
    /// row, [`BitReader::read_row_with`] with the same combine otherwise.
    #[inline]
    fn residue_row<const ACCUMULATE: bool>(
        &mut self,
        out: &mut [u64],
        q: u64,
    ) -> Result<(), FheError> {
        let bits = bits_for(q);
        let row_bits = out.len() * bits as usize;
        self.check_available(row_bits)?;
        #[cfg(target_arch = "x86_64")]
        if self.bit_pos.is_multiple_of(8)
            && avx512::residue_row::<ACCUMULATE>(&self.buf[self.bit_pos / 8..], out, bits, q)
        {
            self.bit_pos += row_bits;
            return Ok(());
        }
        self.read_row_with(out, bits, |s, v| {
            let v = reduce_once(v, q);
            *s = if ACCUMULATE { add_mod(*s, v, q) } else { v };
        })
    }

    /// Advances past the next `bits` bits without decoding them.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Deserialize`] if the buffer holds fewer than
    /// `bits` more bits; a failed skip consumes nothing.
    pub fn skip(&mut self, bits: usize) -> Result<(), FheError> {
        self.check_available(bits)?;
        self.bit_pos += bits;
        Ok(())
    }

    /// Bits consumed so far.
    #[cfg(test)]
    pub(crate) fn bit_pos(&self) -> usize {
        self.bit_pos
    }
}

/// The residue-row kernel: eight `b`-bit wire residues per step.
///
/// Eight `b`-bit fields fill exactly `b` bytes, so on a byte-aligned row
/// group `g` is bytes `g·b .. (g+1)·b` and field `j` of it starts at bit
/// `j·b` of that group. One byte-masked load brings the group into a
/// vector without touching a byte past it; a `vpermq` pair puts in lane
/// `j` the two 64-bit words that hold bit `j·b` and the 64 bits after
/// it; a variable funnel shift and the field mask leave the field; and
/// `min(v, v − q)` is `reduce_once` (the subtraction wraps far above
/// `v` exactly when `v < q`). The accumulate form adds the slot and
/// reduces once more, which is `add_mod` for slots in `[0, q)`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_maskz_loadu_epi8,
        _mm512_min_epu64, _mm512_or_si512, _mm512_permutexvar_epi64, _mm512_set1_epi64,
        _mm512_sllv_epi64, _mm512_srlv_epi64, _mm512_storeu_si512, _mm512_sub_epi64,
    };

    /// Runs one row of `out.len()` residues of prime `q` through the
    /// kernel, reading from the start of `bytes`; `false`, with nothing
    /// read or written, when the CPU lacks AVX-512F/BW or the row is not
    /// one the kernel takes: a length that is not a multiple of eight,
    /// a field width outside `1..=63`, or fewer than `out.len() · bits / 8`
    /// bytes.
    pub(super) fn residue_row<const ACCUMULATE: bool>(
        bytes: &[u8],
        out: &mut [u64],
        bits: u32,
        q: u64,
    ) -> bool {
        if !out.len().is_multiple_of(8)
            || !(1..=63).contains(&bits)
            || bytes.len() < out.len() / 8 * bits as usize
            || !std::arch::is_x86_feature_detected!("avx512f")
            || !std::arch::is_x86_feature_detected!("avx512bw")
        {
            return false;
        }
        // SAFETY: both target features of `row` were just detected on
        // this CPU, and the checks above are the ones `row` requires.
        unsafe { row::<ACCUMULATE>(bytes, out, bits, q) };
        true
    }

    /// # Safety
    ///
    /// The CPU has AVX-512F and AVX-512BW; `out.len()` is a multiple of
    /// eight, `bits` is in `1..=63` and `bytes` holds at least
    /// `out.len() / 8 · bits` bytes.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn row<const ACCUMULATE: bool>(bytes: &[u8], out: &mut [u64], bits: u32, q: u64) {
        let b = u64::from(bits);
        // Lane j's field starts at bit j·b of the group: in word
        // (j·b)/64, at shift (j·b)%64. The high word's index is at most 7
        // for b ≤ 63; a left shift by 64 (lane 0, or any lane whose
        // field starts on a word) gives zero.
        let start: [u64; 8] = std::array::from_fn(|j| j as u64 * b);
        let lo_word = start.map(|s| s / 64);
        let hi_word = lo_word.map(|w| w + 1);
        let right = start.map(|s| s % 64);
        let left = right.map(|r| 64 - r);
        let lo_word = _mm512_loadu_si512(lo_word.as_ptr().cast());
        let hi_word = _mm512_loadu_si512(hi_word.as_ptr().cast());
        let right = _mm512_loadu_si512(right.as_ptr().cast());
        let left = _mm512_loadu_si512(left.as_ptr().cast());
        // The low `b` bits: as a byte mask, the group's `b` bytes; in each
        // lane, the field.
        let low_bits = (1u64 << bits) - 1;
        let field = _mm512_set1_epi64(low_bits as i64);
        let qv = _mm512_set1_epi64(q as i64);
        let mut src = bytes.as_ptr();
        for slots in out.chunks_exact_mut(8) {
            // SAFETY: group g reads bytes g·b .. (g+1)·b, inside `bytes`
            // by the length the caller checked; masked-off bytes are never
            // accessed. `slots` is eight `u64`s, all the load and store
            // below touch.
            let group = _mm512_maskz_loadu_epi8(low_bits, src.cast());
            let lo = _mm512_srlv_epi64(_mm512_permutexvar_epi64(lo_word, group), right);
            let hi = _mm512_sllv_epi64(_mm512_permutexvar_epi64(hi_word, group), left);
            let v = _mm512_and_si512(_mm512_or_si512(lo, hi), field);
            let mut v = _mm512_min_epu64(v, _mm512_sub_epi64(v, qv));
            let dst = slots.as_mut_ptr();
            if ACCUMULATE {
                let sum = _mm512_add_epi64(_mm512_loadu_si512(dst.cast()), v);
                v = _mm512_min_epu64(sum, _mm512_sub_epi64(sum, qv));
            }
            _mm512_storeu_si512(dst.cast(), v);
            src = src.add(bits as usize);
        }
    }
}

/// Number of bits needed to represent values in `[0, q)`.
pub fn bits_for(q: u64) -> u32 {
    64 - (q - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The bit-at-a-time packer this module shipped through PR 14, kept
    /// verbatim as the differential oracle for the word-at-a-time one.
    mod oracle {
        #[derive(Default)]
        pub struct BitWriter {
            buf: Vec<u8>,
            bit_pos: usize,
        }

        impl BitWriter {
            pub fn write_bits(&mut self, value: u64, bits: u32) {
                assert!(bits <= 64, "cannot write more than 64 bits at once");
                assert!(bits == 64 || value < (1u64 << bits), "value does not fit");
                for i in 0..bits {
                    let byte = self.bit_pos / 8;
                    let off = self.bit_pos % 8;
                    if byte == self.buf.len() {
                        self.buf.push(0);
                    }
                    if (value >> i) & 1 == 1 {
                        self.buf[byte] |= 1 << off;
                    }
                    self.bit_pos += 1;
                }
            }

            pub fn into_bytes(self) -> Vec<u8> {
                self.buf
            }
        }

        pub struct BitReader<'a> {
            pub buf: &'a [u8],
            pub bit_pos: usize,
        }

        impl BitReader<'_> {
            /// `None` where the shipped reader returned `Deserialize`.
            pub fn read_bits(&mut self, bits: u32) -> Option<u64> {
                assert!(bits <= 64, "cannot read more than 64 bits at once");
                if self.bit_pos + bits as usize > self.buf.len() * 8 {
                    return None;
                }
                let mut value = 0u64;
                for i in 0..bits {
                    let byte = self.bit_pos / 8;
                    let off = self.bit_pos % 8;
                    if (self.buf[byte] >> off) & 1 == 1 {
                        value |= 1 << i;
                    }
                    self.bit_pos += 1;
                }
                Some(value)
            }
        }
    }

    /// Packs `entries` through both packers, checks the bytes agree, then
    /// reads them back through both readers and checks every value and
    /// the end-of-buffer behaviour agree.
    fn check_against_oracle(entries: &[(u64, u32)]) {
        let mut new = BitWriter::new();
        let mut old = oracle::BitWriter::default();
        let mut total = 0usize;
        for &(v, b) in entries {
            new.write_bits(v, b);
            old.write_bits(v, b);
            total += b as usize;
        }
        let bytes = new.into_bytes();
        assert_eq!(bytes.len(), total.div_ceil(8));
        assert_eq!(bytes, old.into_bytes(), "packed bytes differ for {entries:?}");
        assert_eq!(bytes.len(), total.div_ceil(8));

        let mut new = BitReader::new(&bytes);
        let mut old = oracle::BitReader { buf: &bytes, bit_pos: 0 };
        for &(v, b) in entries {
            assert_eq!(new.read_bits(b).ok(), Some(v), "{b}-bit read at {}", old.bit_pos);
            assert_eq!(old.read_bits(b), Some(v));
            assert_eq!(new.bit_pos(), old.bit_pos);
        }
        // Whatever padding is left reads the same, and one bit more fails.
        let pad = (bytes.len() * 8 - total) as u32;
        assert_eq!(new.read_bits(pad).ok(), old.read_bits(pad));
        assert!(new.read_bits(1).is_err() && old.read_bits(1).is_none());
    }

    #[test]
    fn every_width_at_every_offset_matches_oracle() {
        let mut rng = StdRng::seed_from_u64(0x15);
        for width in 1..=64u32 {
            for offset in 0..=63u32 {
                // Top bit set, so a dropped or misplaced high bit shows.
                let value = (rng.gen::<u64>() | 1 << 63) >> (64 - width);
                let mut entries = vec![(rng.gen::<u64>() & mask(offset), offset), (value, width)];
                // Short streams end inside the reader's tail window; the
                // long ones put the same reads on the 16-byte fast path.
                check_against_oracle(&entries);
                entries.extend((0..4).map(|_| (rng.gen::<u64>(), 64)));
                entries.push((mask(width), width));
                check_against_oracle(&entries);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mixed_width_sequences_match_oracle(
            values in prop::collection::vec(any::<u64>(), 96),
            widths in prop::collection::vec(0u32..65, 0..96),
        ) {
            let entries: Vec<(u64, u32)> =
                widths.iter().zip(&values).map(|(&b, &v)| (v & mask(b), b)).collect();
            check_against_oracle(&entries);
        }
    }

    #[test]
    fn row_forms_match_per_value_calls() {
        let mut rng = StdRng::seed_from_u64(0x15_02);
        for width in 1..=64u32 {
            for offset in [0u32, 1, 7, 8, 13, 63] {
                let row: Vec<u64> = (0..37).map(|_| rng.gen::<u64>() & mask(width)).collect();
                let lead = rng.gen::<u64>() & mask(offset);

                let mut by_row = BitWriter::new();
                by_row.write_bits(lead, offset);
                by_row.write_row(&row, width);
                by_row.write_bits(1, 1);
                let mut by_value = BitWriter::new();
                by_value.write_bits(lead, offset);
                for &v in &row {
                    by_value.write_bits(v, width);
                }
                by_value.write_bits(1, 1);
                let bytes = by_row.into_bytes();
                assert_eq!(bytes, by_value.into_bytes(), "width {width} offset {offset}");

                let mut r = BitReader::new(&bytes);
                assert_eq!(r.read_bits(offset).unwrap(), lead);
                let mut back = vec![u64::MAX; row.len()];
                r.read_row_with(&mut back, width, |s, v| *s = v).unwrap();
                assert_eq!(back, row, "width {width} offset {offset}");
                assert_eq!(r.read_bits(1).unwrap(), 1);

                // The closure sees each slot's old contents beside its value.
                let mut r = BitReader::new(&bytes);
                r.skip(offset as usize).unwrap();
                let mut xored: Vec<u64> = (0..row.len() as u64).collect();
                r.read_row_with(&mut xored, width, |s, v| *s ^= v).unwrap();
                assert!(xored.iter().zip(&row).enumerate().all(|(i, (&x, &v))| x ^ v == i as u64));

                // A row one value too long fails, consumes nothing, never
                // calls the closure and leaves the destination untouched.
                let mut r = BitReader::new(&bytes);
                r.skip(offset as usize).unwrap();
                let mut long = vec![u64::MAX; row.len() + 1 + 8 / width as usize];
                assert!(r.read_row_with(&mut long, width, |_, _| panic!("called")).is_err());
                assert_eq!(r.bit_pos(), offset as usize);
                assert!(long.iter().all(|&v| v == u64::MAX));
            }
        }
    }

    /// What each residue-row form computes, through `read_row_with` and
    /// the scalar combine.
    fn scalar_residue_row(r: &mut BitReader<'_>, slots: &mut [u64], q: u64, accumulate: bool) {
        r.read_row_with(slots, bits_for(q), |s, v| {
            let v = reduce_once(v, q);
            *s = if accumulate { add_mod(*s, v, q) } else { v };
        })
        .unwrap();
    }

    /// The residue-row methods, which take the kernel where it runs.
    fn residue_row_method(r: &mut BitReader<'_>, slots: &mut [u64], q: u64, accumulate: bool) {
        if accumulate {
            r.add_residue_row(slots, q).unwrap();
        } else {
            r.read_residue_row(slots, q).unwrap();
        }
    }

    /// The AVX-512 kernel alone; `false` where it declined the row.
    fn kernel(bytes: &[u8], slots: &mut [u64], q: u64, accumulate: bool) -> bool {
        #[cfg(target_arch = "x86_64")]
        return if accumulate {
            avx512::residue_row::<true>(bytes, slots, bits_for(q), q)
        } else {
            avx512::residue_row::<false>(bytes, slots, bits_for(q), q)
        };
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn residue_row_kernel_matches_scalar_rows() {
        #[cfg(target_arch = "x86_64")]
        let detected = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw");
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        println!(
            "avx512f+avx512bw: {}",
            if detected { "detected" } else { "absent — scalar half only" }
        );

        let mut rng = StdRng::seed_from_u64(0x30);
        // The smallest and the largest modulus of every width 2..=62, then
        // every Table III and toy prime.
        let mut moduli: Vec<u64> =
            (2..=62u32).flat_map(|b| [(1u64 << (b - 1)) + 1, 1u64 << b]).collect();
        moduli.extend(crate::ckks::modarith::tests::table3_primes());
        for q in moduli {
            let bits = bits_for(q);
            for len in [8usize, 16, 512, 8192] {
                let row_bytes = len * bits as usize / 8;
                for all_ones in [false, true] {
                    // One lead byte puts the row at an odd address, and the
                    // allocation ends at the row's last byte: a load past
                    // the row would leave the buffer.
                    let mut buf = vec![0xFFu8; 1 + row_bytes];
                    if !all_ones {
                        rng.fill(&mut buf[..]);
                    }
                    let row = &buf[1..];
                    assert_eq!(row.as_ptr() as usize % 2, 1);
                    let acc: Vec<u64> = (0..len).map(|_| rng.gen_range(0..q)).collect();
                    for accumulate in [false, true] {
                        let mut want = acc.clone();
                        scalar_residue_row(&mut BitReader::new(row), &mut want, q, accumulate);

                        let mut got = acc.clone();
                        assert_eq!(kernel(row, &mut got, q, accumulate), detected);
                        if detected {
                            assert_eq!(got, want, "kernel: q {q}, len {len}, acc {accumulate}");
                        }

                        let mut got = acc.clone();
                        let mut r = BitReader::new(row);
                        residue_row_method(&mut r, &mut got, q, accumulate);
                        assert_eq!(r.bit_pos(), row_bytes * 8);
                        assert_eq!(got, want, "method: q {q}, len {len}, acc {accumulate}");
                    }
                }
            }
        }
    }

    #[test]
    fn residue_rows_the_kernel_declines_take_the_scalar_path() {
        let mut rng = StdRng::seed_from_u64(0x30_01);
        let q = (1u64 << 40) + 1;
        let bytes: Vec<u8> = (0..1024).map(|_| rng.gen()).collect();
        for accumulate in [false, true] {
            let acc: Vec<u64> = (0..64).map(|_| rng.gen_range(0..q)).collect();
            // A length that is not a multiple of eight, and a row one byte
            // short of its groups, are declined untouched.
            let mut slots = acc[..13].to_vec();
            assert!(!kernel(&bytes, &mut slots, q, accumulate));
            assert_eq!(slots, acc[..13]);
            let mut slots = acc.clone();
            assert!(!kernel(&bytes[..64 * 41 / 8 - 1], &mut slots, q, accumulate));
            assert_eq!(slots, acc);
            // Through the methods, those rows and rows starting mid-byte
            // read what the scalar combine reads.
            for (lead, len) in [(0usize, 13usize), (3, 64), (5, 13), (8, 64)] {
                let mut want = acc[..len].to_vec();
                let mut r = BitReader::new(&bytes);
                r.skip(lead).unwrap();
                scalar_residue_row(&mut r, &mut want, q, accumulate);
                let mut got = acc[..len].to_vec();
                let mut r = BitReader::new(&bytes);
                r.skip(lead).unwrap();
                residue_row_method(&mut r, &mut got, q, accumulate);
                assert_eq!(got, want, "lead {lead}, len {len}");
                assert_eq!(r.bit_pos(), lead + len * 41);
            }
            // A row longer than the buffer fails, consumes nothing and
            // leaves the slots untouched.
            let mut long = vec![7u64; 8 * 1024 / 41 + 8];
            let mut r = BitReader::new(&bytes);
            let err = if accumulate {
                r.add_residue_row(&mut long, q)
            } else {
                r.read_residue_row(&mut long, q)
            };
            assert!(err.is_err());
            assert_eq!(r.bit_pos(), 0);
            assert!(long.iter().all(|&v| v == 7));
        }
    }

    #[test]
    fn reads_in_the_last_16_bytes_match_oracle() {
        // The reader's tail path: every width at every bit position from
        // which a 16-byte window would overrun the buffer, plus the last
        // positions that still take the fast path.
        let mut rng = StdRng::seed_from_u64(0x15_03);
        let bytes: Vec<u8> = (0..48).map(|_| rng.gen()).collect();
        let end = bytes.len() * 8;
        for width in 1..=64u32 {
            for pos in (end - 20 * 8)..=(end - width as usize) {
                let mut new = BitReader::new(&bytes);
                new.skip(pos).unwrap();
                let mut old = oracle::BitReader { buf: &bytes, bit_pos: pos };
                assert_eq!(
                    new.read_bits(width).ok(),
                    old.read_bits(width),
                    "{width} bits at {pos}"
                );
                assert_eq!(new.bit_pos(), old.bit_pos);
            }
            // One bit past the last position that fits.
            let mut r = BitReader::new(&bytes);
            r.skip(end - width as usize + 1).unwrap();
            assert!(r.read_bits(width).is_err());
            assert_eq!(r.bit_pos(), end - width as usize + 1);
        }
        // Buffers shorter than one window are all tail.
        for len in 0..16usize {
            let short = &bytes[..len];
            let mut new = BitReader::new(short);
            let mut old = oracle::BitReader { buf: short, bit_pos: 0 };
            while let Some(v) = old.read_bits(5) {
                assert_eq!(new.read_bits(5).unwrap(), v);
            }
            assert!(new.read_bits(5).is_err());
        }
    }

    #[test]
    fn skip_is_positional_and_checked() {
        let bytes = [0xA5u8; 4];
        let mut r = BitReader::new(&bytes);
        r.skip(0).unwrap();
        r.skip(9).unwrap();
        assert_eq!(r.bit_pos(), 9);
        assert!(r.skip(24).is_err(), "one bit past the end");
        assert!(r.skip(usize::MAX).is_err(), "no overflow on a hostile count");
        assert_eq!(r.bit_pos(), 9, "failed skip must not consume bits");
        r.skip(23).unwrap();
        assert_eq!(r.bit_pos(), 32);
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn appending_writer_continues_after_existing_bytes() {
        let mut standalone = BitWriter::new();
        standalone.write_row(&[5, 6, 7], 61);
        let standalone = standalone.into_bytes();

        let mut w = BitWriter::appending(vec![0xEE, 0xFF]);
        w.write_row(&[5, 6, 7], 61);
        let bytes = w.into_bytes();
        assert_eq!(bytes[..2], [0xEE, 0xFF]);
        assert_eq!(bytes[2..], standalone[..]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_row_value_panics() {
        let mut w = BitWriter::new();
        w.write_row(&[1, 2, 8], 3);
    }

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(u64::MAX, 64);
        let expected_bits: usize = 3 + 16 + 1 + 64;
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), expected_bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
    }

    #[test]
    fn random_round_trip() {
        let mut rng = StdRng::seed_from_u64(8);
        let entries: Vec<(u64, u32)> = (0..500)
            .map(|_| {
                let bits = rng.gen_range(1..=63);
                let value = rng.gen::<u64>() & ((1u64 << bits) - 1);
                (value, bits)
            })
            .collect();
        let mut w = BitWriter::new();
        for &(v, b) in &entries {
            w.write_bits(v, b);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, b) in &entries {
            assert_eq!(r.read_bits(b).unwrap(), v);
        }
    }

    #[test]
    fn read_past_end_errors() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.read_bits(8).unwrap(); // the padded byte is readable
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let mut w = BitWriter::new();
        w.write_bits(8, 3);
    }

    #[test]
    fn boundary_width_writes_cross_bytes() {
        // 1-, 63- and 64-bit writes at deliberately unaligned bit
        // positions: every write below starts mid-byte.
        let mut w = BitWriter::new();
        w.write_bits(1, 3); // misalign
        w.write_bits(1, 1);
        w.write_bits((1u64 << 63) - 1, 63);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        w.write_bits(1u64 << 62, 63);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), (3 + 1 + 63 + 64 + 1 + 63usize).div_ceil(8));
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 1);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(63).unwrap(), (1u64 << 63) - 1);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(63).unwrap(), 1u64 << 62);
    }

    #[test]
    fn read_past_end_is_positional() {
        // A 64-bit read one bit short of the buffer must fail without
        // consuming anything, then succeed at the right width.
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(r.read_bits(17).is_err());
        assert_eq!(r.bit_pos(), 0, "failed read must not consume bits");
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
        assert!(r.read_bits(64).is_err());
    }

    #[test]
    fn bits_for_moduli() {
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(1024), 10);
        assert_eq!(bits_for(1025), 11);
        assert_eq!(bits_for(1u64 << 61), 61);
        assert_eq!(bits_for((1u64 << 61) - 1), 61);
    }
}
