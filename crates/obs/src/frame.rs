//! The one framed-container codec behind every byte format in the stack.
//!
//! Five formats share one shape — a 4-byte magic, a header and body, and a
//! CRC-32 trailer over every byte before it:
//!
//! | magic  | what                    | version field | frame extent            |
//! |--------|-------------------------|---------------|-------------------------|
//! | `ALCK` | solver checkpoint       | u32           | whole buffer            |
//! | `ALJL` | journal record          | none          | u32 body length at 4    |
//! | `ALPR` | assembled program       | u8            | whole buffer            |
//! | `ALFR` | flight-recorder dump    | u32           | u32 record count at 12  |
//! | `ALSV` | wire frame              | u32           | u32 payload length at 9 |
//!
//! [`open`] checks a frame in one fixed order — magic, then length, then
//! CRC — so every later error means "intact frame, bad field". [`Reader`]
//! decodes the body; every length it reads is checked against the bytes
//! remaining, with overflow-checked arithmetic, before anything is
//! allocated. Decoding is total: hostile input yields a [`FrameError`],
//! never a panic. Each format keeps its own error type for its domain
//! failures and wraps [`FrameError`] for everything else.

use std::fmt;

/// Bytes of the CRC-32 trailer.
pub const TRAILER_LEN: usize = 4;

/// The framing failures every format shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The bytes do not start with the format's magic.
    BadMagic,
    /// The version field names a version this build does not read.
    UnsupportedVersion(u32),
    /// The bytes end before the frame or field they advertise.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The CRC-32 trailer does not match the bytes before it.
    CrcMismatch {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum recomputed over the frame.
        computed: u32,
    },
    /// The header advertises a frame larger than the format allows.
    TooLarge {
        /// Advertised body length in bytes.
        len: usize,
        /// The format's cap.
        max: usize,
    },
    /// A field holds a value the format forbids.
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated: needed {needed} bytes, found {got}")
            }
            FrameError::CrcMismatch { stored, computed } => write!(
                f,
                "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::TooLarge { len, max } => {
                write!(f, "length {len} exceeds the {max}-byte cap")
            }
            FrameError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Where a format's frame ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// The frame is the whole buffer.
    Whole,
    /// A little-endian u32 count at byte `at` sizes the frame: `header`
    /// fixed bytes (magic included), then `count × stride` body bytes, then
    /// the trailer. A body over `max` bytes is [`FrameError::TooLarge`].
    Counted {
        /// Offset of the u32 count.
        at: usize,
        /// Fixed header bytes, magic included.
        header: usize,
        /// Body bytes per counted unit.
        stride: usize,
        /// Largest body the format accepts.
        max: usize,
    },
}

/// Slicing-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0][b]` is the
/// CRC register after shifting byte `b` through it, and `CRC_TABLES[k][b]`
/// the same followed by `k` zero bytes. 8 KiB, built at compile time.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum of
/// gzip/zip/PNG, computed eight bytes per step by table lookup.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Appends the CRC-32 trailer over everything already in `out`.
pub fn seal(out: &mut Vec<u8>) {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a u64-length-prefixed UTF-8 string, as [`Reader::string`] reads.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a u64-length-prefixed vector of `f64` bit patterns, as
/// [`Reader::f64_vec`] reads.
pub fn put_f64_vec(out: &mut Vec<u8>, v: &[f64]) {
    put_u64(out, v.len() as u64);
    let start = out.len();
    out.resize(start + 8 * v.len(), 0);
    for (word, value) in out[start..].chunks_exact_mut(8).zip(v) {
        word.copy_from_slice(&value.to_bits().to_le_bytes());
    }
}

/// The total length, trailer included, of the frame at the start of
/// `bytes`, read from the magic and header alone. Stream readers call
/// this on the header to learn how many bytes follow.
pub fn frame_len(bytes: &[u8], magic: [u8; 4], extent: Extent) -> Result<usize, FrameError> {
    if bytes.len() >= magic.len() && bytes[..magic.len()] != magic {
        return Err(FrameError::BadMagic);
    }
    let truncated = |needed| FrameError::Truncated {
        needed,
        got: bytes.len(),
    };
    match extent {
        Extent::Whole => {
            let min = magic.len() + TRAILER_LEN;
            if bytes.len() < min {
                return Err(truncated(min));
            }
            Ok(bytes.len())
        }
        Extent::Counted {
            at,
            header,
            stride,
            max,
        } => {
            let field = bytes.get(at..at + 4).ok_or(truncated(header))?;
            let body = (Reader::new(field).u32()? as usize).saturating_mul(stride);
            if body > max {
                return Err(FrameError::TooLarge { len: body, max });
            }
            Ok(header.saturating_add(body).saturating_add(TRAILER_LEN))
        }
    }
}

/// Checks the frame at the start of `bytes` — magic, then length, then
/// CRC — and returns its body (the bytes between the magic and the
/// trailer) together with the frame's total length. Bytes past the frame
/// are left to the caller.
pub fn open(bytes: &[u8], magic: [u8; 4], extent: Extent) -> Result<(&[u8], usize), FrameError> {
    let len = frame_len(bytes, magic, extent)?;
    if bytes.len() < len {
        return Err(FrameError::Truncated {
            needed: len,
            got: bytes.len(),
        });
    }
    let (body, trailer) = bytes[..len].split_at(len - TRAILER_LEN);
    let stored = Reader::new(trailer).u32()?;
    let computed = crc32(body);
    if stored != computed {
        return Err(FrameError::CrcMismatch { stored, computed });
    }
    Ok((&body[magic.len()..], len))
}

/// The little-endian u64 in the first 8 bytes of `word`; callers pass
/// the exact 8-byte chunks of a slice already checked by [`Reader::take`].
#[must_use]
pub fn u64_le(word: &[u8]) -> u64 {
    let mut bits = [0u8; 8];
    bits.copy_from_slice(&word[..8]);
    u64::from_le_bytes(bits)
}

/// A bounded little-endian reader over a frame body.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `len` bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], FrameError> {
        let got = self.remaining();
        if got < len {
            return Err(FrameError::Truncated { needed: len, got });
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// The next `N` bytes as an array.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian u32.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian u64.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A u64 that must fit a `usize` (sizes, indices, counters).
    pub fn usize(&mut self, what: &'static str) -> Result<usize, FrameError> {
        usize::try_from(self.u64()?).map_err(|_| FrameError::Malformed(what))
    }

    /// Checks that `count` elements of `stride` bytes each fit in the
    /// bytes remaining, with overflow-checked arithmetic, and returns
    /// `count`. Call it before sizing any allocation from a length field.
    pub fn checked_len(&self, count: u64, stride: usize) -> Result<usize, FrameError> {
        let overflow = FrameError::Malformed("length field");
        let count = usize::try_from(count).map_err(|_| overflow)?;
        let needed = count.checked_mul(stride).ok_or(overflow)?;
        let got = self.remaining();
        if needed > got {
            return Err(FrameError::Truncated { needed, got });
        }
        Ok(count)
    }

    /// A u64-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, FrameError> {
        let len = self.usize("string length")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed("string is not UTF-8"))
    }

    /// `count` consecutive `f64` values.
    pub fn f64s(&mut self, count: u64) -> Result<Vec<f64>, FrameError> {
        let count = self.checked_len(count, 8)?;
        let bytes = self.take(8 * count)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| f64::from_bits(u64_le(w)))
            .collect())
    }

    /// A u64-length-prefixed vector of `f64` values.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, FrameError> {
        let count = self.u64()?;
        self.f64s(count)
    }

    /// Ends decoding: every byte of the body must have been read.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The bitwise definition [`crc32`] must equal: one polynomial step
    /// per bit.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc_table_matches_the_bitwise_oracle_on_short_inputs() {
        assert_eq!(crc32(&[]), crc32_bitwise(&[]));
        for byte in 0..=255u8 {
            assert_eq!(crc32(&[byte]), crc32_bitwise(&[byte]), "byte {byte}");
        }
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bitwise(&data[..len]),
                "len {len}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random lengths from unaligned starts: the table walk and its
        /// byte-wise remainder agree with the bitwise definition.
        #[test]
        fn crc_table_matches_the_bitwise_oracle(
            data in proptest::collection::vec(0u8..=255, 0..4096),
            start in 0usize..8,
        ) {
            let start = start.min(data.len());
            prop_assert_eq!(crc32(&data[start..]), crc32_bitwise(&data[start..]));
        }

        #[test]
        fn f64_vectors_round_trip_bit_exactly(
            bits in proptest::collection::vec(0u64..u64::MAX, 0..64),
        ) {
            let v: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let mut out = Vec::new();
            put_f64_vec(&mut out, &v);
            prop_assert_eq!(out.len(), 8 + 8 * v.len());
            let mut rd = Reader::new(&out);
            let back = rd.f64_vec().unwrap();
            rd.finish().unwrap();
            let back_bits: Vec<u64> = back.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(back_bits, bits);
        }
    }

    #[test]
    fn crc_is_the_ieee_polynomial() {
        // The standard check value for CRC-32/IEEE over "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
