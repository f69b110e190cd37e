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

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum of
/// gzip/zip/PNG, computed bitwise.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
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
    for &value in v {
        put_u64(out, value.to_bits());
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
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.f64()?);
        }
        Ok(out)
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

    #[test]
    fn crc_is_the_ieee_polynomial() {
        // The standard check value for CRC-32/IEEE over "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
