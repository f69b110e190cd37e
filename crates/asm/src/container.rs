//! The `.alp` on-disk container for an assembled program triple.
//!
//! `alasm asm` writes one and `alasm disasm` reads one back; the format
//! carries everything the disassembler needs to reproduce the listing:
//!
//! ```text
//! "ALPR" magic \u{b7} version u8 \u{b7} kernel u8 \u{b7} rows/cols/\u{3c9} u64 \u{b7} layout u8
//! entry_count u64 \u{b7} packed program bits (EntryLayout::packed_bytes)
//! diagonal (u64 count + f64 values)
//! blocks (u64 count; each: row u64, col u64, kind u8, reversed u8, \u{3c9}\u{b2} f64)
//! crc32 u32 over everything above
//! ```
//!
//! All integers little-endian; floats as IEEE-754 bit patterns. The
//! CRC-32 (IEEE, reflected) trailer rejects truncation and bit rot with a
//! typed error instead of a garbage program.

use alrescha::convert::KernelType;
use alrescha::program::{EntryLayout, ProgramBinary};
use alrescha_sparse::alf::AlfLayout;
use alrescha_sparse::{AlfBuilder, BlockKind};

use crate::assemble::AssembledProgram;

/// Container magic: "ALPR" (ALRESCHA program).
pub const MAGIC: [u8; 4] = *b"ALPR";
/// Current container version.
pub const VERSION: u8 = 1;

/// A container decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The buffer does not start with the `ALPR` magic.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u8),
    /// The buffer ends before a declared field.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// The CRC-32 trailer does not match the payload.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A field holds a value outside its domain.
    BadField {
        /// Which field.
        what: &'static str,
        /// The raw value.
        value: u64,
    },
    /// The reconstructed triple fails geometry validation.
    BadGeometry(String),
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "not an ALPR container (bad magic)"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::Truncated { what } => write!(f, "container truncated reading {what}"),
            ContainerError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ContainerError::BadField { what, value } => {
                write!(f, "field {what} holds invalid value {value}")
            }
            ContainerError::BadGeometry(msg) => write!(f, "invalid geometry: {msg}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), bitwise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

fn kernel_code(kernel: KernelType) -> u8 {
    match kernel {
        KernelType::SpMv => 0,
        KernelType::SymGs => 1,
        KernelType::Bfs => 2,
        KernelType::Sssp => 3,
        KernelType::PageRank => 4,
        KernelType::ConnectedComponents => 5,
    }
}

fn kernel_from_code(code: u8) -> Option<KernelType> {
    Some(match code {
        0 => KernelType::SpMv,
        1 => KernelType::SymGs,
        2 => KernelType::Bfs,
        3 => KernelType::Sssp,
        4 => KernelType::PageRank,
        5 => KernelType::ConnectedComponents,
        _ => return None,
    })
}

/// Serializes an assembled program into the container format.
pub fn write_container(program: &AssembledProgram) -> Vec<u8> {
    let alf = &program.alf;
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kernel_code(program.kernel));
    push_u64(&mut out, alf.rows() as u64);
    push_u64(&mut out, alf.cols() as u64);
    push_u64(&mut out, alf.omega() as u64);
    out.push(match alf.layout() {
        AlfLayout::Streaming => 0,
        AlfLayout::SymGs => 1,
    });
    push_u64(&mut out, program.binary.entry_count() as u64);
    out.extend_from_slice(program.binary.as_bytes());
    push_u64(&mut out, alf.diagonal().len() as u64);
    for v in alf.diagonal() {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    push_u64(&mut out, alf.blocks().len() as u64);
    for b in alf.blocks() {
        push_u64(&mut out, b.block_row() as u64);
        push_u64(&mut out, b.block_col() as u64);
        out.push(match b.kind() {
            BlockKind::Diagonal => 1,
            BlockKind::OffDiagonal => 0,
        });
        out.push(u8::from(b.reversed()));
        for v in b.payload() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Deserializes a container, verifying the trailer and the geometry.
///
/// # Errors
///
/// [`ContainerError`] on malformed, truncated, or corrupted input.
pub fn read_container(bytes: &[u8]) -> Result<AssembledProgram, ContainerError> {
    if bytes.len() < 4 + MAGIC.len() {
        return Err(ContainerError::Truncated { what: "header" });
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(ContainerError::ChecksumMismatch { stored, computed });
    }

    let mut r = Reader { buf: payload, at: 0 };
    let magic = r.take(4, "magic")?;
    if magic != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let version = r.u8("version")?;
    if version != VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    let kernel_raw = r.u8("kernel")?;
    let kernel = kernel_from_code(kernel_raw).ok_or(ContainerError::BadField {
        what: "kernel",
        value: u64::from(kernel_raw),
    })?;
    let rows = r.dim("rows")?;
    let cols = r.dim("cols")?;
    let omega = r.dim("omega")?;
    if omega == 0 {
        return Err(ContainerError::BadField {
            what: "omega",
            value: 0,
        });
    }
    let layout = match r.u8("layout")? {
        0 => AlfLayout::Streaming,
        1 => AlfLayout::SymGs,
        other => {
            return Err(ContainerError::BadField {
                what: "layout",
                value: u64::from(other),
            })
        }
    };
    let entry_count = r.dim("entry_count")?;
    let n = rows.max(cols);
    let entry_layout = EntryLayout::for_matrix(n, omega);
    let packed = r.take(entry_layout.packed_bytes(entry_count), "program bits")?;
    let binary = ProgramBinary::from_raw_parts(kernel, n, omega, entry_count, packed.to_vec());

    let diag_len = r.dim("diag_len")?;
    let mut diagonal = Vec::with_capacity(diag_len);
    for _ in 0..diag_len {
        diagonal.push(r.f64("diagonal value")?);
    }
    let block_count = r.dim("block_count")?;
    let mut blocks = AlfBuilder::new(rows, cols, omega, layout);
    let mut values = Vec::with_capacity(omega * omega);
    for _ in 0..block_count {
        let br = r.dim("block row")?;
        let bc = r.dim("block col")?;
        let kind = match r.u8("block kind")? {
            0 => BlockKind::OffDiagonal,
            1 => BlockKind::Diagonal,
            other => {
                return Err(ContainerError::BadField {
                    what: "block kind",
                    value: u64::from(other),
                })
            }
        };
        let reversed = r.u8("block order")? != 0;
        values.clear();
        for _ in 0..omega * omega {
            values.push(r.f64("block payload")?);
        }
        blocks
            .push_block(br, bc, kind, &values, reversed)
            .map_err(|e| ContainerError::BadGeometry(e.to_string()))?;
    }
    if r.at != payload.len() {
        return Err(ContainerError::BadField {
            what: "trailing bytes",
            value: (payload.len() - r.at) as u64,
        });
    }

    let alf = blocks
        .finish(diagonal)
        .map_err(|e| ContainerError::BadGeometry(e.to_string()))?;
    let table = binary
        .decode()
        .map_err(|e| ContainerError::BadGeometry(e.to_string()))?;
    Ok(AssembledProgram {
        kernel,
        binary,
        table,
        alf,
    })
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], ContainerError> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ContainerError::Truncated { what })?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ContainerError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ContainerError> {
        let s = self.take(8, what)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, ContainerError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A u64 that must fit a `usize` (dimension/count fields).
    fn dim(&mut self, what: &'static str) -> Result<usize, ContainerError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| ContainerError::BadField { what, value: v })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_text;
    use crate::disasm::disassemble;
    use alrescha::convert::convert;
    use alrescha_sparse::gen;

    fn sample() -> AssembledProgram {
        let coo = gen::stencil27(2);
        let (alf, table) = convert(KernelType::SymGs, &coo, 8).unwrap();
        let text = disassemble(KernelType::SymGs, &table, &alf);
        assemble_text(&text).unwrap()
    }

    #[test]
    fn container_round_trips_the_triple() {
        let program = sample();
        let bytes = write_container(&program);
        let back = read_container(&bytes).unwrap();
        assert_eq!(back.kernel, program.kernel);
        assert_eq!(back.binary.as_bytes(), program.binary.as_bytes());
        assert_eq!(back.table.entries(), program.table.entries());
        assert_eq!(back.alf, program.alf);
    }

    #[test]
    fn bit_rot_is_rejected_by_the_trailer() {
        let mut bytes = write_container(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            read_container(&bytes),
            Err(ContainerError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = write_container(&sample());
        for cut in [3, 16, bytes.len() - 5] {
            assert!(read_container(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn crc32_matches_the_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }
}
