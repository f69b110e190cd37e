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
//! All integers little-endian; floats as IEEE-754 bit patterns. The file
//! is one frame of the shared codec ([`alrescha_obs::frame`]): its CRC-32
//! trailer rejects truncation and bit rot with a typed error instead of a
//! garbage program, and every count is checked against the bytes present
//! before anything is sized from it.

use alrescha::convert::KernelType;
use alrescha::program::{EntryLayout, ProgramBinary};
use alrescha_obs::frame::{self, put_f64_vec, put_u64, Extent, FrameError, Reader};
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
    /// The bytes are not an intact, well-formed `ALPR` frame.
    Frame(FrameError),
    /// The reconstructed triple fails geometry validation.
    BadGeometry(String),
}

impl From<FrameError> for ContainerError {
    fn from(e: FrameError) -> Self {
        ContainerError::Frame(e)
    }
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::Frame(e) => write!(f, "ALPR container: {e}"),
            ContainerError::BadGeometry(msg) => write!(f, "invalid geometry: {msg}"),
        }
    }
}

impl std::error::Error for ContainerError {}

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
    put_u64(&mut out, alf.rows() as u64);
    put_u64(&mut out, alf.cols() as u64);
    put_u64(&mut out, alf.omega() as u64);
    out.push(match alf.layout() {
        AlfLayout::Streaming => 0,
        AlfLayout::SymGs => 1,
    });
    put_u64(&mut out, program.binary.entry_count() as u64);
    out.extend_from_slice(program.binary.as_bytes());
    put_f64_vec(&mut out, alf.diagonal());
    put_u64(&mut out, alf.blocks().len() as u64);
    for b in alf.blocks() {
        put_u64(&mut out, b.block_row() as u64);
        put_u64(&mut out, b.block_col() as u64);
        out.push(match b.kind() {
            BlockKind::Diagonal => 1,
            BlockKind::OffDiagonal => 0,
        });
        out.push(u8::from(b.reversed()));
        for v in b.payload() {
            put_u64(&mut out, v.to_bits());
        }
    }
    frame::seal(&mut out);
    out
}

/// Deserializes a container, verifying the trailer and the geometry.
///
/// # Errors
///
/// [`ContainerError`] on malformed, truncated, or corrupted input.
pub fn read_container(bytes: &[u8]) -> Result<AssembledProgram, ContainerError> {
    let (body, _) = frame::open(bytes, MAGIC, Extent::Whole)?;
    let mut r = Reader::new(body);
    let version = r.u8()?;
    if version != VERSION {
        return Err(FrameError::UnsupportedVersion(u32::from(version)).into());
    }
    let kernel = kernel_from_code(r.u8()?).ok_or(FrameError::Malformed("kernel"))?;
    let rows = r.usize("rows")?;
    let cols = r.usize("cols")?;
    let omega = r.usize("omega")?;
    // ω² payload words per block, overflow-checked once here.
    let words = omega
        .checked_mul(omega)
        .filter(|&w| w > 0)
        .ok_or(FrameError::Malformed("omega"))?;
    let layout = match r.u8()? {
        0 => AlfLayout::Streaming,
        1 => AlfLayout::SymGs,
        _ => return Err(FrameError::Malformed("layout").into()),
    };
    let entry_count = r.usize("entry_count")?;
    let n = rows.max(cols);
    let entry_layout = EntryLayout::for_matrix(n, omega);
    let packed = r.take(entry_layout.packed_bytes(entry_count))?;
    let binary = ProgramBinary::from_raw_parts(kernel, n, omega, entry_count, packed.to_vec());

    let diagonal = r.f64_vec()?;
    let block_count = r.u64()?;
    let mut blocks = AlfBuilder::new(rows, cols, omega, layout);
    for _ in 0..block_count {
        let br = r.usize("block row")?;
        let bc = r.usize("block col")?;
        let kind = match r.u8()? {
            0 => BlockKind::OffDiagonal,
            1 => BlockKind::Diagonal,
            _ => return Err(FrameError::Malformed("block kind").into()),
        };
        let reversed = r.u8()? != 0;
        let values = r.f64s(words as u64)?;
        blocks
            .push_block(br, bc, kind, &values, reversed)
            .map_err(|e| ContainerError::BadGeometry(e.to_string()))?;
    }
    r.finish()?;

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
