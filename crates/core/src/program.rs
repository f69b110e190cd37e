//! The program binary: bit-packed configuration-table encoding.
//!
//! §4 of the paper: "the host first converts the sparse kernels into a
//! sequence of dense data paths and generates a *binary file*. Then, the
//! host writes the binary file to a configuration table of the accelerator
//! through the program interface." This module implements that binary at
//! exactly the paper's bit budget — `2·⌈log₂(n/ω)⌉ + 3` bits per entry
//! (§4.1): one bit for the data-path type, one for the access order, one
//! for the operand port, and two block indices.
//!
//! The 1-bit data-path field distinguishes the two path types *within one
//! kernel's table* (e.g. GEMV vs. D-SymGS for SymGS); the kernel type
//! itself is part of the binary's header, mirroring how the host launches
//! one kernel at a time. `Inx_out` is derivable for every kernel from the
//! entry's other fields (GEMV entries write to the link stack; D-SymGS
//! writes the chunk after its input; single-data-path kernels write their
//! block-row chunk), so the codec stores the two indices the hardware
//! actually consumes and reconstructs the rest exactly.

use alrescha_sparse::alf::config_entry_bits;

use crate::convert::{AccessOrder, ConfigEntry, ConfigTable, DataPath, KernelType, OperandPort};
use crate::{CoreError, Result};

/// A serialized accelerator program (header + bit-packed table).
///
/// # Example
///
/// ```
/// use alrescha::convert::{convert, KernelType};
/// use alrescha::program::ProgramBinary;
/// use alrescha_sparse::gen;
///
/// let coo = gen::stencil27(2);
/// let (_, table) = convert(KernelType::SymGs, &coo, 8)?;
/// let binary = ProgramBinary::encode(KernelType::SymGs, &table, coo.rows(), 8);
/// let decoded = binary.decode()?;
/// assert_eq!(decoded.entries(), table.entries());
/// # Ok::<(), alrescha::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramBinary {
    kernel: KernelType,
    n: usize,
    omega: usize,
    entries: usize,
    bits: Vec<u8>,
}

/// Writes `value`'s low `width` bits at bit offset `pos`.
fn write_bits(bits: &mut [u8], pos: usize, width: usize, value: usize) {
    for k in 0..width {
        if (value >> k) & 1 == 1 {
            bits[(pos + k) / 8] |= 1 << ((pos + k) % 8);
        }
    }
}

/// Reads `width` bits at bit offset `pos`.
fn read_bits(bits: &[u8], pos: usize, width: usize) -> usize {
    let mut value = 0usize;
    for k in 0..width {
        if bits[(pos + k) / 8] >> ((pos + k) % 8) & 1 == 1 {
            value |= 1 << k;
        }
    }
    value
}

/// One named bit-field within a packed configuration-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// The field name as it appears in the paper (`data_path`, `order`,
    /// `op`, `inx_in`, `inx_out`).
    pub name: &'static str,
    /// Bit offset from the start of the entry.
    pub offset: usize,
    /// Field width in bits.
    pub width: usize,
}

/// The §4.1 bit layout of one configuration-table entry — the single
/// source of truth for field offsets and widths, shared by the codec
/// ([`ProgramBinary`]), the structural verifier (`alrescha-lint` AL0xx/
/// AL1xx), and the abstract interpreter (`alprove` AL4xx) so the three
/// can never drift.
///
/// An entry is `2·⌈log₂(n/ω)⌉ + 3` bits:
///
/// | field       | offset          | width     |
/// |-------------|-----------------|-----------|
/// | `data_path` | 0               | 1         |
/// | `order`     | 1               | 1         |
/// | `op`        | 2               | 1         |
/// | `inx_in`    | 3               | idx_bits  |
/// | `inx_out`   | 3 + idx_bits    | idx_bits  |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryLayout {
    entry_bits: usize,
    idx_bits: usize,
    omega: usize,
}

impl EntryLayout {
    /// The layout for an `n`-dimension matrix blocked at `omega`.
    pub fn for_matrix(n: usize, omega: usize) -> Self {
        let entry_bits = config_entry_bits(n, omega);
        EntryLayout {
            entry_bits,
            idx_bits: (entry_bits - 3) / 2,
            omega: omega.max(1),
        }
    }

    /// Total bits per entry (the paper's `2·⌈log₂(n/ω)⌉ + 3`).
    pub fn entry_bits(&self) -> usize {
        self.entry_bits
    }

    /// Width of each block-index field.
    pub fn idx_bits(&self) -> usize {
        self.idx_bits
    }

    /// The five fields in packing order.
    pub fn fields(&self) -> [FieldSpec; 5] {
        [
            FieldSpec {
                name: "data_path",
                offset: 0,
                width: 1,
            },
            FieldSpec {
                name: "order",
                offset: 1,
                width: 1,
            },
            FieldSpec {
                name: "op",
                offset: 2,
                width: 1,
            },
            FieldSpec {
                name: "inx_in",
                offset: 3,
                width: self.idx_bits,
            },
            FieldSpec {
                name: "inx_out",
                offset: 3 + self.idx_bits,
                width: self.idx_bits,
            },
        ]
    }

    /// Packed size in bytes of a table with `entries` entries. Saturates
    /// rather than wrapping, so an untrusted entry count read from a file
    /// yields a size no buffer holds instead of a small wrapped one.
    pub fn packed_bytes(&self, entries: usize) -> usize {
        entries.saturating_mul(self.entry_bits).div_ceil(8)
    }

    /// The largest value an index field can carry.
    fn idx_mask(&self) -> usize {
        if self.idx_bits >= usize::BITS as usize {
            usize::MAX
        } else {
            (1usize << self.idx_bits) - 1
        }
    }

    /// Packs `entry` at bit offset `base`.
    pub fn encode_entry(&self, entry: &ConfigEntry, bits: &mut [u8], base: usize) {
        let [dp, order, op, inx_in, inx_out] = self.fields();
        write_bits(
            bits,
            base + dp.offset,
            dp.width,
            usize::from(matches!(entry.data_path, DataPath::DSymGs)),
        );
        write_bits(
            bits,
            base + order.offset,
            order.width,
            usize::from(matches!(entry.order, AccessOrder::R2L)),
        );
        write_bits(
            bits,
            base + op.offset,
            op.width,
            usize::from(matches!(entry.op, OperandPort::Port2)),
        );
        write_bits(
            bits,
            base + inx_in.offset,
            inx_in.width,
            entry.inx_in / self.omega,
        );
        // Inx_out is derivable (see module docs); the field carries the
        // block index when present, masked to the field width.
        let out_block = entry.inx_out.map_or(0, |v| v / self.omega);
        write_bits(
            bits,
            base + inx_out.offset,
            inx_out.width,
            out_block & self.idx_mask(),
        );
    }

    /// Unpacks the entry at bit offset `base`, reconstructing the fields
    /// `kernel` semantics derive (see module docs).
    pub fn decode_entry(&self, kernel: KernelType, bits: &[u8], base: usize) -> ConfigEntry {
        let [dp, order, op, inx_in, inx_out] = self.fields();
        let is_dsymgs = read_bits(bits, base + dp.offset, dp.width) == 1;
        let r2l = read_bits(bits, base + order.offset, order.width) == 1;
        let port2 = read_bits(bits, base + op.offset, op.width) == 1;
        let in_block = read_bits(bits, base + inx_in.offset, inx_in.width);
        let data_path = if is_dsymgs {
            DataPath::DSymGs
        } else {
            kernel.data_path()
        };
        // Reconstruct Inx_out from kernel semantics (module docs).
        let out = match (kernel, is_dsymgs) {
            (KernelType::SymGs, false) => None, // GEMV -> link stack
            (KernelType::SymGs, true) => Some((in_block + 1) * self.omega),
            _ => Some(read_bits(bits, base + inx_out.offset, inx_out.width) * self.omega),
        };
        ConfigEntry {
            data_path,
            inx_in: in_block * self.omega,
            inx_out: out,
            order: if r2l {
                AccessOrder::R2L
            } else {
                AccessOrder::L2R
            },
            op: if port2 {
                OperandPort::Port2
            } else {
                OperandPort::Port1
            },
        }
    }
}

impl ProgramBinary {
    /// Encodes a configuration table for an `n`-dimension matrix blocked at
    /// `omega`.
    pub fn encode(kernel: KernelType, table: &ConfigTable, n: usize, omega: usize) -> Self {
        let layout = EntryLayout::for_matrix(n, omega);
        let mut bits = vec![0u8; layout.packed_bytes(table.entries().len())];
        for (e, entry) in table.entries().iter().enumerate() {
            layout.encode_entry(entry, &mut bits, e * layout.entry_bits());
        }
        ProgramBinary {
            kernel,
            n,
            omega,
            entries: table.entries().len(),
            bits,
        }
    }

    /// Decodes back into a configuration table.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if the byte buffer is too
    /// short for the declared entry count.
    pub fn decode(&self) -> Result<ConfigTable> {
        let layout = EntryLayout::for_matrix(self.n, self.omega);
        let needed_bits = self.entries * layout.entry_bits();
        if self.bits.len() * 8 < needed_bits {
            return Err(CoreError::DimensionMismatch {
                expected: needed_bits.div_ceil(8),
                found: self.bits.len(),
            });
        }
        let entries = (0..self.entries)
            .map(|e| layout.decode_entry(self.kernel, &self.bits, e * layout.entry_bits()))
            .collect();
        Ok(ConfigTable::from_entries(entries, layout.entry_bits()))
    }

    /// The entry layout this binary's header implies.
    pub fn layout(&self) -> EntryLayout {
        EntryLayout::for_matrix(self.n, self.omega)
    }

    /// The kernel this binary programs.
    pub fn kernel(&self) -> KernelType {
        self.kernel
    }

    /// The matrix dimension declared in the header.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The block width ω declared in the header.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// The number of table entries declared in the header.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Assembles a binary from raw header fields and packed bytes without
    /// any validation — for verifier/mutation tests that need corrupt
    /// binaries (truncated payload, header/matrix disagreement).
    #[doc(hidden)]
    pub fn from_raw_parts(
        kernel: KernelType,
        n: usize,
        omega: usize,
        entries: usize,
        bits: Vec<u8>,
    ) -> Self {
        ProgramBinary {
            kernel,
            n,
            omega,
            entries,
            bits,
        }
    }

    /// Size of the packed table in bytes — what crosses the program
    /// interface.
    pub fn len_bytes(&self) -> usize {
        self.bits.len()
    }

    /// The packed bits.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use alrescha_sparse::gen;

    fn round_trip(kernel: KernelType, coo: &alrescha_sparse::Coo, omega: usize) {
        let (_, table) = convert(kernel, coo, omega).expect("convert");
        let binary = ProgramBinary::encode(kernel, &table, coo.rows().max(coo.cols()), omega);
        let decoded = binary.decode().expect("decode");
        assert_eq!(decoded.entries(), table.entries());
        assert_eq!(decoded.entry_bits(), table.entry_bits());
    }

    #[test]
    fn symgs_round_trips() {
        round_trip(KernelType::SymGs, &gen::stencil27(4), 8);
    }

    #[test]
    fn spmv_round_trips() {
        round_trip(KernelType::SpMv, &gen::circuit(200, 3), 8);
    }

    #[test]
    fn graph_kernels_round_trip() {
        let g = gen::road_grid(8).transpose();
        round_trip(KernelType::Bfs, &g, 8);
        round_trip(KernelType::Sssp, &g, 8);
        round_trip(KernelType::PageRank, &g, 8);
    }

    #[test]
    fn round_trips_across_block_widths() {
        let coo = gen::banded(120, 4, 9);
        for omega in [2usize, 4, 8, 16, 32] {
            round_trip(KernelType::SymGs, &coo, omega);
            round_trip(KernelType::SpMv, &coo, omega);
        }
    }

    #[test]
    fn binary_size_matches_paper_budget() {
        let coo = gen::stencil27(4); // n = 64, omega 8 -> 8 block rows
        let (_, table) = convert(KernelType::SymGs, &coo, 8).unwrap();
        let binary = ProgramBinary::encode(KernelType::SymGs, &table, 64, 8);
        // 2*ceil(log2(8)) + 3 = 9 bits per entry.
        let expect_bits = table.entries().len() * 9;
        assert_eq!(binary.len_bytes(), expect_bits.div_ceil(8));
    }

    #[test]
    fn truncated_binary_is_rejected() {
        let coo = gen::stencil27(3);
        let (_, table) = convert(KernelType::SpMv, &coo, 8).unwrap();
        let mut binary = ProgramBinary::encode(KernelType::SpMv, &table, 27, 8);
        binary.bits.truncate(1);
        assert!(binary.decode().is_err());
    }

    #[test]
    fn layout_fields_tile_the_entry_exactly() {
        for (n, omega) in [(64usize, 8usize), (27, 8), (120, 4), (1000, 16)] {
            let layout = EntryLayout::for_matrix(n, omega);
            let fields = layout.fields();
            let mut next = 0;
            for f in fields {
                assert_eq!(f.offset, next, "field {} not contiguous", f.name);
                next += f.width;
            }
            assert_eq!(next, layout.entry_bits(), "fields must tile the entry");
            assert_eq!(layout.idx_bits() * 2 + 3, layout.entry_bits());
        }
    }

    #[test]
    fn layout_entry_round_trips_each_field() {
        let layout = EntryLayout::for_matrix(64, 8);
        let entry = ConfigEntry {
            data_path: DataPath::Gemv,
            inx_in: 40,
            inx_out: Some(16),
            order: AccessOrder::R2L,
            op: OperandPort::Port2,
        };
        let mut bits = vec![0u8; layout.packed_bytes(1)];
        layout.encode_entry(&entry, &mut bits, 0);
        let back = layout.decode_entry(KernelType::SpMv, &bits, 0);
        assert_eq!(back.inx_in, entry.inx_in);
        assert_eq!(back.inx_out, entry.inx_out);
        assert_eq!(back.order, entry.order);
        assert_eq!(back.op, entry.op);
    }

    #[test]
    fn bit_helpers_round_trip() {
        let mut bits = vec![0u8; 4];
        write_bits(&mut bits, 5, 7, 0b1010101);
        assert_eq!(read_bits(&bits, 5, 7), 0b1010101);
        write_bits(&mut bits, 12, 9, 0x1ff);
        assert_eq!(read_bits(&bits, 12, 9), 0x1ff);
        // The first field survives the second write.
        assert_eq!(read_bits(&bits, 5, 7), 0b1010101);
    }
}
