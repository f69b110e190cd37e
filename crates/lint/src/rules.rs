//! The rule catalog. Every rule has a stable `ALxyz` code; DESIGN.md §9
//! documents each with the paper invariant it protects.

use alrescha::convert::{AccessOrder, ConfigTable, DataPath, KernelType, OperandPort};
use alrescha::program::EntryLayout;
use alrescha::program::ProgramBinary;
use alrescha_sim::SimConfig;
use alrescha_sparse::alf::AlfLayout;
use alrescha_sparse::{Alf, BlockKind};

use crate::{Diagnostic, Location, Severity};

/// AL1xx binary rules: header/matrix agreement (AL104) and codec
/// round-trip (AL101). `decoded` is `program`'s table, or `None` when it
/// did not decode.
pub(crate) fn verify_binary(
    program: &ProgramBinary,
    decoded: Option<&ConfigTable>,
    alf: &Alf,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = alf.rows().max(alf.cols());
    if program.n() != n {
        diags.push(Diagnostic::of(
            "AL104",
            Location::Field { name: "n" },
            format!(
                "binary header declares n={} but the matrix is {}x{}",
                program.n(),
                alf.rows(),
                alf.cols()
            ),
        ));
    }
    if program.omega() != alf.omega() {
        diags.push(Diagnostic::of(
            "AL104",
            Location::Field { name: "omega" },
            format!(
                "binary header declares ω={} but the matrix is blocked at ω={}",
                program.omega(),
                alf.omega()
            ),
        ));
    }
    if program.entry_count() != alf.blocks().len() {
        diags.push(Diagnostic::of(
            "AL104",
            Location::Field { name: "entries" },
            format!(
                "binary header declares {} entries but the format stores {} blocks",
                program.entry_count(),
                alf.blocks().len()
            ),
        ));
    }

    match decoded {
        None => {
            let entry_bits = EntryLayout::for_matrix(program.n(), program.omega()).entry_bits();
            diags.push(Diagnostic::of(
                "AL101",
                Location::ByteOffset {
                    offset: program.len_bytes(),
                },
                format!(
                    "packed table truncated: {} bytes cannot hold {} entries of {} bits",
                    program.len_bytes(),
                    program.entry_count(),
                    entry_bits
                ),
            ));
        }
        Some(decoded) => {
            let reencoded =
                ProgramBinary::encode(program.kernel(), decoded, program.n(), program.omega());
            if reencoded.as_bytes() != program.as_bytes() {
                let offset = program
                    .as_bytes()
                    .iter()
                    .zip(reencoded.as_bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| reencoded.len_bytes().min(program.len_bytes()));
                diags.push(Diagnostic::of(
                    "AL101",
                    Location::ByteOffset { offset },
                    "decode/encode round-trip diverges: the packed bytes carry bits the \
                     codec cannot reproduce"
                        .to_string(),
                ));
            }
        }
    }
    diags
}

/// The data paths a kernel's table may legally contain (Table 1).
fn allowed_paths(kernel: KernelType) -> &'static [DataPath] {
    match kernel {
        KernelType::SymGs => &[DataPath::Gemv, DataPath::DSymGs],
        KernelType::SpMv => &[DataPath::Gemv],
        KernelType::Bfs | KernelType::ConnectedComponents => &[DataPath::DBfs],
        KernelType::Sssp => &[DataPath::DSssp],
        KernelType::PageRank => &[DataPath::DPr],
    }
}

/// The FCU drain window that hides a reconfiguration for this kernel's
/// reduction (§4.4).
fn drain_window(kernel: KernelType, config: &SimConfig) -> u64 {
    match kernel {
        KernelType::Bfs | KernelType::Sssp | KernelType::ConnectedComponents => {
            config.fcu_min_latency()
        }
        _ => config.fcu_sum_latency(),
    }
}

/// AL0xx/AL1xx/AL2xx table rules: index bit-width (AL004), entry bounds
/// (AL102), kernel↔data-path agreement (AL103), and reconfiguration-point
/// legality (AL203).
pub fn verify_table(
    kernel: KernelType,
    table: &ConfigTable,
    alf: &Alf,
    config: &SimConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let omega = alf.omega().max(1);
    let n = alf.rows().max(alf.cols());
    let padded = n.div_ceil(omega) * omega;

    // AL004: the one-time table must use exactly 2·ceil(log2(n/ω)) + 3 bits
    // per entry — wider wastes the §4.1 budget, narrower cannot address
    // every block.
    let want_bits = EntryLayout::for_matrix(n, omega).entry_bits();
    if table.entry_bits() != want_bits {
        diags.push(Diagnostic::of(
            "AL004",
            Location::Field { name: "entry_bits" },
            format!(
                "entry width is {} bits; 2·ceil(log2({n}/{omega})) + 3 = {want_bits}",
                table.entry_bits()
            ),
        ));
    }

    let paths = allowed_paths(kernel);
    for (i, entry) in table.entries().iter().enumerate() {
        // AL102: chunk indices must be ω-aligned and inside the padded
        // dimension (the hardware shifts them left by log2 ω; a stray index
        // would address memory outside the streamed vectors).
        if entry.inx_in % omega != 0 {
            diags.push(Diagnostic::of(
                "AL102",
                Location::Entry {
                    index: i,
                    field: "inx_in",
                },
                format!("Inx_in {} is not a multiple of ω={omega}", entry.inx_in),
            ));
        }
        if entry.inx_in >= padded.max(omega) {
            diags.push(Diagnostic::of(
                "AL102",
                Location::Entry {
                    index: i,
                    field: "inx_in",
                },
                format!(
                    "Inx_in {} addresses beyond the padded dimension {padded}",
                    entry.inx_in
                ),
            ));
        }
        if let Some(out) = entry.inx_out {
            if out % omega != 0 {
                diags.push(Diagnostic::of(
                    "AL102",
                    Location::Entry {
                        index: i,
                        field: "inx_out",
                    },
                    format!("Inx_out {out} is not a multiple of ω={omega}"),
                ));
            }
            // D-SymGS writes the chunk *after* its input, so Inx_out may
            // equal the padded dimension on the last block row; anything
            // beyond that is out of range.
            if out > padded {
                diags.push(Diagnostic::of(
                    "AL102",
                    Location::Entry {
                        index: i,
                        field: "inx_out",
                    },
                    format!("Inx_out {out} addresses beyond the padded dimension {padded}"),
                ));
            }
        }
        // AL103: the 1-bit data-path field only distinguishes paths within
        // one kernel's repertoire.
        if !paths.contains(&entry.data_path) {
            diags.push(Diagnostic::of(
                "AL103",
                Location::Entry {
                    index: i,
                    field: "data_path",
                },
                format!(
                    "data path {:?} is not in kernel {kernel:?}'s repertoire {paths:?}",
                    entry.data_path
                ),
            ));
        }
    }

    if table.entries().len() != alf.blocks().len() {
        diags.push(Diagnostic::of(
            "AL103",
            Location::Field { name: "entries" },
            format!(
                "table has {} entries for {} streamed blocks — one entry per block",
                table.entries().len(),
                alf.blocks().len()
            ),
        ));
        return diags;
    }

    // Entry-by-entry agreement with the streamed block it programs.
    for (i, (entry, block)) in table.entries().iter().zip(alf.blocks()).enumerate() {
        let (br, bc) = (block.block_row(), block.block_col());
        match kernel {
            KernelType::SymGs => {
                let is_diag = block.kind() == BlockKind::Diagonal;
                let entry_diag = entry.data_path == DataPath::DSymGs;
                if is_diag != entry_diag {
                    diags.push(Diagnostic::of(
                        "AL103",
                        Location::Entry {
                            index: i,
                            field: "data_path",
                        },
                        format!(
                            "entry programs {:?} but block ({br},{bc}) is {:?}",
                            entry.data_path,
                            block.kind()
                        ),
                    ));
                    continue;
                }
                if entry.inx_in != bc * omega {
                    diags.push(Diagnostic::of(
                        "AL103",
                        Location::Entry {
                            index: i,
                            field: "inx_in",
                        },
                        format!(
                            "Inx_in {} does not gather block column {bc} (expected {})",
                            entry.inx_in,
                            bc * omega
                        ),
                    ));
                }
                if is_diag {
                    if entry.inx_out != Some((br + 1) * omega) {
                        diags.push(Diagnostic::of(
                            "AL103",
                            Location::Entry {
                                index: i,
                                field: "inx_out",
                            },
                            format!(
                                "D-SymGS must write the successor chunk {} (found {:?})",
                                (br + 1) * omega,
                                entry.inx_out
                            ),
                        ));
                    }
                } else if entry.inx_out.is_some() {
                    diags.push(Diagnostic::of(
                        "AL103",
                        Location::Entry {
                            index: i,
                            field: "inx_out",
                        },
                        "GEMV results ride the link stack: Inx_out must be Algorithm 1's -1"
                            .to_string(),
                    ));
                }
                // Access order must match the stored reversal; the operand
                // port follows the triangle (Algorithm 1, lines 14-27).
                let want_r2l = block.reversed();
                if (entry.order == AccessOrder::R2L) != want_r2l {
                    diags.push(Diagnostic::of(
                        "AL103",
                        Location::Entry {
                            index: i,
                            field: "order",
                        },
                        format!(
                            "access order {:?} disagrees with the stored value order \
                             (reversed = {want_r2l})",
                            entry.order
                        ),
                    ));
                }
                let want_port = if is_diag || br > bc {
                    OperandPort::Port2
                } else {
                    OperandPort::Port1
                };
                if entry.op != want_port {
                    diags.push(Diagnostic::of(
                        "AL103",
                        Location::Entry {
                            index: i,
                            field: "op",
                        },
                        format!(
                            "operand port {:?} disagrees with the triangle rule (want {:?})",
                            entry.op, want_port
                        ),
                    ));
                }
            }
            _ => {
                if entry.inx_in != br * omega || entry.inx_out != Some(bc * omega) {
                    diags.push(Diagnostic::of(
                        "AL103",
                        Location::Entry {
                            index: i,
                            field: "inx_in",
                        },
                        format!(
                            "entry addresses chunks ({}, {:?}) but block ({br},{bc}) \
                             expects ({}, Some({}))",
                            entry.inx_in,
                            entry.inx_out,
                            br * omega,
                            bc * omega
                        ),
                    ));
                }
            }
        }
    }

    // AL203a: a reconfiguration takes cache_latency cycles through the
    // program interface; it is free only while the FCU pipeline drains.
    let window = drain_window(kernel, config);
    if table.switch_count() > 0 && config.cache_latency > window {
        diags.push(Diagnostic::of_with(
            "AL203",
            Severity::Warning,
            Location::Field {
                name: "cache_latency",
            },
            format!(
                "RCU reprogram ({} cycles) exceeds the FCU drain window ({window} cycles): \
                 {} switches are no longer drain-hidden",
                config.cache_latency,
                table.switch_count()
            ),
        ));
    }

    // AL203b: switches may only sit at data-path boundaries of the
    // schedule — entering a block row's diagonal, or leaving it for a
    // later block row's GEMVs.
    if kernel == KernelType::SymGs {
        for i in 1..table.entries().len() {
            let prev = &table.entries()[i - 1];
            let cur = &table.entries()[i];
            if prev.data_path == cur.data_path {
                continue;
            }
            let legal = if cur.data_path == DataPath::DSymGs {
                alf.block(i).kind() == BlockKind::Diagonal
                    && alf.block(i).block_row() == alf.block(i - 1).block_row()
            } else {
                alf.block(i - 1).kind() == BlockKind::Diagonal
                    && alf.block(i).block_row() > alf.block(i - 1).block_row()
            };
            if !legal {
                diags.push(Diagnostic::of(
                    "AL203",
                    Location::Entry {
                        index: i,
                        field: "data_path",
                    },
                    format!(
                        "reconfiguration to {:?} mid-row: switches are only legal entering \
                         a row's diagonal block or opening a later block row",
                        cur.data_path
                    ),
                ));
            }
        }
    }

    diags
}

/// AL0xx format rules and AL2xx/AL3xx schedule/resource rules that need
/// only the streamed format and the engine configuration.
pub fn verify_alf(alf: &Alf, config: &SimConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let omega = alf.omega().max(1);
    let symgs = alf.layout() == AlfLayout::SymGs;
    let row_bound = alf.rows().div_ceil(omega);
    let col_bound = alf.cols().div_ceil(omega);

    // AL001 / AL002 / AL201 / AL304 walk the stream once.
    let mut last_row = 0usize;
    let mut diag_seen = vec![false; row_bound.max(1)];
    let mut last_diag_row: Option<usize> = None;
    for (i, block) in alf.blocks().iter().enumerate() {
        let (br, bc) = (block.block_row(), block.block_col());

        // AL304: structural sanity — coordinates and payload geometry.
        if br >= row_bound || bc >= col_bound {
            diags.push(Diagnostic::of(
                "AL304",
                Location::Block { index: i },
                format!("block ({br},{bc}) lies outside the {row_bound}x{col_bound} block grid"),
            ));
            continue;
        }
        if block.payload().len() != omega * omega {
            diags.push(Diagnostic::of(
                "AL304",
                Location::Block { index: i },
                format!(
                    "payload holds {} values; a locally-dense block streams ω² = {}",
                    block.payload().len(),
                    omega * omega
                ),
            ));
        }

        // AL001: stream order is the order of computation — block rows
        // non-decreasing, and within a row every off-diagonal (GEMV) block
        // before the diagonal (D-SymGS) block.
        if br < last_row {
            diags.push(Diagnostic::of(
                "AL001",
                Location::Block { index: i },
                format!("block row {br} streams after block row {last_row}"),
            ));
        }
        last_row = last_row.max(br);
        match block.kind() {
            BlockKind::Diagonal => {
                if diag_seen[br] {
                    diags.push(Diagnostic::of(
                        "AL001",
                        Location::Block { index: i },
                        format!("block row {br} streams two diagonal blocks"),
                    ));
                }
                diag_seen[br] = true;
                // AL201: the D-SymGS recurrence x_i depends on x_{i-1};
                // diagonal blocks must stream in ascending order.
                if let Some(prev) = last_diag_row {
                    if br <= prev {
                        diags.push(Diagnostic::of(
                            "AL201",
                            Location::Block { index: i },
                            format!(
                                "diagonal block {br} streams after diagonal block {prev}: the \
                                 D-SymGS recurrence chain is no longer topologically ordered"
                            ),
                        ));
                    }
                }
                last_diag_row = Some(br);
            }
            BlockKind::OffDiagonal => {
                if symgs && bc == br && alf.rows() == alf.cols() {
                    diags.push(Diagnostic::of(
                        "AL002",
                        Location::Block { index: i },
                        format!(
                            "block ({br},{bc}) sits on the diagonal but is not marked as a \
                             D-SymGS diagonal block"
                        ),
                    ));
                }
                if symgs && diag_seen[br] {
                    diags.push(Diagnostic::of(
                        "AL001",
                        Location::Block { index: i },
                        format!(
                            "off-diagonal block ({br},{bc}) streams after its row's diagonal \
                             block: GEMVs must complete before the row's D-SymGS"
                        ),
                    ));
                }
                // AL201: a lower-triangle GEMV consumes x of its column's
                // block row, produced by that row's D-SymGS this sweep.
                if symgs && bc < br && bc < diag_seen.len() && !diag_seen[bc] {
                    diags.push(Diagnostic::of(
                        "AL201",
                        Location::Block { index: i },
                        format!(
                            "lower-triangle block ({br},{bc}) streams before diagonal block \
                             {bc} produces its operand chunk"
                        ),
                    ));
                }
            }
        }

        // AL002: the stored value order must match what the layout demands
        // (upper-triangle and diagonal rows right-to-left under SymGS).
        let want = block.expected_reversed(alf.layout());
        if block.reversed() != want {
            diags.push(Diagnostic::of(
                "AL002",
                Location::Block { index: i },
                format!(
                    "block ({br},{bc}) streams {} but the {:?} layout requires {}",
                    if block.reversed() { "r2l" } else { "l2r" },
                    alf.layout(),
                    if want { "r2l" } else { "l2r" }
                ),
            ));
        }
        if !symgs && block.kind() == BlockKind::Diagonal {
            diags.push(Diagnostic::of(
                "AL002",
                Location::Block { index: i },
                format!("diagonal-kind block ({br},{bc}) in a streaming-layout format"),
            ));
        }
        // AL002: extracted diagonal slots must be zero in the payload —
        // the diagonal travels in the separate cached vector.
        if symgs && block.kind() == BlockKind::Diagonal {
            for k in 0..omega {
                if block.get(k, k) != 0.0 {
                    diags.push(Diagnostic::of(
                        "AL002",
                        Location::Block { index: i },
                        format!(
                            "diagonal block ({br},{bc}) still carries a diagonal value at \
                             lane {k}: extraction must zero the payload slot"
                        ),
                    ));
                    break;
                }
            }
        }

        // AL003: an all-zero off-diagonal block is pure padding — BCSR
        // construction never emits one, so its presence means corruption
        // or a wasteful producer (ω²·8 streamed bytes for nothing).
        if block.kind() == BlockKind::OffDiagonal && block.fill_count() == 0 {
            diags.push(Diagnostic::of(
                "AL003",
                Location::Block { index: i },
                format!(
                    "off-diagonal block ({br},{bc}) is all padding: {} streamed bytes carry \
                     no non-zeros",
                    omega * omega * 8
                ),
            ));
        }
    }

    // AL003 (note): low mean fill erodes the locally-dense premise.
    let fill = alf.mean_block_fill();
    if !alf.blocks().is_empty() && fill < 1.0 / omega as f64 {
        diags.push(Diagnostic::of_with(
            "AL003",
            Severity::Info,
            Location::Format,
            format!(
                "mean block fill {fill:.3} is below 1/ω = {:.3}: most streamed values are \
                 padding zeros",
                1.0 / omega as f64
            ),
        ));
    }

    // AL304: the extracted diagonal's length is fixed by the layout.
    let want_diag = if symgs { alf.rows().min(alf.cols()) } else { 0 };
    if alf.diagonal().len() != want_diag {
        diags.push(Diagnostic::of(
            "AL304",
            Location::Field { name: "diagonal" },
            format!(
                "extracted diagonal holds {} values; the {:?} layout requires {want_diag}",
                alf.diagonal().len(),
                alf.layout()
            ),
        ));
    }

    // AL302: the engine derives tree depth and cache-line occupancy from
    // *its* ω; running a format blocked at a different ω would mis-count
    // every block's cycles (the engine rejects it at run time — this rule
    // rejects it before issue).
    if alf.omega() != config.omega {
        diags.push(Diagnostic::of(
            "AL302",
            Location::Field { name: "omega" },
            format!(
                "format is blocked at ω={} but the engine is configured for ω={}",
                alf.omega(),
                config.omega
            ),
        ));
    }

    // AL303: a dimension that is not a multiple of ω pads the final chunk;
    // legal (the engine clamps the tail) but worth surfacing.
    if alf.has_padded_tail() {
        diags.push(Diagnostic::of(
            "AL303",
            Location::Format,
            format!(
                "dimension {}x{} is not a multiple of ω={}: the final chunk of every vector \
                 operand carries padding lanes",
                alf.rows(),
                alf.cols(),
                alf.omega()
            ),
        ));
    }

    if symgs {
        // AL202: the RCU link stack buffers ω entries per off-diagonal
        // block of a row until the row's D-SymGS pops them.
        let peak = omega * alf.max_off_diagonal_blocks_per_row();
        if peak > config.link_stack_capacity() {
            diags.push(Diagnostic::of_with(
                "AL202",
                Severity::Warning,
                Location::Format,
                format!(
                    "densest block row pushes {peak} link-stack entries; the LIFO holds \
                     {} — spills stall the GEMV pipeline",
                    config.link_stack_capacity()
                ),
            ));
        }
        // AL202: the b/diagonal FIFOs hold exactly one ω-chunk.
        if alf.omega() > config.operand_fifo_capacity() {
            diags.push(Diagnostic::of(
                "AL202",
                Location::Field { name: "omega" },
                format!(
                    "operand FIFOs hold {} values but each block row fills them with ω={} \
                     b/diagonal operands",
                    config.operand_fifo_capacity(),
                    alf.omega()
                ),
            ));
        }

        // AL301: every distinct operand chunk of a block row (plus the b
        // and diagonal chunks) must coexist in the local cache for the
        // prefetch schedule to stand.
        let working_set = (alf.max_operand_blocks_per_row() + 2) * omega;
        if working_set > config.cache_values() {
            diags.push(Diagnostic::of(
                "AL301",
                Location::Format,
                format!(
                    "per-block-row working set of {working_set} values exceeds the \
                     {}-value cache: prefetched chunks thrash",
                    config.cache_values()
                ),
            ));
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha::convert::{convert, ConfigEntry};
    use alrescha_sparse::gen;

    fn symgs_fixture() -> (Alf, ConfigTable) {
        let coo = gen::stencil27(4); // n = 64 = 8·8, clean at paper ω
        convert(KernelType::SymGs, &coo, 8).expect("convert")
    }

    #[test]
    fn generated_format_is_rule_clean() {
        let (alf, table) = symgs_fixture();
        let cfg = SimConfig::paper();
        assert!(verify_alf(&alf, &cfg)
            .iter()
            .all(|d| d.severity != Severity::Error));
        assert!(verify_table(KernelType::SymGs, &table, &alf, &cfg)
            .iter()
            .all(|d| d.severity != Severity::Error));
    }

    #[test]
    fn al001_flags_diagonal_streaming_first() {
        let (mut alf, _) = symgs_fixture();
        // Find a row with an off-diagonal block and swap it behind its
        // diagonal block.
        let blocks = alf.blocks();
        let off = blocks
            .iter()
            .position(|b| b.kind() == BlockKind::OffDiagonal)
            .expect("stencil has off-diagonal blocks");
        let row = alf.block(off).block_row();
        let diag = blocks
            .iter()
            .position(|b| b.kind() == BlockKind::Diagonal && b.block_row() == row)
            .expect("row has a diagonal block");
        alf.swap_blocks_unchecked(off, diag);
        let diags = verify_alf(&alf, &SimConfig::paper());
        assert!(diags.iter().any(|d| d.code == "AL001"));
    }

    #[test]
    fn al002_flags_wrong_reversal() {
        let (mut alf, _) = symgs_fixture();
        let upper = alf
            .blocks()
            .iter()
            .position(|b| b.block_col() > b.block_row())
            .expect("stencil has upper blocks");
        alf.set_reversed_unchecked(upper, false);
        let diags = verify_alf(&alf, &SimConfig::paper());
        assert!(diags.iter().any(|d| d.code == "AL002"));
    }

    #[test]
    fn al004_flags_wrong_entry_width() {
        let (alf, table) = symgs_fixture();
        let wrong = ConfigTable::from_entries(table.entries().to_vec(), table.entry_bits() + 2);
        let diags = verify_table(KernelType::SymGs, &wrong, &alf, &SimConfig::paper());
        assert!(diags.iter().any(|d| d.code == "AL004"));
    }

    #[test]
    fn al102_flags_out_of_range_index() {
        let (alf, table) = symgs_fixture();
        let mut entries = table.entries().to_vec();
        entries[0].inx_in = alf.padded_dim() + alf.omega(); // aligned but out of range
        let doctored = ConfigTable::from_entries(entries, table.entry_bits());
        let diags = verify_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
        assert!(diags
            .iter()
            .any(|d| d.code == "AL102" && d.severity == Severity::Error));
    }

    #[test]
    fn al103_and_al203_flag_a_mid_row_path_flip() {
        let (alf, table) = symgs_fixture();
        let mut entries = table.entries().to_vec();
        // Turn the first GEMV entry into a D-SymGS mid-row.
        let gemv = entries
            .iter()
            .position(|e| e.data_path == DataPath::Gemv)
            .expect("has gemv entries");
        entries[gemv] = ConfigEntry {
            data_path: DataPath::DSymGs,
            ..entries[gemv]
        };
        let doctored = ConfigTable::from_entries(entries, table.entry_bits());
        let diags = verify_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
        assert!(diags.iter().any(|d| d.code == "AL103"));
        assert!(diags.iter().any(|d| d.code == "AL203"));
    }

    #[test]
    fn al203_warns_when_reprogram_outruns_the_drain() {
        let (alf, table) = symgs_fixture();
        let mut slow = SimConfig::paper();
        slow.cache_latency = 50; // reprogram takes longer than any drain
        let diags = verify_table(KernelType::SymGs, &table, &alf, &slow);
        assert!(diags
            .iter()
            .any(|d| d.code == "AL203" && d.severity == Severity::Warning));
    }

    #[test]
    fn al202_warns_on_link_stack_pressure() {
        // scattered rows touch many distinct block columns, so one block
        // row's GEMV intermediates overflow the 128-entry LIFO.
        let coo = gen::ScienceClass::Economics.generate(400, 11);
        let (alf, _) = convert(KernelType::SymGs, &coo, 8).expect("convert");
        let peak = alf.omega() * alf.max_off_diagonal_blocks_per_row();
        let cfg = SimConfig::paper();
        let diags = verify_alf(&alf, &cfg);
        assert_eq!(
            diags.iter().any(|d| d.code == "AL202"),
            peak > cfg.link_stack_capacity(),
            "AL202 fires exactly when the static peak {peak} exceeds {}",
            cfg.link_stack_capacity()
        );
    }

    #[test]
    fn al3xx_resource_rules_fire_on_mismatch_and_padding() {
        let coo = gen::stencil27(3); // n = 27
        let (alf, _) = convert(KernelType::SymGs, &coo, 8).expect("convert");
        let diags = verify_alf(&alf, &SimConfig::paper().with_omega(4));
        assert!(diags
            .iter()
            .any(|d| d.code == "AL302" && d.severity == Severity::Error));
        assert!(diags
            .iter()
            .any(|d| d.code == "AL303" && d.severity == Severity::Warning));
    }

    #[test]
    fn streaming_layout_skips_symgs_only_rules() {
        let coo = gen::stencil27(4);
        let (alf, table) = convert(KernelType::SpMv, &coo, 8).expect("convert");
        let cfg = SimConfig::paper();
        let diags = verify_alf(&alf, &cfg);
        assert!(diags.iter().all(|d| d.code != "AL201" && d.code != "AL202"));
        let tdiags = verify_table(KernelType::SpMv, &table, &alf, &cfg);
        assert!(tdiags.iter().all(|d| d.severity != Severity::Error));
    }
}
