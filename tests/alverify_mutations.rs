//! Mutation corpus for the static verifier: each deliberately broken
//! artifact must map to its documented diagnostic code, and pristine
//! conversions must verify clean across block widths.

use alrescha::convert::{convert, ConfigTable, KernelType};
use alrescha::program::ProgramBinary;
use alrescha_lint::{analyze_table, verify, verify_alf, verify_table, Severity};
use alrescha_sim::SimConfig;
use alrescha_sparse::gen;
use alrescha_sparse::{Alf, BlockKind};

use proptest::prelude::*;

fn symgs_alf(omega: usize) -> (Alf, ConfigTable) {
    let coo = gen::stencil27(4); // n = 64, a multiple of every tested ω
    convert(KernelType::SymGs, &coo, omega).expect("convert")
}

fn codes(diags: &[alrescha_lint::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

/// Swapping an off-diagonal block behind its row's diagonal breaks the
/// "GEMVs before D-SymGS" stream contract.
#[test]
fn swapped_block_order_yields_al001() {
    let (mut alf, _) = symgs_alf(8);
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
    assert!(
        codes(&diags).contains(&"AL001"),
        "expected AL001, got {:?}",
        codes(&diags)
    );
}

/// Clearing the reversal flag on an upper-triangle block breaks the
/// right-to-left streaming the backward sweep depends on.
#[test]
fn un_reversed_upper_triangle_yields_al002() {
    let (mut alf, _) = symgs_alf(8);
    let upper = alf
        .blocks()
        .iter()
        .position(|b| b.block_col() > b.block_row())
        .expect("stencil has upper-triangle blocks");
    alf.set_reversed_unchecked(upper, false);
    let diags = verify_alf(&alf, &SimConfig::paper());
    assert!(
        codes(&diags).contains(&"AL002"),
        "expected AL002, got {:?}",
        codes(&diags)
    );
}

/// An Inx_in beyond the padded dimension would address memory outside the
/// streamed vectors.
#[test]
fn out_of_range_config_index_yields_al102() {
    let (alf, table) = symgs_alf(8);
    let mut entries = table.entries().to_vec();
    entries[0].inx_in = alf.padded_dim() + alf.omega();
    let doctored = ConfigTable::from_entries(entries, table.entry_bits());
    let diags = verify_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
    assert!(
        diags
            .iter()
            .any(|d| d.code == "AL102" && d.severity == Severity::Error),
        "expected AL102 error, got {:?}",
        codes(&diags)
    );
}

/// A truncated packed payload cannot hold the declared entry count.
#[test]
fn truncated_binary_yields_al101() {
    let (alf, table) = symgs_alf(8);
    let n = alf.rows().max(alf.cols());
    let binary = ProgramBinary::encode(KernelType::SymGs, &table, n, 8);
    let truncated = ProgramBinary::from_raw_parts(
        KernelType::SymGs,
        n,
        8,
        binary.entry_count(),
        binary.as_bytes()[..binary.len_bytes() / 2].to_vec(),
    );
    let diags = verify(&truncated, &alf, &SimConfig::paper());
    assert!(
        diags
            .iter()
            .any(|d| d.code == "AL101" && d.severity == Severity::Error),
        "expected AL101 error, got {:?}",
        codes(&diags)
    );
}

/// A header whose dimensions disagree with the matrix it claims to program.
#[test]
fn header_mismatch_yields_al104() {
    let (alf, table) = symgs_alf(8);
    let n = alf.rows().max(alf.cols());
    let binary = ProgramBinary::encode(KernelType::SymGs, &table, n, 8);
    let forged = ProgramBinary::from_raw_parts(
        KernelType::SymGs,
        n * 2, // wrong dimension
        8,
        binary.entry_count(),
        binary.as_bytes().to_vec(),
    );
    let diags = verify(&forged, &alf, &SimConfig::paper());
    assert!(
        diags
            .iter()
            .any(|d| d.code == "AL104" && d.severity == Severity::Error),
        "expected AL104 error, got {:?}",
        codes(&diags)
    );
}

/// Flipping a GEMV entry to D-SymGS mid-row is both a kernel/data-path
/// disagreement and an illegal reconfiguration point.
#[test]
fn mid_row_path_flip_yields_al103_and_al203() {
    let (alf, table) = symgs_alf(8);
    let mut entries = table.entries().to_vec();
    let gemv = entries
        .iter()
        .position(|e| e.data_path == alrescha::convert::DataPath::Gemv)
        .expect("table has GEMV entries");
    entries[gemv].data_path = alrescha::convert::DataPath::DSymGs;
    let doctored = ConfigTable::from_entries(entries, table.entry_bits());
    let diags = verify_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
    let found = codes(&diags);
    assert!(found.contains(&"AL103"), "expected AL103, got {found:?}");
    assert!(found.contains(&"AL203"), "expected AL203, got {found:?}");
}

/// AL4xx mutant: a schedule whose densest block row provably overflows
/// the link stack — ~100 scattered off-diagonals per row at ω = 8 prove a
/// 248-entry peak against the 128-entry LIFO.
#[test]
fn overdeep_stack_schedule_yields_al401() {
    let coo = gen::scattered(256, 100, 5);
    let cfg = SimConfig::paper();
    let (alf, table) = convert(KernelType::SymGs, &coo, cfg.omega).expect("convert");
    let analysis = analyze_table(KernelType::SymGs, &table, &alf, &cfg);
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.code == "AL401" && d.severity == Severity::Error),
        "expected AL401 error, got {:?}",
        codes(&analysis.diagnostics)
    );
    assert!(!analysis.is_admissible());
}

/// AL4xx mutant: swapping two D-SymGS entries breaks the sweep's
/// ascending dependency order — the second of the pair now reads an
/// iterate no earlier entry has produced.
#[test]
fn illegal_sweep_order_yields_al403() {
    let (alf, table) = symgs_alf(8);
    let mut entries = table.entries().to_vec();
    let diag_idx: Vec<usize> = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| e.data_path == alrescha::convert::DataPath::DSymGs)
        .map(|(i, _)| i)
        .collect();
    entries.swap(diag_idx[0], diag_idx[2]);
    let doctored = ConfigTable::from_entries(entries, table.entry_bits());
    let analysis = analyze_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.code == "AL403" && d.severity == Severity::Error),
        "expected AL403 error, got {:?}",
        codes(&analysis.diagnostics)
    );
    assert!(!analysis.is_admissible());
}

/// AL4xx mutant: duplicating a row's D-SymGS entry leaves a dead config
/// entry the engine can never use (it keeps only the last recurrence).
#[test]
fn dead_config_entry_yields_al405() {
    let (alf, table) = symgs_alf(8);
    let mut entries = table.entries().to_vec();
    let first_diag = entries
        .iter()
        .position(|e| e.data_path == alrescha::convert::DataPath::DSymGs)
        .expect("has dsymgs");
    let last = entries.len() - 1;
    entries[last] = entries[first_diag];
    let doctored = ConfigTable::from_entries(entries, table.entry_bits());
    let analysis = analyze_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
    assert!(
        analysis
            .diagnostics
            .iter()
            .any(|d| d.code == "AL405" && d.severity == Severity::Warning),
        "expected AL405 warning, got {:?}",
        codes(&analysis.diagnostics)
    );
    assert_eq!(analysis.dead_entries, vec![last]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pristine conversions verify with zero error diagnostics at every
    /// supported block width, for both layouts.
    #[test]
    fn pristine_conversions_verify_clean(
        side in 2usize..5,
        omega_idx in 0usize..3,
        kernel_idx in 0usize..2,
    ) {
        let omega = [2usize, 4, 8][omega_idx];
        let kernel = [KernelType::SymGs, KernelType::SpMv][kernel_idx];
        let coo = gen::stencil27(side);
        let (alf, table) = convert(kernel, &coo, omega).expect("convert");
        let n = coo.rows().max(coo.cols());
        let program = ProgramBinary::encode(kernel, &table, n, omega);
        let config = SimConfig::paper().with_omega(omega);
        let diags = verify(&program, &alf, &config);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert!(
            errors.is_empty(),
            "clean conversion produced errors: {errors:?}"
        );
    }
}
