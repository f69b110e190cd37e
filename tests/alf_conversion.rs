//! Differential tier for Algorithm-1 conversion: `Alf::from_coo` writes
//! straight into the block arena, and this binary checks it bit for bit
//! against an oracle that lives only here — the blocked-CSR route
//! (`Bcsr` → `AlfBuilder`) the converter used to take.
//!
//! Inputs cover rectangular shapes, every ω in 1..=12 (most of which do not
//! divide the dimension), duplicate coordinates, explicit `0.0` and `-0.0`,
//! empty block rows and SymGS matrices with a missing diagonal. Headers,
//! payload bits, diagonal bits, the stored non-zero count and error values
//! must all agree.

use proptest::prelude::*;

use alrescha::convert::{convert, KernelType};
use alrescha::ProgramBinary;
use alrescha_asm::container::{read_container, write_container};
use alrescha_asm::AssembledProgram;
use alrescha_sparse::alf::AlfLayout;
use alrescha_sparse::gen::{self, ScienceClass};
use alrescha_sparse::{Alf, AlfBuilder, Bcsr, BlockKind, Coo, DenseMatrix, Error, MetaData};

/// The conversion as it was built over blocked CSR: bucket the COO into
/// dense ω×ω blocks, then copy each block row into the stream with the
/// off-diagonal blocks first, upper-triangle and diagonal rows reversed
/// and the diagonal extracted under SymGS.
fn oracle(coo: &Coo, omega: usize, layout: AlfLayout) -> Result<Alf, Error> {
    let bcsr = Bcsr::from_coo(coo, omega)?;
    let symgs = layout == AlfLayout::SymGs;
    let mut builder = AlfBuilder::new(coo.rows(), coo.cols(), omega, layout);
    let mut diagonal = vec![0.0; coo.rows().min(coo.cols())];
    let mut push = |br: usize, bc: usize, block: &DenseMatrix, diag: bool| {
        let reversed = symgs && (bc > br || diag);
        let mut payload = vec![0.0; omega * omega];
        for i in 0..omega {
            for j in 0..omega {
                let mut v = block[(i, j)];
                if diag && i == j {
                    if let Some(d) = diagonal.get_mut(br * omega + i) {
                        *d = v;
                    }
                    v = 0.0;
                }
                let jj = if reversed { omega - 1 - j } else { j };
                payload[i * omega + jj] = v;
            }
        }
        let kind = if diag {
            BlockKind::Diagonal
        } else {
            BlockKind::OffDiagonal
        };
        builder
            .push_block(br, bc, kind, &payload, reversed)
            .expect("ω² payload");
    };
    for br in 0..bcsr.block_rows() {
        let mut diag_block = None;
        for (bc, block) in bcsr.block_row(br) {
            if symgs && bc == br {
                diag_block = Some(block);
            } else {
                push(br, bc, block, false);
            }
        }
        if let Some(block) = diag_block {
            push(br, br, block, true);
        }
    }
    if symgs && coo.rows() == coo.cols() {
        if let Some(row) = diagonal.iter().position(|&d| d == 0.0) {
            return Err(Error::MissingDiagonal { row });
        }
    }
    if !symgs {
        diagonal.clear();
    }
    builder.finish(diagonal)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts two conversions are identical down to the bit pattern of every
/// payload and diagonal value (`==` on `f64` would equate `0.0` and
/// `-0.0`).
fn assert_same(got: &Alf, want: &Alf, what: &str) {
    assert_eq!(
        (got.rows(), got.cols(), got.omega(), got.layout()),
        (want.rows(), want.cols(), want.omega(), want.layout()),
        "{what}: geometry"
    );
    assert_eq!(got.num_blocks(), want.num_blocks(), "{what}: block count");
    for (k, (g, w)) in got.blocks().iter().zip(want.blocks()).enumerate() {
        assert_eq!(
            (g.block_row(), g.block_col(), g.kind(), g.reversed()),
            (w.block_row(), w.block_col(), w.kind(), w.reversed()),
            "{what}: header of block {k}"
        );
        assert_eq!(
            bits(g.payload()),
            bits(w.payload()),
            "{what}: payload of block {k}"
        );
    }
    assert_eq!(
        bits(got.diagonal()),
        bits(want.diagonal()),
        "{what}: diagonal"
    );
    assert_eq!(got.nnz(), want.nnz(), "{what}: nnz");
}

/// Checks `from_coo` against the oracle in `layout`: equal conversions or
/// equal errors.
fn check(coo: &Coo, omega: usize, layout: AlfLayout) {
    let what = format!("{}x{} ω={omega} {layout:?}", coo.rows(), coo.cols());
    match (
        Alf::from_coo(coo, omega, layout),
        oracle(coo, omega, layout),
    ) {
        (Ok(got), Ok(want)) => assert_same(&got, &want, &what),
        (got, want) => assert_eq!(got.err(), want.err(), "{what}: outcome"),
    }
}

/// Values that stress summation order and signed zeros: explicit `0.0`
/// and `-0.0`, a pair that cancels, and non-dyadic magnitudes whose sums
/// round differently when reassociated.
fn value(pick: i32) -> f64 {
    match pick {
        0 => 0.0,
        1 => -0.0,
        2 => 0.1,
        3 => -0.1,
        p => f64::from(p) * 0.37 - 1.3,
    }
}

/// A rectangular COO up to 29×29 whose coordinates come from a narrow
/// window, so duplicates, empty block rows and empty block columns are all
/// common.
fn arb_coo() -> impl Strategy<Value = Coo> {
    (1usize..30, 1usize..30, 1usize..30).prop_flat_map(|(rows, cols, window)| {
        let entry = (0..rows.min(window), 0..cols, 0i32..12);
        proptest::collection::vec(entry, 0..80).prop_map(move |entries| {
            let mut coo = Coo::new(rows, cols);
            for (r, c, v) in entries {
                // Spread the rows over the whole height, leaving gaps.
                coo.push((r * 7) % rows, c, value(v));
            }
            coo
        })
    })
}

/// A square COO whose diagonal is present except, sometimes, at `gap`,
/// plus duplicated off-diagonal entries (and duplicated diagonals that may
/// cancel to zero).
fn arb_square_coo() -> impl Strategy<Value = Coo> {
    (1usize..30, 0usize..60).prop_flat_map(|(n, gap)| {
        let entry = (0..n, 0..n, 0i32..12);
        proptest::collection::vec(entry, 0..60).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for i in (0..n).filter(|&i| i != gap) {
                coo.push(i, i, 4.0 + i as f64);
            }
            for (r, c, v) in entries {
                coo.push(r, c, value(v));
                if (r + c) % 3 == 0 {
                    coo.push(r, c, value(v));
                }
            }
            coo
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streaming_matches_the_bcsr_oracle(coo in arb_coo(), omega in 1usize..=12) {
        check(&coo, omega, AlfLayout::Streaming);
    }

    #[test]
    fn symgs_matches_the_bcsr_oracle_on_rectangles(coo in arb_coo(), omega in 1usize..=12) {
        check(&coo, omega, AlfLayout::SymGs);
    }

    #[test]
    fn symgs_matches_the_bcsr_oracle_with_gapped_diagonals(
        coo in arb_square_coo(),
        omega in 1usize..=12,
    ) {
        check(&coo, omega, AlfLayout::SymGs);
        check(&coo, omega, AlfLayout::Streaming);
    }

    #[test]
    fn compressing_first_changes_no_bit(
        coo in arb_square_coo(),
        omega in 1usize..=12,
        symgs in 0usize..2,
    ) {
        let layout = [AlfLayout::Streaming, AlfLayout::SymGs][symgs];
        let what = format!("{}x{} ω={omega} {layout:?}", coo.rows(), coo.cols());
        let direct = Alf::from_coo(&coo, omega, layout);
        let compressed = Alf::from_coo(&coo.clone().compress(), omega, layout);
        match (direct, compressed) {
            (Ok(got), Ok(want)) => assert_same(&got, &want, &what),
            (got, want) => prop_assert_eq!(got.err(), want.err(), "{}", what),
        }
    }
}

#[test]
fn zero_block_width_is_refused_like_the_oracle() {
    let coo = gen::stencil27(2);
    for layout in [AlfLayout::Streaming, AlfLayout::SymGs] {
        check(&coo, 0, layout);
        assert_eq!(
            Alf::from_coo(&coo, 0, layout).err(),
            Some(Error::InvalidBlockWidth { omega: 0 })
        );
    }
}

/// The generated suites the engine and the figures run on, in both
/// layouts and at block widths that do and do not divide the dimension.
#[test]
fn generated_suites_match_the_bcsr_oracle() {
    let mut suite = vec![
        ("stencil27", gen::stencil27(6)),
        ("power_law^T", gen::power_law(300, 8, 0.9, 7).transpose()),
    ];
    for class in ScienceClass::ALL {
        suite.push((class.name(), class.generate(500, 11)));
    }
    for (name, coo) in &suite {
        for omega in [3, 8] {
            for layout in [AlfLayout::Streaming, AlfLayout::SymGs] {
                // The graph has no diagonal, so SymGS refuses it on both paths.
                let symgs_ok = *name != "power_law^T";
                assert_eq!(
                    Alf::from_coo(coo, omega, layout).is_ok(),
                    layout == AlfLayout::Streaming || symgs_ok,
                    "{name} ω={omega} {layout:?}"
                );
                check(coo, omega, layout);
            }
        }
    }
}

/// A 4×4 diagonal plus an explicit zero at (0, 3) and a duplicate pair at
/// (1, 2) that cancels: the conversion stores four non-zero values, and
/// its ALPR round trip is equal to it in both layouts.
#[test]
fn converted_nnz_survives_the_container_round_trip() {
    let mut coo = Coo::new(4, 4);
    for i in 0..4 {
        coo.push(i, i, 2.0);
    }
    coo.push(0, 3, 0.0);
    coo.push(1, 2, 1.0);
    coo.push(1, 2, -1.0);
    for kernel in [KernelType::SpMv, KernelType::SymGs] {
        let (alf, table) = convert(kernel, &coo, 2).expect("convert");
        assert_eq!(alf.nnz(), 4, "{kernel:?}");
        let program = AssembledProgram {
            kernel,
            binary: ProgramBinary::encode(kernel, &table, 4, 2),
            table,
            alf,
        };
        let decoded = read_container(&write_container(&program)).expect("intact");
        assert_eq!(decoded.alf, program.alf, "{kernel:?}");
        assert_eq!(decoded.alf.nnz(), 4, "{kernel:?}");
    }
}
