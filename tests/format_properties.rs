//! Property-based tests on the storage formats: every conversion is
//! lossless, the ALRESCHA format preserves the matrix under its reordering,
//! and the meta-data accounting obeys its documented bounds.

use proptest::prelude::*;

use alrescha_sparse::alf::{config_entry_bits, AlfLayout};
use alrescha_sparse::{Alf, Bcsr, Coo, Csr, Dia, Ell, MetaData};

/// Strategy: a random sparse matrix up to 24x24 with up to 60 entries.
fn arb_coo() -> impl Strategy<Value = Coo> {
    (1usize..24, 1usize..24).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -100i32..100);
        proptest::collection::vec(entry, 0..60).prop_map(move |entries| {
            let mut coo = Coo::new(rows, cols);
            for (r, c, v) in entries {
                // Strictly positive values: duplicate coordinates then sum
                // to a non-zero, so compression and the formats (which drop
                // exact zeros by design) stay in agreement.
                coo.push(r, c, f64::from(v.abs()) + 0.5);
            }
            coo.compress()
        })
    })
}

/// Strategy: a square matrix with a guaranteed non-zero diagonal (SymGS-able).
fn arb_square_coo() -> impl Strategy<Value = Coo> {
    (2usize..20).prop_flat_map(|n| {
        let entry = (0..n, 0..n, -100i32..100);
        proptest::collection::vec(entry, 0..50).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            for i in 0..n {
                coo.push(i, i, 4.0 + i as f64);
            }
            for (r, c, v) in entries {
                if r != c {
                    coo.push(r, c, f64::from(v.abs()) + 0.5);
                }
            }
            coo.compress()
        })
    })
}

proptest! {
    #[test]
    fn csr_round_trips(coo in arb_coo()) {
        let back = Csr::from_coo(&coo).to_coo().compress();
        prop_assert_eq!(back, coo);
    }

    #[test]
    fn dia_round_trips(coo in arb_coo()) {
        let back = Dia::from_coo(&coo).to_coo().compress();
        prop_assert_eq!(back, coo);
    }

    #[test]
    fn ell_round_trips(coo in arb_coo()) {
        let back = Ell::from_coo(&coo).to_coo().compress();
        prop_assert_eq!(back, coo);
    }

    #[test]
    fn bcsr_round_trips_any_block_width(coo in arb_coo(), omega in 1usize..9) {
        let back = Bcsr::from_coo(&coo, omega).unwrap().to_coo().compress();
        prop_assert_eq!(back, coo);
    }

    #[test]
    fn alf_streaming_round_trips(coo in arb_coo(), omega in 1usize..9) {
        let back = Alf::from_coo(&coo, omega, AlfLayout::Streaming)
            .unwrap()
            .to_coo()
            .compress();
        prop_assert_eq!(back, coo);
    }

    #[test]
    fn alf_symgs_round_trips(coo in arb_square_coo(), omega in 1usize..9) {
        let back = Alf::from_coo(&coo, omega, AlfLayout::SymGs)
            .unwrap()
            .to_coo()
            .compress();
        prop_assert_eq!(back, coo);
    }

    #[test]
    fn alf_symgs_extracts_exactly_the_diagonal(coo in arb_square_coo(), omega in 1usize..9) {
        let alf = Alf::from_coo(&coo, omega, AlfLayout::SymGs).unwrap();
        let csr = Csr::from_coo(&coo);
        prop_assert_eq!(alf.diagonal().to_vec(), csr.diagonal());
        // And no diagonal value remains in any block payload.
        for block in alf.blocks() {
            if block.block_row() == block.block_col() {
                for i in 0..omega {
                    prop_assert_eq!(block.get(i, i), 0.0);
                }
            }
        }
    }

    #[test]
    fn alf_diagonal_block_closes_each_block_row(coo in arb_square_coo(), omega in 1usize..9) {
        let alf = Alf::from_coo(&coo, omega, AlfLayout::SymGs).unwrap();
        // Within each block row, the diagonal block (if present) is last.
        let mut last_row = None;
        for block in alf.blocks() {
            if Some(block.block_row()) == last_row {
                // Same block row: previous block must not have been diagonal.
            } else {
                last_row = Some(block.block_row());
            }
        }
        for (prev, next) in alf.blocks().iter().zip(alf.blocks().iter().skip(1)) {
            if prev.block_row() == next.block_row() {
                prop_assert_ne!(
                    prev.kind(),
                    alrescha_sparse::BlockKind::Diagonal,
                    "diagonal block must close its block row"
                );
            }
        }
    }

    #[test]
    fn meta_bytes_are_nonzero_for_nonempty(coo in arb_coo()) {
        prop_assume!(coo.nnz() > 0);
        for meta in [
            Csr::from_coo(&coo).meta_bytes(),
            Ell::from_coo(&coo).meta_bytes(),
            Bcsr::from_coo(&coo, 4).unwrap().meta_bytes(),
        ] {
            prop_assert!(meta > 0);
        }
    }

    #[test]
    fn config_entry_bits_is_monotone_in_n(omega in 1usize..16, n in 1usize..4096) {
        let bits_n = config_entry_bits(n, omega);
        let bits_2n = config_entry_bits(2 * n, omega);
        prop_assert!(bits_2n >= bits_n);
        prop_assert!(bits_n >= 3);
    }

    #[test]
    fn dense_matvec_equals_csr_spmv(coo in arb_coo()) {
        let csr = Csr::from_coo(&coo);
        let dense = alrescha_sparse::DenseMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.7).cos()).collect();
        let via_csr = alrescha_kernels::spmv::spmv(&csr, &x);
        let via_dense = dense.matvec(&x);
        prop_assert!(alrescha_sparse::approx_eq(&via_csr, &via_dense, 1e-10));
    }
}

/// Regression pins for the two shrunk cases committed in
/// `format_properties.proptest-regressions`.
///
/// **Root cause (both seeds):** an explicit *exact-zero* entry survives
/// [`Coo::compress`] (which only merges duplicate coordinates) but is
/// dropped by the dense-block formats — DIA, BCSR, and ALF treat `0.0` as
/// structural absence when they scan for occupied blocks/diagonals — while
/// CSR and ELL faithfully store whatever entries exist. The round-trip
/// properties `X::from_coo(coo).to_coo().compress() == coo` therefore
/// failed whenever the generator emitted a `0.0` value. The generators were
/// fixed to emit `|v| + 0.5` (strictly non-zero) — see [`arb_coo`] — and
/// these tests pin the shrunk inputs deterministically so the asymmetry
/// stays documented behaviour rather than a latent trap.
mod regression_seeds {
    use super::*;

    /// Shrunk case 1: `Coo { rows: 2, cols: 3, entries: [(1, 2, 0.0)] }`,
    /// `omega = 3` (failed the DIA/BCSR/ALF round-trips).
    #[test]
    fn explicit_zero_entry_is_dropped_by_block_formats_only() {
        let mut coo = Coo::new(2, 3);
        coo.push(1, 2, 0.0);
        let coo = coo.compress();
        // compress() keeps the explicit zero: it is an entry, not a dup.
        assert_eq!(coo.entries(), &[(1, 2, 0.0)]);

        // Entry-list formats preserve it bit-for-bit…
        assert_eq!(Csr::from_coo(&coo).to_coo().compress(), coo);
        assert_eq!(Ell::from_coo(&coo).to_coo().compress(), coo);

        // …dense-block formats treat 0.0 as structurally absent.
        for (name, back) in [
            ("dia", Dia::from_coo(&coo).to_coo().compress()),
            (
                "bcsr",
                Bcsr::from_coo(&coo, 3).expect("ok").to_coo().compress(),
            ),
            (
                "alf",
                Alf::from_coo(&coo, 3, AlfLayout::Streaming)
                    .expect("ok")
                    .to_coo()
                    .compress(),
            ),
        ] {
            assert!(
                back.entries().is_empty(),
                "{name} must drop the explicit zero, kept {:?}",
                back.entries()
            );
        }
    }

    /// Shrunk case 2: a 3×3 system with an explicit zero *off-diagonal*
    /// `(1, 0, 0.0)`, `omega = 1` (failed the SymGS-layout ALF round-trip:
    /// the old square generator could emit zero off-diagonals).
    #[test]
    fn symgs_layout_drops_explicit_zero_off_diagonal() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 4.0);
        coo.push(1, 0, 0.0);
        coo.push(1, 1, 5.0);
        coo.push(2, 2, 6.0);
        let coo = coo.compress();

        let back = Alf::from_coo(&coo, 1, AlfLayout::SymGs)
            .expect("diagonal present")
            .to_coo()
            .compress();
        // Everything except the explicit zero survives the round trip.
        assert_eq!(back.entries(), &[(0, 0, 4.0), (1, 1, 5.0), (2, 2, 6.0)]);
        // The diagonal itself is untouched by the dropped entry.
        let alf = Alf::from_coo(&coo, 1, AlfLayout::SymGs).expect("ok");
        assert_eq!(alf.diagonal().to_vec(), vec![4.0, 5.0, 6.0]);
    }

    /// The fixed generators can no longer reach the failure: every emitted
    /// value is at least 0.5 in magnitude.
    #[test]
    fn generators_emit_no_exact_zeros() {
        // Deterministic spot-check across the value range the strategies
        // use: |v| + 0.5 is bounded away from zero for every i32 input.
        for v in -100i32..100 {
            assert!(f64::from(v.abs()) + 0.5 >= 0.5);
        }
    }
}

mod program_binary {
    use super::*;
    use alrescha::convert::{convert, KernelType};
    use alrescha::program::ProgramBinary;

    proptest! {
        #[test]
        fn program_binary_round_trips_for_any_matrix(
            coo in arb_square_coo(),
            omega_pow in 0usize..5,
            kernel_pick in 0usize..5,
        ) {
            let omega = 1usize << omega_pow;
            let kernel = [
                KernelType::SpMv,
                KernelType::SymGs,
                KernelType::Bfs,
                KernelType::Sssp,
                KernelType::PageRank,
            ][kernel_pick];
            let (_, table) = convert(kernel, &coo, omega).expect("diag present");
            let binary =
                ProgramBinary::encode(kernel, &table, coo.rows().max(coo.cols()), omega);
            let decoded = binary.decode().expect("well-formed");
            prop_assert_eq!(decoded.entries(), table.entries());
        }

        #[test]
        fn binary_size_obeys_the_bit_budget(coo in arb_square_coo(), omega_pow in 0usize..5) {
            let omega = 1usize << omega_pow;
            let (_, table) = convert(KernelType::SymGs, &coo, omega).expect("diag present");
            let n = coo.rows().max(coo.cols());
            let binary = ProgramBinary::encode(KernelType::SymGs, &table, n, omega);
            let expect_bits = table.entries().len()
                * alrescha_sparse::alf::config_entry_bits(n, omega);
            prop_assert_eq!(binary.len_bytes(), expect_bits.div_ceil(8));
        }
    }
}
