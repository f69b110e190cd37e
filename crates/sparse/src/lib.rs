//! Sparse-matrix substrate for the ALRESCHA reproduction.
//!
//! This crate provides the storage formats the evaluation compares (Figure 12
//! and Table 2), the ALRESCHA locally-dense format itself (§4.5), synthetic
//! dataset generators standing in for the SuiteSparse/SNAP matrices of
//! Figure 14 and Table 3, Matrix Market I/O, and structure statistics used by
//! the evaluation.
//!
//! # Formats
//!
//! * [`Coo`] — triplet builder format.
//! * [`Csr`] — compressed sparse row.
//! * [`Dia`] — diagonal storage.
//! * [`Ell`] — ELLPACK-ITPACK.
//! * [`Bcsr`] — blocked CSR.
//! * [`alf::Alf`] — the paper's locally-dense streaming format.
//!
//! Every compressed format converts losslessly to and from [`Coo`], and every
//! format reports its meta-data overhead via the [`MetaData`] trait so the
//! Figure 12 spectrum can be regenerated.
//!
//! # Example
//!
//! ```
//! use alrescha_sparse::{Coo, Csr, MetaData};
//!
//! let mut coo = Coo::new(3, 3);
//! coo.push(0, 0, 2.0);
//! coo.push(1, 1, 3.0);
//! coo.push(2, 0, -1.0);
//! let csr = Csr::from_coo(&coo);
//! assert_eq!(csr.nnz(), 3);
//! assert!(csr.meta_bytes() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alf;
pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod dia;
pub mod ell;
pub mod error;
pub mod gen;
pub mod mm;
pub mod ops;
pub mod reorder;
pub mod stats;

pub use alf::{Alf, AlfBlock, AlfBuilder, BlockKind};
pub use bcsr::Bcsr;
pub use coo::Coo;
pub use csr::Csr;
pub use dense::DenseMatrix;
pub use dia::Dia;
pub use ell::Ell;
pub use error::{Error, Result};

/// Meta-data accounting shared by all storage formats.
///
/// The paper's Figure 12 ranks formats by *meta-data per non-zero value*;
/// implementing this trait lets a format participate in that comparison.
/// "Meta-data" is every byte that is not a payload value: indices, pointers,
/// padding markers, and block descriptors.
pub trait MetaData {
    /// Total bytes of index/pointer/descriptor storage (excluding payload values).
    fn meta_bytes(&self) -> usize;

    /// Total bytes of payload storage, including any explicit zero padding
    /// the format must materialize (ELL rows, dense blocks, …).
    fn payload_bytes(&self) -> usize;

    /// Number of mathematically non-zero values represented.
    fn nnz(&self) -> usize;

    /// Meta-data bytes per non-zero value — the Figure 12 metric.
    ///
    /// Returns 0.0 for an empty matrix.
    fn meta_bytes_per_nnz(&self) -> f64 {
        if self.nnz() == 0 {
            0.0
        } else {
            self.meta_bytes() as f64 / self.nnz() as f64
        }
    }
}

/// Checks two floating-point slices for approximate equality.
///
/// Used throughout the test suites to compare simulator output against
/// reference kernels; sparse computations reassociate sums, so exact
/// equality cannot be expected.
pub fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= tol * scale
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_accepts_exact() {
        assert!(approx_eq(&[1.0, 2.0], &[1.0, 2.0], 1e-12));
    }

    #[test]
    fn approx_eq_rejects_length_mismatch() {
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1e-12));
    }

    #[test]
    fn approx_eq_scales_tolerance() {
        // 1e9 vs 1e9 + 1 differs by 1 absolute but only 1e-9 relative.
        assert!(approx_eq(&[1.0e9], &[1.0e9 + 1.0], 1e-8));
        assert!(!approx_eq(&[1.0e9], &[1.0e9 + 1.0], 1e-10));
    }

    #[test]
    fn approx_eq_rejects_clear_mismatch() {
        assert!(!approx_eq(&[1.0], &[2.0], 1e-6));
    }
}
