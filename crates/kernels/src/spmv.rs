//! Sparse matrix–vector multiplication (SpMV), Equation 1 of the paper.

use alrescha_sparse::Csr;

use crate::{check_len, Result};

/// Computes `y = A * x` for a CSR matrix.
///
/// This is the parallel-friendly kernel of the paper: every output element
/// is an independent dot product of a matrix row with `x` (Equation 1 /
/// Figure 4a).
///
/// # Panics
///
/// Panics if `x.len() != a.cols()`. Use [`try_spmv`] for a fallible variant.
///
/// # Example
///
/// ```
/// use alrescha_kernels::spmv::spmv;
/// use alrescha_sparse::{Coo, Csr};
///
/// let mut coo = Coo::new(2, 2);
/// coo.push(0, 0, 2.0);
/// coo.push(1, 0, 1.0);
/// let a = Csr::from_coo(&coo);
/// assert_eq!(spmv(&a, &[3.0, 0.0]), vec![6.0, 3.0]);
/// ```
pub fn spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
    match try_spmv(a, x) {
        Ok(y) => y,
        Err(e) => panic!("spmv: {e}"),
    }
}

/// Fallible [`spmv`].
///
/// # Errors
///
/// Returns [`crate::KernelError::DimensionMismatch`] if `x.len() != a.cols()`.
pub fn try_spmv(a: &Csr, x: &[f64]) -> Result<Vec<f64>> {
    check_len(a.cols(), x.len())?;
    Ok((0..a.rows())
        .map(|r| a.row_entries(r).map(|(c, v)| v * x[c]).sum())
        .collect())
}

/// `y += alpha * x` (the AXPY helper PCG needs between device kernels).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy operand length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::{gen, Coo, DenseMatrix};

    #[test]
    fn matches_dense_oracle() {
        let coo = gen::scattered(60, 5, 3);
        let a = Csr::from_coo(&coo);
        let dense = DenseMatrix::from_coo(&coo);
        let x: Vec<f64> = (0..60).map(|i| (f64::from(i) * 0.37).sin()).collect();
        let sparse_y = spmv(&a, &x);
        let dense_y = dense.matvec(&x);
        assert!(alrescha_sparse::approx_eq(&sparse_y, &dense_y, 1e-12));
    }

    #[test]
    fn rejects_wrong_length() {
        let a = Csr::from_coo(&Coo::new(3, 3));
        assert!(try_spmv(&a, &[1.0]).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
    }

    #[test]
    fn empty_matrix_gives_zero_vector() {
        let a = Csr::from_coo(&Coo::new(4, 4));
        assert_eq!(spmv(&a, &[1.0; 4]), vec![0.0; 4]);
    }
}
