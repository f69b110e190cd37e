//! SOR/SSOR smoothers.
//!
//! SOR generalizes Gauss-Seidel with a relaxation factor; SSOR is its
//! symmetric (forward+backward) version, reducing to SymGS at
//! `omega_relax = 1`. The host PCG uses SSOR as a preconditioner, and the
//! engine's SOR kernels are checked against these sweeps.

use alrescha_sparse::Csr;

use crate::{check_len, Result};

/// One forward SOR sweep with relaxation factor `omega_relax`:
/// `x[j] ← (1 − ω)·x[j] + ω·(b[j] − Σ_{i≠j} A[j][i]·x[i]) / A[j][j]`,
/// rows ascending (Gauss-Seidel operand pattern).
///
/// `omega_relax = 1` reduces to the Gauss-Seidel forward sweep.
///
/// # Errors
///
/// * [`crate::KernelError::DimensionMismatch`] on operand length mismatch,
///   or if `omega_relax` is outside `(0, 2)` (SOR diverges outside that
///   interval for SPD systems).
/// * [`crate::KernelError::Structure`] on a structurally zero diagonal.
pub fn sor_forward(a: &Csr, b: &[f64], x: &mut [f64], omega_relax: f64) -> Result<()> {
    validate_relaxation(omega_relax)?;
    check_len(a.rows(), b.len())?;
    check_len(a.cols(), x.len())?;
    a.require_nonzero_diagonal()?;
    for j in 0..a.rows() {
        sor_update(a, b, x, omega_relax, j);
    }
    Ok(())
}

/// One backward SOR sweep (rows descending).
///
/// # Errors
///
/// Same conditions as [`sor_forward`].
pub fn sor_backward(a: &Csr, b: &[f64], x: &mut [f64], omega_relax: f64) -> Result<()> {
    validate_relaxation(omega_relax)?;
    check_len(a.rows(), b.len())?;
    check_len(a.cols(), x.len())?;
    a.require_nonzero_diagonal()?;
    for j in (0..a.rows()).rev() {
        sor_update(a, b, x, omega_relax, j);
    }
    Ok(())
}

/// One symmetric SOR (SSOR) application: forward then backward sweep.
/// Reduces to [`crate::symgs::symgs`] at `omega_relax = 1`.
///
/// # Errors
///
/// Same conditions as [`sor_forward`].
pub fn ssor(a: &Csr, b: &[f64], x: &mut [f64], omega_relax: f64) -> Result<()> {
    sor_forward(a, b, x, omega_relax)?;
    sor_backward(a, b, x, omega_relax)
}

fn sor_update(a: &Csr, b: &[f64], x: &mut [f64], omega_relax: f64, j: usize) {
    let mut sum = b[j];
    let mut diag = 0.0;
    for (i, v) in a.row_entries(j) {
        if i == j {
            diag = v;
        } else {
            sum -= v * x[i];
        }
    }
    x[j] = (1.0 - omega_relax) * x[j] + omega_relax * sum / diag;
}

fn validate_relaxation(omega_relax: f64) -> Result<()> {
    if omega_relax > 0.0 && omega_relax < 2.0 {
        Ok(())
    } else {
        Err(crate::KernelError::DimensionMismatch {
            expected: 1,
            found: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spmv::spmv, symgs};
    use alrescha_sparse::gen;

    fn system() -> (Csr, Vec<f64>) {
        let a = Csr::from_coo(&gen::stencil27(3));
        let x_true: Vec<f64> = (0..a.rows()).map(|i| ((i % 4) as f64) - 1.5).collect();
        let b = spmv(&a, &x_true);
        (a, b)
    }

    #[test]
    fn ssor_at_unit_relaxation_equals_symgs() {
        let (a, b) = system();
        let mut x_ssor = vec![0.0; a.cols()];
        ssor(&a, &b, &mut x_ssor, 1.0).unwrap();
        let mut x_symgs = vec![0.0; a.cols()];
        symgs::symgs(&a, &b, &mut x_symgs).unwrap();
        assert!(alrescha_sparse::approx_eq(&x_ssor, &x_symgs, 1e-14));
    }

    /// SSOR sweeps from zero until the residual drops below `1e-8·‖b‖`:
    /// `(iterations, converged)`.
    fn ssor_iterations(a: &Csr, b: &[f64], omega_relax: f64) -> (usize, bool) {
        let target = 1e-8 * crate::norm2(b);
        let mut x = vec![0.0; a.cols()];
        for k in 1..=2000 {
            ssor(a, b, &mut x, omega_relax).unwrap();
            if crate::norm2(&symgs::residual(a, b, &x)) <= target {
                return (k, true);
            }
        }
        (2000, false)
    }

    #[test]
    fn over_relaxation_can_accelerate() {
        let (a, b) = system();
        let (plain, _) = ssor_iterations(&a, &b, 1.0);
        let (relaxed, converged) = ssor_iterations(&a, &b, 1.2);
        assert!(converged);
        assert!(relaxed <= plain + 2, "relaxed {relaxed} plain {plain}");
    }

    #[test]
    fn invalid_relaxation_rejected() {
        let (a, b) = system();
        let mut x = vec![0.0; a.cols()];
        assert!(sor_forward(&a, &b, &mut x, 0.0).is_err());
        assert!(sor_forward(&a, &b, &mut x, 2.0).is_err());
        assert!(sor_forward(&a, &b, &mut x, -0.5).is_err());
    }
}
