//! Preconditioned conjugate gradient (PCG), Figure 2 of the paper.
//!
//! PCG is the driver algorithm of the HPCG benchmark; each iteration is
//! dominated by one SpMV and one SymGS application (Figure 3), which is why
//! the paper accelerates exactly those two kernels.

use alrescha_sparse::Csr;

use crate::spmv::{axpy, spmv};
use crate::symgs;
use crate::{check_len, dot, norm2, KernelError, Result};

/// Preconditioner choice for [`pcg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preconditioner {
    /// `M = I` — plain conjugate gradient.
    Identity,
    /// One symmetric Gauss-Seidel application per iteration — the HPCG
    /// preconditioner and the configuration the paper evaluates.
    #[default]
    SymGs,
}

/// Options controlling a [`pcg`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct PcgOptions {
    /// Relative residual target: stop when `‖r‖ ≤ tol·‖b‖`.
    pub tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
    /// Preconditioner to apply.
    pub preconditioner: Preconditioner,
}

impl Default for PcgOptions {
    fn default() -> Self {
        PcgOptions {
            tol: 1e-10,
            max_iters: 1000,
            preconditioner: Preconditioner::SymGs,
        }
    }
}

/// Result of a [`pcg`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct PcgSolution {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm ‖b − Ax‖.
    pub residual: f64,
    /// Whether the relative-residual target was met.
    pub converged: bool,
    /// Residual-norm history, one entry per iteration (index 0 = initial).
    pub history: Vec<f64>,
}

/// Solves `A x = b` for a symmetric positive-definite `A` with
/// preconditioned conjugate gradient (the algorithm of the paper's Figure 2).
///
/// # Errors
///
/// * [`KernelError::DimensionMismatch`] if `b.len() != a.rows()` or `A` is
///   not square.
/// * [`KernelError::Structure`] if the SymGS preconditioner is selected and
///   a diagonal entry is missing.
///
/// The solver does not error on non-convergence; inspect
/// [`PcgSolution::converged`].
pub fn pcg(a: &Csr, b: &[f64], opts: &PcgOptions) -> Result<PcgSolution> {
    if opts.preconditioner == Preconditioner::SymGs {
        a.require_nonzero_diagonal()?;
    }
    let n = a.rows();
    let pre = opts.preconditioner;
    pcg_with(a, b, opts.tol, opts.max_iters, move |a, r| match pre {
        Preconditioner::Identity => Ok(r.to_vec()),
        Preconditioner::SymGs => {
            let mut z = vec![0.0; n];
            symgs::symgs(a, r, &mut z)?;
            Ok(z)
        }
    })
}

/// PCG with an arbitrary preconditioner application `M⁻¹ r` supplied as a
/// closure — the extension point for SSOR(ω), multigrid V-cycles, or
/// device-side preconditioners.
///
/// # Errors
///
/// Same conditions as [`pcg`] (the closure's errors propagate), plus
/// [`KernelError::NoConvergence`] when the iteration goes numerically bad:
/// a non-finite right-hand side, `pᵀAp` non-finite, or a residual that is
/// non-finite or has diverged eight orders of magnitude past its start.
pub fn pcg_with<F>(
    a: &Csr,
    b: &[f64],
    tol: f64,
    max_iters: usize,
    mut apply_m: F,
) -> Result<PcgSolution>
where
    F: FnMut(&Csr, &[f64]) -> Result<Vec<f64>>,
{
    check_len(a.rows(), a.cols())?;
    check_len(a.rows(), b.len())?;
    // r = b - A x0 = b for x0 = 0.
    let mut x = vec![0.0; a.rows()];
    let mut r = b.to_vec();

    let b_norm = norm2(b).max(f64::MIN_POSITIVE);
    let mut history = vec![norm2(&r)];
    let r0 = history[0];
    if !r0.is_finite() {
        // NaN/Inf in the right-hand side: no iteration can recover.
        return Err(KernelError::NoConvergence {
            iterations: 0,
            residual: r0,
        });
    }
    if history[0] <= tol * b_norm {
        return Ok(PcgSolution {
            x,
            iterations: 0,
            residual: history[0],
            converged: true,
            history,
        });
    }

    let mut z = apply_m(a, &r)?;
    let mut p = z.clone();
    let mut rz = dot(&r, &z);

    for k in 1..=max_iters {
        let ap = spmv(a, &p);
        let pap = dot(&p, &ap);
        if !pap.is_finite() || pap <= 0.0 {
            // Not SPD (or numerically broken down): report honestly.
            return Err(KernelError::NoConvergence {
                iterations: k,
                residual: norm2(&r),
            });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let r_norm = norm2(&r);
        history.push(r_norm);
        // Divergence guard: a residual blowing up 8 orders of magnitude past
        // its start (or going non-finite) will not come back.
        if !r_norm.is_finite() || r_norm > 1e8 * r0.max(b_norm) {
            return Err(KernelError::NoConvergence {
                iterations: k,
                residual: r_norm,
            });
        }
        if r_norm <= tol * b_norm {
            return Ok(PcgSolution {
                x,
                iterations: k,
                residual: r_norm,
                converged: true,
                history,
            });
        }
        z = apply_m(a, &r)?;
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }

    let residual = norm2(&r);
    Ok(PcgSolution {
        x,
        iterations: max_iters,
        residual,
        converged: false,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::gen;

    fn solve_class(coo: alrescha_sparse::Coo, pre: Preconditioner) -> (PcgSolution, Vec<f64>) {
        let a = Csr::from_coo(&coo);
        let x_true: Vec<f64> = (0..a.rows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = spmv(&a, &x_true);
        let opts = PcgOptions {
            preconditioner: pre,
            ..PcgOptions::default()
        };
        (pcg(&a, &b, &opts).unwrap(), x_true)
    }

    #[test]
    fn converges_with_identity_preconditioner() {
        let (sol, x_true) = solve_class(gen::stencil27(3), Preconditioner::Identity);
        assert!(sol.converged);
        assert!(alrescha_sparse::approx_eq(&sol.x, &x_true, 1e-6));
    }

    #[test]
    fn converges_with_symgs_preconditioner() {
        let (sol, x_true) = solve_class(gen::stencil27(3), Preconditioner::SymGs);
        assert!(sol.converged);
        assert!(alrescha_sparse::approx_eq(&sol.x, &x_true, 1e-6));
    }

    #[test]
    fn symgs_preconditioner_reduces_iterations() {
        let coo = gen::banded(300, 5, 11);
        let (plain, _) = solve_class(coo.clone(), Preconditioner::Identity);
        let (pre, _) = solve_class(coo, Preconditioner::SymGs);
        assert!(pre.converged && plain.converged);
        assert!(
            pre.iterations < plain.iterations,
            "symgs {} vs identity {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn all_science_classes_converge() {
        for class in gen::ScienceClass::ALL {
            let (sol, x_true) = solve_class(class.generate(150, 5), Preconditioner::SymGs);
            assert!(sol.converged, "{} did not converge", class.name());
            assert!(
                alrescha_sparse::approx_eq(&sol.x, &x_true, 1e-5),
                "{} solution mismatch",
                class.name()
            );
        }
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = Csr::from_coo(&gen::stencil27(2));
        let sol = pcg(&a, &vec![0.0; a.rows()], &PcgOptions::default()).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn history_is_monotone_enough() {
        let (sol, _) = solve_class(gen::stencil27(3), Preconditioner::SymGs);
        assert_eq!(sol.history.len(), sol.iterations + 1);
        assert!(sol.history.last().unwrap() < sol.history.first().unwrap());
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let coo = gen::banded(200, 5, 3);
        let a = Csr::from_coo(&coo);
        let b = vec![1.0; 200];
        let opts = PcgOptions {
            max_iters: 1,
            tol: 1e-14,
            ..PcgOptions::default()
        };
        let sol = pcg(&a, &b, &opts).unwrap();
        assert!(!sol.converged);
    }

    #[test]
    fn rejects_rectangular() {
        let a = Csr::from_coo(&alrescha_sparse::Coo::new(3, 4));
        assert!(pcg(&a, &[1.0; 3], &PcgOptions::default()).is_err());
    }
}

#[cfg(test)]
mod pcg_with_tests {
    use super::*;
    use crate::{multigrid::GridHierarchy, smoothers};
    use alrescha_sparse::gen;

    #[test]
    fn ssor_preconditioner_via_closure() {
        let a = Csr::from_coo(&gen::stencil27(3));
        let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.2).sin()).collect();
        let b = spmv(&a, &x_true);
        let sol = pcg_with(&a, &b, 1e-9, 300, |a, r| {
            let mut z = vec![0.0; a.cols()];
            smoothers::ssor(a, r, &mut z, 1.2)?;
            Ok(z)
        })
        .unwrap();
        assert!(sol.converged);
        assert!(alrescha_sparse::approx_eq(&sol.x, &x_true, 1e-6));
    }

    #[test]
    fn multigrid_preconditioner_via_closure_matches_hierarchy_solve() {
        let mg = GridHierarchy::build(8, 3).unwrap();
        let a = mg.levels()[0].matrix.clone();
        let b = spmv(&a, &vec![1.0; a.cols()]);
        let via_closure = pcg_with(&a, &b, 1e-9, 100, |_, r| mg.v_cycle(r)).unwrap();
        let (x_direct, iters_direct, converged) = mg.solve(&b, 1e-9, 100).unwrap();
        assert!(via_closure.converged && converged);
        assert_eq!(via_closure.iterations, iters_direct);
        assert!(alrescha_sparse::approx_eq(&via_closure.x, &x_direct, 1e-8));
    }

    #[test]
    fn nan_rhs_errors_immediately() {
        let a = Csr::from_coo(&gen::stencil27(2));
        let mut b = vec![1.0; a.rows()];
        b[0] = f64::NAN;
        let err = pcg(&a, &b, &PcgOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            KernelError::NoConvergence { iterations: 0, .. }
        ));
    }

    #[test]
    fn nan_preconditioner_output_is_caught() {
        let a = Csr::from_coo(&gen::stencil27(2));
        let b = vec![1.0; a.rows()];
        let err = pcg_with(&a, &b, 1e-9, 10, |_, r| Ok(vec![f64::NAN; r.len()])).unwrap_err();
        assert!(matches!(err, KernelError::NoConvergence { .. }));
    }

    #[test]
    fn closure_errors_propagate() {
        let a = Csr::from_coo(&gen::stencil27(2));
        let b = vec![1.0; a.rows()];
        let err = pcg_with(&a, &b, 1e-9, 10, |_, _| {
            Err(KernelError::NoConvergence {
                iterations: 0,
                residual: f64::NAN,
            })
        });
        assert!(err.is_err());
    }
}
