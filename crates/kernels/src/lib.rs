//! Reference sparse kernels for the ALRESCHA reproduction.
//!
//! These are straightforward, obviously-correct CSR implementations of
//! every kernel the paper accelerates (Table 1): [`spmv`], [`symgs`] (the
//! Gauss-Seidel smoother of Equation 2), the [`pcg`] solver of Figure 2, and
//! the graph kernels [`graph::bfs`], [`graph::sssp`], [`graph::pagerank`].
//! The simulator's functional output is validated against them in the
//! integration tests.
//!
//! The crate also hosts the software-side analysis the evaluation needs:
//! [`coloring`] implements the row-reordering/matrix-coloring optimization
//! the paper's GPU baseline uses, and [`parallelism`] measures the
//! sequential-operation fractions plotted in Figure 16.
//!
//! # Example
//!
//! ```
//! use alrescha_kernels::{pcg, spmv};
//! use alrescha_sparse::{gen, Csr};
//!
//! let a = Csr::from_coo(&gen::stencil27(3));
//! let x_true = vec![1.0; a.rows()];
//! let b = spmv::spmv(&a, &x_true);
//! let sol = pcg::pcg(&a, &b, &pcg::PcgOptions::default())?;
//! assert!(sol.converged);
//! # Ok::<(), alrescha_kernels::KernelError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coloring;
pub mod graph;
pub mod metrics;
pub mod multigrid;
pub mod parallelism;
pub mod pcg;
pub mod smoothers;
pub mod spmv;
pub mod symgs;

use std::fmt;

/// Errors raised by the reference kernels.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KernelError {
    /// Operand shapes do not agree.
    DimensionMismatch {
        /// What the kernel expected.
        expected: usize,
        /// What it received.
        found: usize,
    },
    /// The matrix is missing a property the kernel requires.
    Structure(alrescha_sparse::Error),
    /// An iterative solver failed to converge within its iteration budget.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "operand length mismatch: expected {expected}, found {found}"
                )
            }
            KernelError::Structure(e) => write!(f, "matrix structure: {e}"),
            KernelError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:e})"
            ),
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Structure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<alrescha_sparse::Error> for KernelError {
    fn from(e: alrescha_sparse::Error) -> Self {
        KernelError::Structure(e)
    }
}

/// Convenience alias for kernel results.
pub type Result<T> = std::result::Result<T, KernelError>;

pub(crate) fn check_len(expected: usize, found: usize) -> Result<()> {
    if expected == found {
        Ok(())
    } else {
        Err(KernelError::DimensionMismatch { expected, found })
    }
}

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_dot() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn error_display() {
        let e = KernelError::DimensionMismatch {
            expected: 3,
            found: 2,
        };
        assert_eq!(
            e.to_string(),
            "operand length mismatch: expected 3, found 2"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KernelError>();
    }
}
