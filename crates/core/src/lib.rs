//! ALRESCHA: a lightweight reconfigurable sparse-computation accelerator
//! (HPCA 2020) — public API of the reproduction.
//!
//! This crate ties together the substrates:
//!
//! * [`convert`] — Algorithm 1: sparse kernel → dense data paths and the
//!   configuration table.
//! * [`accelerator::Alrescha`] — program kernels, run them on the
//!   cycle-level simulator, read [`alrescha_sim::ExecutionReport`]s.
//! * [`solver::AcceleratedPcg`] — the Figure 2 PCG with the SpMV and SymGS
//!   kernels on the device.
//!
//! # Quickstart
//!
//! ```
//! use alrescha::{Alrescha, KernelType};
//! use alrescha_sparse::gen;
//!
//! // A PDE-style SPD system (27-point stencil on a 3³ grid).
//! let a = gen::stencil27(3);
//!
//! let mut acc = Alrescha::with_paper_config();
//! let prog = acc.program(KernelType::SpMv, &a)?;
//! let x = vec![1.0; a.cols()];
//! let (y, report) = acc.spmv(&prog, &x)?;
//!
//! assert_eq!(y.len(), a.rows());
//! println!("{} cycles, {:.1}% of peak bandwidth",
//!          report.cycles, 100.0 * report.bandwidth_utilization);
//! # Ok::<(), alrescha::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod accelerator;
pub mod breaker;
pub mod checkpoint;
pub mod convert;
pub mod fleet;
pub mod program;
pub mod solver;
pub mod storage;
/// The workspace's one splitmix64 (defined in [`alrescha_obs::rng`]).
pub use alrescha_obs::rng as util;

pub use accelerator::{Alrescha, ProgrammedKernel};
pub use breaker::{BackendChoice, BreakerConfig, BreakerState, CircuitBreaker, SharedBreaker};
pub use checkpoint::{write_atomic, CheckpointError, SolverCheckpoint, SolverKind};
pub use convert::{ConfigEntry, ConfigTable, DataPath, KernelType};
pub use fleet::{
    CheckpointHook, Fleet, FleetConfig, FleetReport, FleetStats, JobKernel, JobOutput, JobRecord,
    JobSpec, PreflightHook, Station,
};
pub use program::{EntryLayout, FieldSpec, ProgramBinary};
pub use storage::{
    ChaosStorage, IoFaultCounters, IoFaultKind, IoFaultPlan, RealStorage, StorageFile, StorageIo,
};
pub use solver::{
    AcceleratedMgPcg, AcceleratedPcg, SolveOutcome, SolverOptions, TerminationReason,
};

// Fault-injection and runtime surface, re-exported so facade users configure
// resilience without importing the simulator crate directly.
pub use alrescha_sim::{
    BreakerStats, ExecBudget, FaultCounters, FaultPlan, FaultSite, InjectorSnapshot,
    RecoveryPolicy,
};

use std::fmt;

/// Errors raised by the accelerator API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A sparse-format operation failed.
    Sparse(alrescha_sparse::Error),
    /// The simulator rejected the run.
    Sim(alrescha_sim::SimError),
    /// A host-side reference kernel failed (e.g. during a degraded run).
    Kernel(alrescha_kernels::KernelError),
    /// A program was used with a kernel it was not built for.
    WrongKernel {
        /// Kernel the program encodes.
        programmed: KernelType,
        /// Kernel the caller requested.
        requested: KernelType,
    },
    /// The solver requires a square matrix.
    NotSquare {
        /// Rows found.
        rows: usize,
        /// Columns found.
        cols: usize,
    },
    /// Operand lengths disagree.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        found: usize,
    },
    /// PCG broke down numerically (input was not positive definite).
    Breakdown {
        /// Iteration at which `pᵀAp ≤ 0` was observed.
        iteration: usize,
    },
    /// The residual became non-finite or grew past the divergence guard —
    /// typically the footprint of an undetected fault or ill-posed input.
    Diverged {
        /// Iteration at which divergence was detected.
        iteration: usize,
        /// Residual norm observed (may be NaN or infinite).
        residual: f64,
    },
    /// A programmed kernel is missing data its driver requires — the
    /// program was corrupted or built by an incompatible host.
    InvalidProgram {
        /// What was missing or inconsistent.
        reason: &'static str,
    },
    /// A solver checkpoint failed to decode or does not belong to the
    /// resuming solve.
    Checkpoint(checkpoint::CheckpointError),
    /// The batch runtime's bounded queue rejected a job at admission.
    QueueFull {
        /// Jobs the queue accepts per batch.
        capacity: usize,
        /// Jobs offered in the batch.
        offered: usize,
        /// Structured backpressure hint: how long the submitter should wait
        /// before re-offering this job (25 ms per place past capacity the
        /// job landed, so resubmissions spread instead of stampeding).
        retry_after: std::time::Duration,
    },
    /// A preflight hook rejected a converted program before execution.
    Preflight {
        /// The verifier's explanation.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sparse(e) => write!(f, "sparse format: {e}"),
            CoreError::Sim(e) => write!(f, "simulator: {e}"),
            CoreError::Kernel(e) => write!(f, "reference kernel: {e}"),
            CoreError::WrongKernel {
                programmed,
                requested,
            } => write!(
                f,
                "program encodes {programmed:?} but {requested:?} was requested"
            ),
            CoreError::NotSquare { rows, cols } => {
                write!(f, "solver requires a square matrix, found {rows}x{cols}")
            }
            CoreError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "operand length mismatch: expected {expected}, found {found}"
                )
            }
            CoreError::Breakdown { iteration } => {
                write!(
                    f,
                    "pcg breakdown at iteration {iteration}: matrix is not positive definite"
                )
            }
            CoreError::Diverged {
                iteration,
                residual,
            } => {
                write!(
                    f,
                    "solver diverged at iteration {iteration}: residual {residual:e}"
                )
            }
            CoreError::InvalidProgram { reason } => {
                write!(f, "invalid program: {reason}")
            }
            CoreError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            CoreError::QueueFull {
                capacity,
                offered,
                retry_after,
            } => {
                write!(
                    f,
                    "fleet queue full: capacity {capacity}, offered {offered}; retry after {}ms",
                    retry_after.as_millis()
                )
            }
            CoreError::Preflight { message } => {
                write!(f, "preflight rejected program: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Sparse(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Kernel(e) => Some(e),
            CoreError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<alrescha_sparse::Error> for CoreError {
    fn from(e: alrescha_sparse::Error) -> Self {
        CoreError::Sparse(e)
    }
}

impl From<alrescha_sim::SimError> for CoreError {
    fn from(e: alrescha_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<alrescha_kernels::KernelError> for CoreError {
    fn from(e: alrescha_kernels::KernelError) -> Self {
        CoreError::Kernel(e)
    }
}

impl From<checkpoint::CheckpointError> for CoreError {
    fn from(e: checkpoint::CheckpointError) -> Self {
        CoreError::Checkpoint(e)
    }
}

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = CoreError::NotSquare { rows: 3, cols: 4 };
        assert_eq!(e.to_string(), "solver requires a square matrix, found 3x4");
    }

    #[test]
    fn diverged_and_invalid_program_display() {
        let d = CoreError::Diverged {
            iteration: 7,
            residual: f64::NAN,
        };
        assert!(d.to_string().contains("diverged at iteration 7"));
        let p = CoreError::InvalidProgram {
            reason: "pagerank program lacks out-degrees",
        };
        assert!(p.to_string().contains("out-degrees"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }

    #[test]
    fn errors_convert_from_substrates() {
        let sparse_err: CoreError = alrescha_sparse::Error::InvalidBlockWidth { omega: 0 }.into();
        assert!(matches!(sparse_err, CoreError::Sparse(_)));
        let sim_err: CoreError = alrescha_sim::SimError::NoConvergence { iterations: 5 }.into();
        assert!(matches!(sim_err, CoreError::Sim(_)));
    }
}
