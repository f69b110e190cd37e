//! Simulator error types.

use std::fmt;

/// Convenience alias for simulator results.
pub type Result<T> = std::result::Result<T, SimError>;

/// Errors raised by the accelerator engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The matrix was formatted with the wrong [`alrescha_sparse::alf::AlfLayout`]
    /// for the requested kernel.
    LayoutMismatch {
        /// Layout the kernel needs.
        expected: &'static str,
        /// Layout it was handed.
        found: &'static str,
    },
    /// Operand shapes do not agree.
    DimensionMismatch {
        /// Expected length/shape.
        expected: usize,
        /// Provided length/shape.
        found: usize,
    },
    /// The matrix block width does not match the engine's ω lanes.
    BlockWidthMismatch {
        /// Engine lanes.
        engine: usize,
        /// Matrix block width.
        matrix: usize,
    },
    /// A structural requirement is violated (e.g. zero diagonal in SymGS).
    Structure(alrescha_sparse::Error),
    /// An iterative driver exhausted its iteration budget.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
    },
    /// An injected fault was detected and could not be recovered within the
    /// active [`RecoveryPolicy`](crate::fault::RecoveryPolicy).
    FaultDetected {
        /// Where the fault struck.
        site: crate::fault::FaultSite,
        /// Engine cycle at which detection gave up.
        cycle: u64,
    },
    /// Computation produced a non-finite value from finite inputs (or was
    /// handed non-finite inputs) — not recoverable by retrying.
    NumericalBreakdown {
        /// Which check tripped (e.g. `"gemv checksum"`).
        context: &'static str,
        /// Engine cycle at the point of detection.
        cycle: u64,
    },
    /// The run exceeded its [`ExecBudget`](crate::runtime::ExecBudget)
    /// before completing.
    DeadlineExceeded {
        /// Which limit tripped: `"cycle"` or `"wall-clock"`.
        budget: &'static str,
        /// Engine cycle at which the budget expired.
        cycle: u64,
    },
    /// An SOR relaxation factor outside the convergent range `(0, 2)`.
    RelaxationOutOfRange {
        /// The factor the caller passed.
        factor: f64,
    },
    /// The progress watchdog observed no forward progress for a full
    /// watchdog window (e.g. a wedged D-SymGS block scheduler).
    Stalled {
        /// Which scheduler or queue stopped advancing.
        site: &'static str,
        /// Engine cycle at which the watchdog fired.
        cycle: u64,
        /// Consecutive cycles without progress when it fired.
        idle_cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::LayoutMismatch { expected, found } => {
                write!(
                    f,
                    "matrix layout mismatch: kernel needs {expected}, found {found}"
                )
            }
            SimError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "operand length mismatch: expected {expected}, found {found}"
                )
            }
            SimError::BlockWidthMismatch { engine, matrix } => write!(
                f,
                "block width mismatch: engine has {engine} lanes, matrix uses {matrix}"
            ),
            SimError::Structure(e) => write!(f, "matrix structure: {e}"),
            SimError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            SimError::FaultDetected { site, cycle } => {
                write!(f, "unrecovered fault at {site} (cycle {cycle})")
            }
            SimError::NumericalBreakdown { context, cycle } => {
                write!(f, "numerical breakdown in {context} (cycle {cycle})")
            }
            SimError::DeadlineExceeded { budget, cycle } => {
                write!(f, "{budget} budget exceeded at cycle {cycle}")
            }
            SimError::RelaxationOutOfRange { factor } => {
                write!(f, "SOR relaxation factor {factor} is outside (0, 2)")
            }
            SimError::Stalled {
                site,
                cycle,
                idle_cycles,
            } => {
                write!(
                    f,
                    "stalled: {site} made no progress for {idle_cycles} cycles (watchdog fired at cycle {cycle})"
                )
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Structure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<alrescha_sparse::Error> for SimError {
    fn from(e: alrescha_sparse::Error) -> Self {
        SimError::Structure(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SimError::LayoutMismatch {
            expected: "symgs",
            found: "streaming",
        };
        assert_eq!(
            e.to_string(),
            "matrix layout mismatch: kernel needs symgs, found streaming"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }

    #[test]
    fn fault_variants_display_site_and_cycle() {
        let e = SimError::FaultDetected {
            site: crate::fault::FaultSite::FcuTree,
            cycle: 42,
        };
        assert_eq!(
            e.to_string(),
            "unrecovered fault at FCU reduction tree (cycle 42)"
        );
        let e = SimError::NumericalBreakdown {
            context: "gemv checksum",
            cycle: 7,
        };
        assert_eq!(e.to_string(), "numerical breakdown in gemv checksum (cycle 7)");
    }

    #[test]
    fn runtime_variants_display_budget_and_site() {
        let e = SimError::DeadlineExceeded {
            budget: "cycle",
            cycle: 1000,
        };
        assert_eq!(e.to_string(), "cycle budget exceeded at cycle 1000");
        let e = SimError::Stalled {
            site: "d-symgs block scheduler",
            cycle: 65736,
            idle_cycles: 65536,
        };
        assert_eq!(
            e.to_string(),
            "stalled: d-symgs block scheduler made no progress for 65536 cycles (watchdog fired at cycle 65736)"
        );
    }

    #[test]
    fn relaxation_variant_displays_the_factor() {
        let e = SimError::RelaxationOutOfRange { factor: 2.5 };
        assert_eq!(e.to_string(), "SOR relaxation factor 2.5 is outside (0, 2)");
    }

    #[test]
    fn structure_error_has_source() {
        use std::error::Error as _;
        let e = SimError::Structure(alrescha_sparse::Error::MissingDiagonal { row: 3 });
        assert!(e.source().is_some());
    }
}
