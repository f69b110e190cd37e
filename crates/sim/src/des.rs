//! Block-granular discrete-event co-simulation.
//!
//! The analytic engine serializes each block's cost as
//! `max(memory, compute)` (§engine docs). Real hardware double-buffers:
//! while the FCU computes block *k*, the memory interface already streams
//! block *k+1*. This module simulates that overlap explicitly with
//! per-resource availability times and exposes both bounds:
//!
//! * the **DES time** (double-buffered, the optimistic end of the design
//!   space), and
//! * the resource busy times, whose maximum is the absolute lower bound.
//!
//! Tests assert the sandwich `max(busy) ≤ DES ≤ analytic`, validating that
//! the engine's analytic timing is a sound, conservative model of the same
//! machine.

use alrescha_sparse::{alf::AlfLayout, Alf};

use crate::config::SimConfig;
use crate::error::{Result, SimError};

/// Timing summary of one discrete-event run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesReport {
    /// End-to-end cycles with full memory/compute overlap.
    pub cycles: u64,
    /// Cycles the memory interface was busy.
    pub memory_busy: u64,
    /// Cycles the FCU was busy.
    pub fcu_busy: u64,
    /// Blocks processed.
    pub blocks: u64,
}

impl DesReport {
    /// The larger of the two resource busy times — no schedule can finish
    /// faster than its busiest resource.
    pub fn resource_bound(&self) -> u64 {
        self.memory_busy.max(self.fcu_busy)
    }
}

/// Simulates one SpMV pass over `a` with double-buffered streaming.
///
/// # Errors
///
/// * [`SimError::LayoutMismatch`] for a SymGS-layout matrix.
/// * [`SimError::BlockWidthMismatch`] when the block width differs from ω.
pub fn simulate_spmv(a: &Alf, config: &SimConfig) -> Result<DesReport> {
    if a.layout() != AlfLayout::Streaming {
        return Err(SimError::LayoutMismatch {
            expected: "streaming",
            found: "symgs",
        });
    }
    if a.omega() != config.omega {
        return Err(SimError::BlockWidthMismatch {
            engine: config.omega,
            matrix: a.omega(),
        });
    }
    let omega = config.omega;
    let fill = config.fcu_sum_latency();

    // Per-resource availability clocks.
    let mut mem_free = 0u64;
    let mut fcu_free = fill; // the pipeline fills before the first result
    let mut mem_busy = 0u64;
    let mut fcu_busy = 0u64;

    for _block in a.blocks() {
        // Memory streams the next block as soon as the channel frees.
        let stream = config.stream_cycles(omega * omega);
        let mem_done = mem_free + stream;
        mem_free = mem_done;
        mem_busy += stream;

        // The FCU starts this block when both its previous block is done
        // and the payload has arrived.
        let compute = omega as u64;
        let start = fcu_free.max(mem_done);
        fcu_free = start + compute;
        fcu_busy += compute;
    }

    let drain = config.fcu_sum_latency();
    Ok(DesReport {
        cycles: fcu_free + drain,
        memory_busy: mem_busy,
        fcu_busy,
        blocks: a.blocks().len() as u64,
    })
}

/// Analytic-engine SpMV cycles for the same matrix, for comparison (runs
/// the functional engine on a unit vector).
///
/// # Errors
///
/// Propagates engine errors.
pub fn analytic_spmv_cycles(a: &Alf, config: &SimConfig) -> Result<u64> {
    let mut engine = crate::engine::Engine::new(config.clone());
    let x = vec![1.0; a.cols()];
    let (_, report) = engine.run_spmv(a, &x)?;
    Ok(report.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::gen;

    fn alf(coo: &alrescha_sparse::Coo) -> Alf {
        Alf::from_coo(coo, 8, AlfLayout::Streaming).unwrap()
    }

    #[test]
    fn des_is_sandwiched_between_bounds() {
        let config = SimConfig::paper();
        for class in gen::ScienceClass::ALL {
            let coo = class.generate(400, 7);
            let a = alf(&coo);
            let des = simulate_spmv(&a, &config).unwrap();
            let analytic = analytic_spmv_cycles(&a, &config).unwrap();
            assert!(
                des.resource_bound() <= des.cycles,
                "{}: bound {} des {}",
                class.name(),
                des.resource_bound(),
                des.cycles
            );
            assert!(
                des.cycles <= analytic,
                "{}: des {} analytic {}",
                class.name(),
                des.cycles,
                analytic
            );
            // The analytic model must not be grossly pessimistic either:
            // within 2x of the overlapped schedule.
            assert!(
                analytic <= 2 * des.cycles,
                "{}: analytic {} des {}",
                class.name(),
                analytic,
                des.cycles
            );
        }
    }

    #[test]
    fn compute_bound_at_paper_balance() {
        // At ω = 8 with 14.4 values/cycle, each 64-value block streams in 5
        // cycles but computes in 8: the FCU is the bottleneck and the DES
        // time approaches fcu_busy.
        let coo = gen::stencil27(6);
        let a = alf(&coo);
        let des = simulate_spmv(&a, &SimConfig::paper()).unwrap();
        assert_eq!(des.fcu_busy, des.blocks * 8);
        let slack = des.cycles - des.fcu_busy;
        assert!(slack < 40, "slack {slack}"); // fill + drain + first-block wait
    }

    #[test]
    fn memory_bound_when_bandwidth_is_scarce() {
        let mut config = SimConfig::paper();
        config.mem_bandwidth_gbps = 72.0; // 3.6 values/cycle < 8
        let coo = gen::stencil27(5);
        let a = alf(&coo);
        let des = simulate_spmv(&a, &config).unwrap();
        assert!(des.memory_busy > des.fcu_busy);
        // Under memory-boundedness, DES time ~ memory busy time.
        assert!(des.cycles < des.memory_busy + 100);
    }

    #[test]
    fn layout_and_width_validation() {
        let coo = gen::stencil27(2);
        let config = SimConfig::paper();
        let symgs = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        assert!(simulate_spmv(&symgs, &config).is_err());
        let wrong = Alf::from_coo(&coo, 4, AlfLayout::Streaming).unwrap();
        assert!(simulate_spmv(&wrong, &config).is_err());
    }
}

/// Simulates one forward SymGS sweep with double-buffered GEMV streaming:
/// within a block row the GEMVs overlap memory and compute, the D-SymGS
/// recurrence waits for all of them (it consumes their link-stack results),
/// and the next block row's streaming proceeds under the recurrence.
///
/// # Errors
///
/// * [`SimError::LayoutMismatch`] unless `a` uses the SymGS layout.
/// * [`SimError::BlockWidthMismatch`] when the block width differs from ω.
pub fn simulate_symgs_forward(a: &Alf, config: &SimConfig) -> Result<DesReport> {
    if a.layout() != AlfLayout::SymGs {
        return Err(SimError::LayoutMismatch {
            expected: "symgs",
            found: "streaming",
        });
    }
    if a.omega() != config.omega {
        return Err(SimError::BlockWidthMismatch {
            engine: config.omega,
            matrix: a.omega(),
        });
    }
    let omega = config.omega;
    let mut mem_free = 0u64;
    let mut fcu_free = config.fcu_sum_latency();
    let mut mem_busy = 0u64;
    let mut fcu_busy = 0u64;
    let mut blocks = 0u64;

    let block_rows = a.block_rows();
    let mut per_row: Vec<Vec<alrescha_sparse::AlfBlock>> = vec![Vec::new(); block_rows];
    for block in a.blocks() {
        per_row[block.block_row()].push(block);
    }

    for (br, row_blocks) in per_row.iter().enumerate() {
        let valid_rows = omega.min(a.rows().saturating_sub(br * omega)) as u64;
        let mut row_gemv_done = fcu_free;
        let mut has_diag = false;
        for block in row_blocks {
            blocks += 1;
            let stream = config.stream_cycles(omega * omega);
            let mem_done = mem_free + stream;
            mem_free = mem_done;
            mem_busy += stream;
            if block.kind() == alrescha_sparse::BlockKind::Diagonal {
                has_diag = true;
                continue; // handled after the GEMVs, per the reordering
            }
            let start = fcu_free.max(mem_done);
            fcu_free = start + omega as u64;
            fcu_busy += omega as u64;
            row_gemv_done = fcu_free;
        }
        if has_diag {
            // D-SymGS waits for this row's GEMV results plus the drain,
            // then runs its serial recurrence (padding rows do no steps).
            let drain = config.fcu_sum_latency();
            let recurrence = valid_rows * config.dsymgs_step_latency();
            let start = row_gemv_done.max(fcu_free) + drain;
            fcu_free = start + recurrence;
            fcu_busy += recurrence;
        }
    }

    Ok(DesReport {
        cycles: fcu_free + config.fcu_sum_latency(),
        memory_busy: mem_busy,
        fcu_busy,
        blocks,
    })
}

#[cfg(test)]
mod symgs_des_tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn symgs_des_is_bounded_by_the_analytic_engine() {
        let config = SimConfig::paper();
        for class in gen::ScienceClass::ALL {
            let coo = class.generate(300, 5);
            let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
            let des = simulate_symgs_forward(&a, &config).unwrap();

            let mut engine = crate::engine::Engine::new(config.clone());
            let b = vec![1.0; coo.rows()];
            let mut x = vec![0.0; coo.cols()];
            let analytic = engine.run_symgs_forward(&a, &b, &mut x).unwrap().cycles;

            assert!(
                des.cycles <= analytic + des.blocks, // per-block rounding slack
                "{}: des {} analytic {}",
                class.name(),
                des.cycles,
                analytic
            );
            assert!(
                analytic <= 2 * des.cycles,
                "{}: analytic {} des {}",
                class.name(),
                analytic,
                des.cycles
            );
        }
    }

    #[test]
    fn recurrence_dominates_on_banded_structure() {
        let coo = gen::banded(400, 3, 1);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let des = simulate_symgs_forward(&a, &SimConfig::paper()).unwrap();
        // The D-SymGS recurrence serializes: FCU busy time dominated by
        // 15-cycle steps, and memory is mostly idle relative to it.
        assert!(des.fcu_busy > des.memory_busy);
    }
}
