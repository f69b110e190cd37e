//! The fixed compute unit (FCU): an ω-wide ALU array feeding a pipelined
//! reduction tree of reduce engines (§4.3, Figure 9).
//!
//! The FCU's interconnect never changes between data paths — only what the
//! tree reduces with (`sum` for GEMV/D-SymGS/D-PR, `min` for D-BFS/D-SSSP)
//! and where its inputs come from (the RCU). It is fully pipelined: one
//! ω-element row enters per cycle, so throughput tracks the memory stream
//! and only the first row of a data path pays the fill latency.

use crate::config::SimConfig;
use crate::energy::EnergyCounters;
use crate::fault::{self, FaultInjector};

/// Reduction operation performed by the reduce engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduce {
    /// Tree of adders (GEMV, D-SymGS, D-PR).
    Sum,
    /// Tree of comparators (D-BFS, D-SSSP).
    Min,
}

/// The fixed compute unit.
#[derive(Debug, Clone)]
pub struct Fcu {
    omega: usize,
    alu_latency: u64,
    re_sum_latency: u64,
    re_min_latency: u64,
    tree_depth: u32,
    counters: EnergyCounters,
    faults: Option<FaultInjector>,
}

impl Fcu {
    /// Builds the FCU from a configuration.
    pub fn new(config: &SimConfig) -> Self {
        Fcu {
            omega: config.omega,
            alu_latency: config.alu_latency,
            re_sum_latency: config.re_sum_latency,
            re_min_latency: config.re_min_latency,
            tree_depth: config.tree_depth(),
            counters: EnergyCounters::new(),
            faults: None,
        }
    }

    /// Attaches (or detaches) a fault injector. Lane and tree faults fire
    /// only while the injector is armed for the FCU, which the engine does
    /// around checksum-protected GEMV blocks.
    pub fn attach_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// Returns the unit to its just-built state: energy counters zeroed and
    /// injector detached (the interconnect itself is fixed by design, so
    /// there is no wiring to reset).
    pub fn reset(&mut self) {
        self.counters = EnergyCounters::new();
        self.faults = None;
    }

    /// Number of parallel lanes (ω).
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Pipeline fill latency for a given reduction.
    pub fn fill_latency(&self, reduce: Reduce) -> u64 {
        let re = match reduce {
            Reduce::Sum => self.re_sum_latency,
            Reduce::Min => self.re_min_latency,
        };
        self.alu_latency + u64::from(self.tree_depth) * re
    }

    /// One pipelined pass: multiplies `row` by `operand` element-wise and
    /// reduces with `Sum`. Counts ω ALU ops and ω−1 reduce ops.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not ω long.
    pub fn mac_row(&mut self, row: &[f64], operand: &[f64]) -> f64 {
        self.mac(row, operand, false)
    }

    /// [`Fcu::mac_row`] over a row streamed right-to-left: lane `j`
    /// multiplies `row[ω−1−j]` by `operand[j]`. The products are summed in
    /// the same logical lane order, so the result is bit-identical to
    /// `mac_row` on the un-reversed row.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not ω long.
    pub fn mac_row_reversed(&mut self, row: &[f64], operand: &[f64]) -> f64 {
        self.mac(row, operand, true)
    }

    fn mac(&mut self, row: &[f64], operand: &[f64], reversed: bool) -> f64 {
        assert_eq!(row.len(), self.omega, "row width must be omega");
        assert_eq!(operand.len(), self.omega, "operand width must be omega");
        self.counters.alu_ops += self.omega as u64;
        self.counters.re_ops += (self.omega - 1) as u64;
        let mut sum: f64 = if reversed {
            row.iter().rev().zip(operand).map(|(a, b)| a * b).sum()
        } else {
            row.iter().zip(operand).map(|(a, b)| a * b).sum()
        };
        if let Some(inj) = &self.faults {
            if let Some((lane, bit)) = inj.lane_fault(self.omega) {
                // A single lane product is upset before it enters the tree.
                let value = if reversed {
                    row[self.omega - 1 - lane]
                } else {
                    row[lane]
                };
                let clean = value * operand[lane];
                sum = sum - clean + fault::flip_bit(clean, bit);
            }
            if let Some(bit) = inj.tree_fault() {
                sum = fault::flip_bit(sum, bit);
            }
        }
        sum
    }

    /// One pipelined pass with an element-wise `op` and a `min` reduction
    /// (the D-BFS/D-SSSP shape of Table 1: operation `sum`, reduce `min`).
    /// Lanes whose matrix value is exactly zero carry no edge and are
    /// excluded from the reduction.
    ///
    /// Returns `f64::INFINITY` when every lane is inactive.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not ω long.
    pub fn min_reduce_row(
        &mut self,
        row: &[f64],
        operand: &[f64],
        op: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        self.min_reduce(row, operand, false, op)
    }

    /// [`Fcu::min_reduce_row`] over a row streamed right-to-left, reduced
    /// in the same logical lane order (see [`Fcu::mac_row_reversed`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices are not ω long.
    pub fn min_reduce_row_reversed(
        &mut self,
        row: &[f64],
        operand: &[f64],
        op: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        self.min_reduce(row, operand, true, op)
    }

    fn min_reduce(
        &mut self,
        row: &[f64],
        operand: &[f64],
        reversed: bool,
        op: impl Fn(f64, f64) -> f64,
    ) -> f64 {
        assert_eq!(row.len(), self.omega, "row width must be omega");
        assert_eq!(operand.len(), self.omega, "operand width must be omega");
        self.counters.alu_ops += self.omega as u64;
        self.counters.re_ops += (self.omega - 1) as u64;
        if reversed {
            min_fold(row.iter().rev().zip(operand), op)
        } else {
            min_fold(row.iter().zip(operand), op)
        }
    }

    /// Drains the pipeline — the window during which the RCU switch is
    /// reconfigured for the next data path (§4.4). Returns the drain cycles.
    pub fn drain(&self, reduce: Reduce) -> u64 {
        self.fill_latency(reduce)
    }

    /// Energy-event counters accumulated so far.
    pub fn counters(&self) -> &EnergyCounters {
        &self.counters
    }

    /// Takes and resets the counters.
    pub fn take_counters(&mut self) -> EnergyCounters {
        std::mem::take(&mut self.counters)
    }
}

/// `min` over the active lanes (non-zero matrix value) of `op(a, b)`.
fn min_fold<'a>(
    lanes: impl Iterator<Item = (&'a f64, &'a f64)>,
    op: impl Fn(f64, f64) -> f64,
) -> f64 {
    lanes
        .filter(|(a, _)| **a != 0.0)
        .map(|(a, b)| op(*a, *b))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fcu() -> Fcu {
        Fcu::new(&SimConfig::paper())
    }

    #[test]
    fn mac_row_computes_dot_product() {
        let mut f = fcu();
        let row = [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let x = [1.0; 8];
        assert_eq!(f.mac_row(&row, &x), 6.0);
        assert_eq!(f.counters().alu_ops, 8);
        assert_eq!(f.counters().re_ops, 7);
    }

    #[test]
    fn min_reduce_ignores_structural_zeros() {
        let mut f = fcu();
        let weights = [0.0, 2.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0];
        let dist = [0.0, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0];
        // Active lanes: 2.0+1.0 = 3.0 and 5.0+0.5 = 5.5 -> min 3.0.
        let got = f.min_reduce_row(&weights, &dist, |w, d| w + d);
        assert_eq!(got, 3.0);
    }

    #[test]
    fn reversed_rows_reduce_in_logical_order() {
        let mut f = fcu();
        let row = [0.1, 0.2, 0.3, 1e16, -1e16, 0.7, 0.0, 3.0];
        let x = [1.5, -2.0, 0.25, 1.0, 1.0, 4.0, 9.0, 0.5];
        let mut streamed = row;
        streamed.reverse();
        let plain = f.mac_row(&row, &x);
        assert_eq!(f.mac_row_reversed(&streamed, &x).to_bits(), plain.to_bits());
        let op = |w: f64, d: f64| w + d;
        assert_eq!(
            f.min_reduce_row_reversed(&streamed, &x, op).to_bits(),
            f.min_reduce_row(&row, &x, op).to_bits()
        );
        assert_eq!(f.counters().alu_ops, 32);
    }

    #[test]
    fn min_reduce_of_empty_row_is_infinite() {
        let mut f = fcu();
        let got = f.min_reduce_row(&[0.0; 8], &[1.0; 8], |w, d| w + d);
        assert_eq!(got, f64::INFINITY);
    }

    #[test]
    fn fill_latency_matches_table5() {
        let f = fcu();
        assert_eq!(f.fill_latency(Reduce::Sum), 12);
        assert_eq!(f.fill_latency(Reduce::Min), 6);
        assert_eq!(f.drain(Reduce::Sum), 12);
    }

    #[test]
    #[should_panic(expected = "row width must be omega")]
    fn wrong_width_panics() {
        fcu().mac_row(&[1.0; 4], &[1.0; 4]);
    }

    #[test]
    fn armed_injector_perturbs_mac_row() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut f = fcu();
        let row = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let x = [1.0; 8];
        let clean = f.mac_row(&row, &x);
        let inj = FaultInjector::new(FaultPlan::inert(3).with_fcu_tree_rate(1.0));
        f.attach_injector(Some(inj.clone()));
        // Disarmed: identical result.
        assert_eq!(f.mac_row(&row, &x).to_bits(), clean.to_bits());
        inj.set_fcu_armed(true);
        assert_ne!(f.mac_row(&row, &x).to_bits(), clean.to_bits());
        assert_eq!(inj.counters().injected, 1);
    }

    #[test]
    fn take_counters_resets() {
        let mut f = fcu();
        f.mac_row(&[0.0; 8], &[0.0; 8]);
        let c = f.take_counters();
        assert_eq!(c.alu_ops, 8);
        assert_eq!(f.counters().alu_ops, 0);
    }
}
