//! Cycle-level simulator of the ALRESCHA accelerator microarchitecture
//! (HPCA 2020, §4.3–§4.4).
//!
//! The simulator models every component of Figure 9 with the latencies of
//! Table 5:
//!
//! * [`fcu::Fcu`] — the fixed compute unit: an ω-wide ALU array feeding a
//!   pipelined reduction tree (sum or min reduce engines).
//! * [`rcu::Rcu`] — the reconfigurable compute unit: PEs and the
//!   configurable switch whose reprogramming hides under the tree drain.
//! * [`cache::LocalCache`] — the 1 KB / 64 B-line / 4-cycle local cache for
//!   the addressable vector operands.
//! * The RCU's operand FIFOs and GEMV→D-SymGS link stack, which
//!   [`engine`] models by what D-SymGS reads from them, their per-entry
//!   drop draws and their occupancy peaks.
//! * [`shift::ShiftRegister`] — Figure 10's D-SymGS operand shift register,
//!   stepped literally by the alasm reference interpreter; the engine reads
//!   `x` in place in the register's lane order.
//! * [`memory::MemoryStream`] — 288 GB/s payload-only streaming and
//!   bandwidth-utilization accounting.
//! * [`energy`] — 28 nm-class per-event energy accounting.
//!
//! [`engine::Engine`] drives these components through a locally-dense
//! ([`alrescha_sparse::Alf`]) matrix, executing SpMV, SymGS sweeps, BFS,
//! SSSP, and PageRank both *functionally* (results are bit-compatible with
//! the reference kernels up to floating-point reassociation) and in
//! *timing* (cycles, bandwidth, energy, reconfiguration statistics).
//!
//! # Example
//!
//! ```
//! use alrescha_sim::{Engine, SimConfig};
//! use alrescha_sparse::{alf::AlfLayout, gen, Alf};
//!
//! let coo = gen::stencil27(2);
//! let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs)?;
//! let b = vec![1.0; a.rows()];
//! let mut x = vec![0.0; a.cols()];
//! let mut engine = Engine::new(SimConfig::paper());
//! let report = engine.run_symgs(&a, &b, &mut x)?;
//! assert!(report.reconfig.switches > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod config;
pub mod des;
pub mod energy;
pub mod engine;
pub mod error;
pub mod fault;
pub mod fcu;
pub mod memory;
pub mod pipeline;
pub mod rcu;
pub mod report;
pub mod runtime;
pub mod shift;
pub mod trace;

pub use config::SimConfig;
pub use energy::{EnergyCounters, EnergyModel};
pub use engine::{Engine, PageRankConfig, UNREACHED};
pub use error::{Result, SimError};
pub use fault::{
    FaultCounters, FaultInjector, FaultPlan, FaultSite, InjectorSnapshot, RecoveryPolicy,
};
pub use rcu::DataPathKind;
pub use report::{BreakerStats, ExecutionReport};
pub use runtime::ExecBudget;
