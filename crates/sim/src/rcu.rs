//! The reconfigurable compute unit (RCU): processing elements, the
//! configurable switch, and the real-time reconfiguration machinery
//! (§4.3–§4.4, Figures 9 and 11).
//!
//! Only the RCU is reconfigured between data paths; its switch rewires the
//! connections between the local cache, the FIFOs, the link stack, and the
//! PEs. Reconfiguration happens while the FCU's reduction tree drains, so
//! its latency is hidden whenever the drain is at least as long as the
//! switch-programming time.

use crate::config::SimConfig;
use crate::energy::EnergyCounters;
use crate::fault::FaultInjector;

/// The data-path personality the RCU switch is currently wired for
/// (Figure 9 b/c/d show D-SymGS, GEMV, and D-PR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPathKind {
    /// General matrix-vector multiply on a locally-dense block.
    Gemv,
    /// Data-dependent dense SymGS recurrence.
    DSymGs,
    /// Dense PageRank step (divide + gather).
    DPr,
    /// Dense BFS step (min-plus with unit weights).
    DBfs,
    /// Dense SSSP step (min-plus with edge weights).
    DSssp,
}

/// Statistics about reconfiguration behaviour over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconfigStats {
    /// Number of data-path switches performed.
    pub switches: u64,
    /// Cycles of switch latency hidden under reduction-tree drains.
    pub hidden_cycles: u64,
    /// Cycles of switch latency that could not be hidden (exposed stall).
    pub exposed_cycles: u64,
}

/// The reconfigurable compute unit.
#[derive(Debug, Clone)]
pub struct Rcu {
    pe_latency: u64,
    /// Cycles to rewrite the configurable switch from the configuration
    /// table. Small by design — the unit is "lightweight" precisely so this
    /// fits under the drain window.
    switch_program_cycles: u64,
    current: Option<DataPathKind>,
    stats: ReconfigStats,
    counters: EnergyCounters,
    faults: Option<FaultInjector>,
}

impl Rcu {
    /// Builds the RCU from a configuration. The switch-programming time is
    /// modeled at the cache access latency (the configuration table is a
    /// small local SRAM).
    pub fn new(config: &SimConfig) -> Self {
        Rcu {
            pe_latency: config.pe_latency,
            switch_program_cycles: config.cache_latency,
            current: None,
            stats: ReconfigStats::default(),
            counters: EnergyCounters::new(),
            faults: None,
        }
    }

    /// Attaches (or detaches) a fault injector for buffer-drop modeling.
    pub fn attach_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// Returns the unit to its just-built state: switch unwired, lifetime
    /// statistics and energy counters zeroed, injector detached. A recycled
    /// RCU is indistinguishable from [`Rcu::new`] — the first `configure`
    /// after a reset counts a switch again, exactly like a fresh unit.
    pub fn reset(&mut self) {
        self.current = None;
        self.stats = ReconfigStats::default();
        self.counters = EnergyCounters::new();
        self.faults = None;
    }

    /// Currently configured data path, if any.
    pub fn current(&self) -> Option<DataPathKind> {
        self.current
    }

    /// Switches the RCU to `kind`, overlapping with a reduction-tree drain
    /// of `drain_cycles`. Returns the *exposed* stall cycles (0 whenever the
    /// drain is long enough, which it is under the paper configuration).
    pub fn configure(&mut self, kind: DataPathKind, drain_cycles: u64) -> u64 {
        if self.current == Some(kind) {
            return 0;
        }
        self.current = Some(kind);
        self.stats.switches += 1;
        self.counters.reconfigs += 1;
        let hidden = self.switch_program_cycles.min(drain_cycles);
        let exposed = self.switch_program_cycles - hidden;
        self.stats.hidden_cycles += hidden;
        self.stats.exposed_cycles += exposed;
        exposed
    }

    /// One PE operation (LUT-based multiply/divide/add/subtract). Returns
    /// its latency in cycles and counts the event.
    pub fn pe_op(&mut self) -> u64 {
        self.counters.pe_ops += 1;
        self.pe_latency
    }

    /// Records `n` buffer (FIFO/stack) events for energy accounting.
    pub fn buffer_events(&mut self, n: u64) {
        self.counters.buffer_ops += n;
    }

    /// Records a link-stack (LIFO) push; returns true when the injector
    /// drops the entry in flight.
    pub fn link_push_event(&mut self) -> bool {
        self.counters.buffer_ops += 1;
        self.faults.as_ref().is_some_and(FaultInjector::lifo_drop)
    }

    /// Records an operand-FIFO push; returns true when the injector drops
    /// the entry in flight.
    pub fn fifo_push_event(&mut self) -> bool {
        self.counters.buffer_ops += 1;
        self.faults.as_ref().is_some_and(FaultInjector::fifo_drop)
    }

    /// Reconfiguration statistics so far.
    pub fn stats(&self) -> ReconfigStats {
        self.stats
    }

    /// Energy-event counters accumulated so far.
    pub fn counters(&self) -> &EnergyCounters {
        &self.counters
    }

    /// Takes and resets the counters (stats are preserved).
    pub fn take_counters(&mut self) -> EnergyCounters {
        std::mem::take(&mut self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rcu() -> Rcu {
        Rcu::new(&SimConfig::paper())
    }

    #[test]
    fn first_configure_counts_as_switch() {
        let mut r = rcu();
        let exposed = r.configure(DataPathKind::Gemv, 12);
        assert_eq!(exposed, 0);
        assert_eq!(r.stats().switches, 1);
        assert_eq!(r.current(), Some(DataPathKind::Gemv));
    }

    #[test]
    fn same_kind_is_free() {
        let mut r = rcu();
        r.configure(DataPathKind::Gemv, 12);
        let exposed = r.configure(DataPathKind::Gemv, 12);
        assert_eq!(exposed, 0);
        assert_eq!(r.stats().switches, 1);
    }

    #[test]
    fn switch_latency_hides_under_drain() {
        let mut r = rcu();
        r.configure(DataPathKind::Gemv, 12);
        let exposed = r.configure(DataPathKind::DSymGs, 12);
        assert_eq!(exposed, 0);
        assert_eq!(r.stats().hidden_cycles, 8); // 4 + 4 across two switches
        assert_eq!(r.stats().exposed_cycles, 0);
    }

    #[test]
    fn short_drain_exposes_stall() {
        let mut r = rcu();
        r.configure(DataPathKind::Gemv, 1);
        assert_eq!(r.stats().hidden_cycles, 1);
        assert_eq!(r.stats().exposed_cycles, 3);
        let exposed = r.configure(DataPathKind::DSymGs, 0);
        assert_eq!(exposed, 4);
    }

    #[test]
    fn pe_op_counts_and_returns_latency() {
        let mut r = rcu();
        assert_eq!(r.pe_op(), 3);
        assert_eq!(r.counters().pe_ops, 1);
    }

    #[test]
    fn reconfig_events_feed_energy() {
        let mut r = rcu();
        r.configure(DataPathKind::Gemv, 12);
        r.configure(DataPathKind::DSymGs, 12);
        assert_eq!(r.counters().reconfigs, 2);
        let taken = r.take_counters();
        assert_eq!(taken.reconfigs, 2);
        assert_eq!(r.counters().reconfigs, 0);
        assert_eq!(r.stats().switches, 2, "stats survive counter reset");
    }
}
