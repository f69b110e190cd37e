//! Deterministic fault injection for the ALRESCHA simulator.
//!
//! This module models transient and permanent hardware faults in the
//! accelerator datapath so that the detection and recovery machinery layered
//! on top (ABFT checksums, buffer-occupancy checks, retry/degrade policies)
//! can be exercised and measured:
//!
//! * **FCU lane faults** — a bit flip in one ALU lane's product before the
//!   reduction tree ([`FaultSite::FcuLane`]).
//! * **FCU tree faults** — a bit flip in the reduction-tree output
//!   ([`FaultSite::FcuTree`]).
//! * **RCU LIFO / FIFO drops** — an enqueue into the link stack or an
//!   operand FIFO is silently lost ([`FaultSite::RcuLifo`],
//!   [`FaultSite::RcuFifo`]).
//! * **Cache-line corruption** — a parity error on a hit line; the access is
//!   transparently converted into a miss and refetched
//!   ([`FaultSite::Cache`]).
//! * **Stuck-at memory faults** — a permanent corruption keyed by block
//!   address, so every stream of the same block re-corrupts the same word
//!   and retries cannot mask it ([`FaultSite::Memory`]).
//!
//! All randomness comes from a private SplitMix64 generator seeded by
//! [`FaultPlan::seed`]: identical plans driving identical workloads produce
//! identical fault streams, detection counts, and reports. An engine with no
//! injector attached pays nothing — every hook is behind an
//! `Option<FaultInjector>` that short-circuits to the pre-existing code path.

use std::fmt;
use std::sync::{Arc, Mutex};

use alrescha_obs::rng::{splitmix64, unit_f64};

/// Location classes where a fault can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultSite {
    /// A single ALU lane product inside the FCU.
    FcuLane,
    /// The output of the FCU's pipelined reduction tree.
    FcuTree,
    /// The RCU link stack (LIFO) connecting GEMV to D-SymGS.
    RcuLifo,
    /// An RCU operand FIFO (right-hand-side or diagonal stream).
    RcuFifo,
    /// A cache line whose parity check fails on read.
    Cache,
    /// A DRAM word with a permanent stuck-at bit.
    Memory,
    /// The D-SymGS block scheduler (a control fault: it stops issuing
    /// diagonal blocks, so the engine idles until the watchdog fires).
    Scheduler,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultSite::FcuLane => "FCU lane",
            FaultSite::FcuTree => "FCU reduction tree",
            FaultSite::RcuLifo => "RCU link stack",
            FaultSite::RcuFifo => "RCU operand FIFO",
            FaultSite::Cache => "cache line",
            FaultSite::Memory => "memory (stuck-at)",
            FaultSite::Scheduler => "D-SymGS block scheduler",
        };
        f.write_str(name)
    }
}

/// Per-run fault accounting, surfaced through
/// [`ExecutionReport`](crate::report::ExecutionReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults injected into the datapath.
    pub injected: u64,
    /// Injected faults caught by a checksum, occupancy, or parity check.
    pub detected: u64,
    /// Detected faults masked by a successful refetch or retry.
    pub recovered: u64,
    /// Block-level retries spent on recovery.
    pub retries: u64,
    /// Kernel invocations that fell back to the reference CPU implementation.
    pub degraded: u64,
}

impl FaultCounters {
    /// True when any counter is non-zero.
    pub fn any(&self) -> bool {
        self.injected != 0
            || self.detected != 0
            || self.recovered != 0
            || self.retries != 0
            || self.degraded != 0
    }

    /// Accumulates `other` into `self` (used when merging reports).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.recovered += other.recovered;
        self.retries += other.retries;
        self.degraded += other.degraded;
    }

    /// Component-wise difference `self - base` (per-run deltas against a
    /// snapshot taken at run start).
    pub fn delta(&self, base: &FaultCounters) -> FaultCounters {
        FaultCounters {
            injected: self.injected - base.injected,
            detected: self.detected - base.detected,
            recovered: self.recovered - base.recovered,
            retries: self.retries - base.retries,
            degraded: self.degraded - base.degraded,
        }
    }
}

/// What the engine does when a fault is detected and cannot be ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Abort the run with [`SimError::FaultDetected`](crate::SimError) on the
    /// first detection.
    #[default]
    FailFast,
    /// Re-execute the failing block from its checkpointed inputs up to
    /// `max_retries` times, charging `backoff_cycles` per attempt, then fail.
    Retry {
        /// Bounded number of re-executions per block.
        max_retries: u32,
        /// Stall cycles charged before each re-execution.
        backoff_cycles: u64,
    },
    /// Behave like [`RecoveryPolicy::Retry`]; when retries are exhausted the
    /// error escapes to the accelerator facade, which re-runs the kernel on
    /// the reference CPU implementation and records the degradation.
    DegradeToCpu {
        /// Bounded number of re-executions per block before degrading.
        max_retries: u32,
        /// Stall cycles charged before each re-execution.
        backoff_cycles: u64,
    },
}

impl RecoveryPolicy {
    /// Retries the engine may spend per block before giving up.
    pub fn max_retries(&self) -> u32 {
        match self {
            RecoveryPolicy::FailFast => 0,
            RecoveryPolicy::Retry { max_retries, .. }
            | RecoveryPolicy::DegradeToCpu { max_retries, .. } => *max_retries,
        }
    }

    /// Stall cycles charged before each re-execution.
    pub fn backoff_cycles(&self) -> u64 {
        match self {
            RecoveryPolicy::FailFast => 0,
            RecoveryPolicy::Retry { backoff_cycles, .. }
            | RecoveryPolicy::DegradeToCpu { backoff_cycles, .. } => *backoff_cycles,
        }
    }

    /// True when exhausted retries should fall back to the CPU kernel.
    pub fn degrades_to_cpu(&self) -> bool {
        matches!(self, RecoveryPolicy::DegradeToCpu { .. })
    }
}

/// Inclusive range of bit positions eligible for flips: errors large
/// enough (≥ 2⁻⁴ relative) for checksum detection while still spanning
/// mantissa and exponent bits.
const FLIP_BITS: (u32, u32) = (48, 62);

/// A seed-driven description of which faults to inject, at what rates, and
/// when.
///
/// Rates are per-opportunity probabilities: `fcu_lane_rate` is drawn once per
/// `mac_row` on the protected GEMV datapath, drop rates once per buffer push,
/// `cache_fault_rate` once per cache hit, and `memory_stuck_rate` decides —
/// deterministically per block address — whether that block has a permanent
/// stuck-at bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault stream. Identical seeds (with identical workloads)
    /// reproduce identical faults.
    pub seed: u64,
    /// Probability per protected `mac_row` of flipping one lane product.
    pub fcu_lane_rate: f64,
    /// Probability per protected `mac_row` of flipping the reduced sum.
    pub fcu_tree_rate: f64,
    /// Probability per link-stack push of dropping the entry.
    pub lifo_drop_rate: f64,
    /// Probability per operand-FIFO push of dropping the entry.
    pub fifo_drop_rate: f64,
    /// Probability per cache hit of a parity error on the line.
    pub cache_fault_rate: f64,
    /// Probability per ω×ω block address of a permanent stuck-at bit.
    pub memory_stuck_rate: f64,
    /// Optional inclusive cycle window outside which transient faults are
    /// suppressed. Stuck-at faults are permanent and ignore the window.
    pub window: Option<(u64, u64)>,
    /// Permanent control fault: the D-SymGS block scheduler stops issuing
    /// diagonal blocks after this many have executed. The wedged engine
    /// makes no further progress, so the run terminates via the progress
    /// watchdog ([`SimError::Stalled`](crate::SimError::Stalled)) rather
    /// than a data check.
    pub dsymgs_stall_after: Option<u64>,
}

impl FaultPlan {
    /// A plan with every rate zero — attachable for instrumentation without
    /// perturbing results.
    pub fn inert(seed: u64) -> Self {
        FaultPlan {
            seed,
            fcu_lane_rate: 0.0,
            fcu_tree_rate: 0.0,
            lifo_drop_rate: 0.0,
            fifo_drop_rate: 0.0,
            cache_fault_rate: 0.0,
            memory_stuck_rate: 0.0,
            window: None,
            dsymgs_stall_after: None,
        }
    }

    /// Sets the FCU lane-flip rate.
    pub fn with_fcu_lane_rate(mut self, rate: f64) -> Self {
        self.fcu_lane_rate = rate;
        self
    }

    /// Sets the FCU reduction-tree flip rate.
    pub fn with_fcu_tree_rate(mut self, rate: f64) -> Self {
        self.fcu_tree_rate = rate;
        self
    }

    /// Sets the link-stack drop rate.
    pub fn with_lifo_drop_rate(mut self, rate: f64) -> Self {
        self.lifo_drop_rate = rate;
        self
    }

    /// Sets the operand-FIFO drop rate.
    pub fn with_fifo_drop_rate(mut self, rate: f64) -> Self {
        self.fifo_drop_rate = rate;
        self
    }

    /// Sets the cache parity-error rate.
    pub fn with_cache_fault_rate(mut self, rate: f64) -> Self {
        self.cache_fault_rate = rate;
        self
    }

    /// Sets the per-block stuck-at probability.
    pub fn with_memory_stuck_rate(mut self, rate: f64) -> Self {
        self.memory_stuck_rate = rate;
        self
    }

    /// Restricts transient faults to the inclusive cycle window.
    pub fn with_window(mut self, start: u64, end: u64) -> Self {
        self.window = Some((start, end));
        self
    }

    /// Wedges the D-SymGS block scheduler after `blocks` diagonal blocks.
    pub fn with_dsymgs_stall_after(mut self, blocks: u64) -> Self {
        self.dsymgs_stall_after = Some(blocks);
        self
    }

    /// True when no fault can ever fire under this plan.
    pub fn is_inert(&self) -> bool {
        self.fcu_lane_rate == 0.0
            && self.fcu_tree_rate == 0.0
            && self.lifo_drop_rate == 0.0
            && self.fifo_drop_rate == 0.0
            && self.cache_fault_rate == 0.0
            && self.memory_stuck_rate == 0.0
            && self.dsymgs_stall_after.is_none()
    }
}

/// Flips `bit` of `value`'s IEEE-754 representation.
///
/// Flipping a low mantissa bit of `0.0` would yield a denormal on the order
/// of 10⁻³⁰⁸ — numerically invisible and undetectable by any realistic
/// checksum tolerance. A fault striking a zero word is therefore modeled as
/// an exponent-bit upset, which is both physically plausible and observable.
pub fn flip_bit(value: f64, bit: u32) -> f64 {
    let bit = bit.min(62);
    if value == 0.0 {
        f64::from_bits((1u64 << 62) ^ (1u64 << bit))
    } else {
        f64::from_bits(value.to_bits() ^ (1u64 << bit))
    }
}

#[derive(Debug)]
struct InjectorCore {
    plan: FaultPlan,
    rng_state: u64,
    cycle: u64,
    /// FCU faults only fire while the engine has armed the injector, i.e. on
    /// the checksum-protected sum-reduction (GEMV) datapath. The D-SymGS
    /// recurrence and the min-reduce graph paths carry no ABFT protection,
    /// so injecting there would silently corrupt results.
    fcu_armed: bool,
    /// Faults injected in the current verification scope (one ω×ω block)
    /// that no check has confirmed yet.
    pending: u64,
    counters: FaultCounters,
}

impl InjectorCore {
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.rng_state)
    }

    fn unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    fn in_window(&self) -> bool {
        match self.plan.window {
            Some((start, end)) => self.cycle >= start && self.cycle <= end,
            None => true,
        }
    }

    /// Draws against `rate`, avoiding any RNG consumption when the rate is
    /// zero so inert plans leave the fault stream untouched.
    fn fires(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.in_window() && self.unit() < rate
    }

    fn pick_bit(&mut self) -> u32 {
        let (lo, hi) = FLIP_BITS;
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// The mutable part of an injector's state, captured for checkpointing.
///
/// A solver checkpoint that embeds this snapshot can resume a faulted run
/// bit-identically: restoring `rng_state` replays the transient fault
/// stream from exactly where the checkpoint was taken, and restoring the
/// counters keeps the cumulative accounting consistent. The plan itself is
/// not part of the snapshot — the resuming caller re-arms the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectorSnapshot {
    /// SplitMix64 state of the transient fault stream.
    pub rng_state: u64,
    /// Last cycle published to the injector.
    pub cycle: u64,
    /// Cumulative fault counters at snapshot time.
    pub counters: FaultCounters,
}

/// Cloneable handle distributing one shared fault state across the engine
/// and its components (FCU, RCU, cache, memory stream).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    core: Arc<Mutex<InjectorCore>>,
}

impl FaultInjector {
    /// Creates an injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let seed = plan.seed;
        FaultInjector {
            core: Arc::new(Mutex::new(InjectorCore {
                plan,
                rng_state: seed,
                cycle: 0,
                fcu_armed: false,
                pending: 0,
                counters: FaultCounters::default(),
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorCore> {
        // A poisoned mutex means another thread panicked mid-injection; the
        // fault state is plain counters and PRNG words, all still valid.
        match self.core.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Publishes the engine's current cycle for window gating and error
    /// reporting.
    pub fn set_cycle(&self, cycle: u64) {
        self.lock().cycle = cycle;
    }

    /// Cycle most recently published via [`FaultInjector::set_cycle`].
    pub fn cycle(&self) -> u64 {
        self.lock().cycle
    }

    /// Arms or disarms FCU injection. The engine arms the injector only
    /// around checksum-protected GEMV blocks.
    pub fn set_fcu_armed(&self, armed: bool) {
        self.lock().fcu_armed = armed;
    }

    /// Opens a verification scope (one ω×ω block): faults injected from here
    /// on are attributed to the next checksum/occupancy check.
    pub fn begin_scope(&self) {
        self.lock().pending = 0;
    }

    /// Marks every pending fault in the current scope as detected and
    /// returns how many there were.
    pub fn confirm_detected(&self) -> u64 {
        let mut core = self.lock();
        let pending = core.pending;
        core.pending = 0;
        core.counters.detected += pending;
        pending
    }

    /// Records `count` previously detected faults as masked by a successful
    /// retry or refetch.
    pub fn note_recovered(&self, count: u64) {
        self.lock().counters.recovered += count;
    }

    /// Records one block-level retry.
    pub fn note_retry(&self) {
        self.lock().counters.retries += 1;
    }

    /// Records one kernel-level degradation to the CPU reference path.
    pub fn note_degraded(&self) {
        self.lock().counters.degraded += 1;
    }

    /// Possibly injects an FCU lane fault: returns the lane index and bit to
    /// flip in that lane's product. Fires only while armed.
    pub fn lane_fault(&self, omega: usize) -> Option<(usize, u32)> {
        let mut core = self.lock();
        if !core.fcu_armed || omega == 0 {
            return None;
        }
        let rate = core.plan.fcu_lane_rate;
        if !core.fires(rate) {
            return None;
        }
        let lane = (core.next_u64() % omega as u64) as usize;
        let bit = core.pick_bit();
        core.counters.injected += 1;
        core.pending += 1;
        Some((lane, bit))
    }

    /// Possibly injects a reduction-tree fault: returns the bit to flip in
    /// the reduced sum. Fires only while armed.
    pub fn tree_fault(&self) -> Option<u32> {
        let mut core = self.lock();
        if !core.fcu_armed {
            return None;
        }
        let rate = core.plan.fcu_tree_rate;
        if !core.fires(rate) {
            return None;
        }
        let bit = core.pick_bit();
        core.counters.injected += 1;
        core.pending += 1;
        Some(bit)
    }

    /// Returns true when a link-stack push should be dropped.
    pub fn lifo_drop(&self) -> bool {
        let mut core = self.lock();
        let rate = core.plan.lifo_drop_rate;
        if core.fires(rate) {
            core.counters.injected += 1;
            core.pending += 1;
            true
        } else {
            false
        }
    }

    /// Returns true when an operand-FIFO push should be dropped.
    pub fn fifo_drop(&self) -> bool {
        let mut core = self.lock();
        let rate = core.plan.fifo_drop_rate;
        if core.fires(rate) {
            core.counters.injected += 1;
            core.pending += 1;
            true
        } else {
            false
        }
    }

    /// Possibly injects a parity error on a cache hit. Parity detection and
    /// the refetch are transparent, so the fault is counted as injected,
    /// detected, and recovered in one step; the caller only pays miss
    /// timing.
    pub fn cache_parity_on_hit(&self) -> bool {
        let mut core = self.lock();
        let rate = core.plan.cache_fault_rate;
        if core.fires(rate) {
            core.counters.injected += 1;
            core.counters.detected += 1;
            core.counters.recovered += 1;
            true
        } else {
            false
        }
    }

    /// Records that a stuck-at corruption was applied to a streamed payload
    /// (once per execution attempt over the afflicted block).
    pub fn note_stuck_applied(&self) {
        let mut core = self.lock();
        core.counters.injected += 1;
        core.pending += 1;
    }

    /// Queries the permanent stuck-at fault map for the block at
    /// `(block_row, block_col)` with `words` payload words. The decision and
    /// the afflicted word/bit derive from a hash of the address and the plan
    /// seed — not from the transient stream — so the same block faults
    /// identically on every stream and every retry. This is a pure query;
    /// callers record application via
    /// [`FaultInjector::note_stuck_applied`].
    pub fn memory_stuck(&self, block_row: usize, block_col: usize, words: usize) -> Option<(usize, u32)> {
        let core = self.lock();
        let rate = core.plan.memory_stuck_rate;
        if rate <= 0.0 || words == 0 {
            return None;
        }
        let mut h = core
            .plan
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((block_row as u64).wrapping_mul(0xD134_2543_DE82_EF95))
            .wrapping_add((block_col as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if unit >= rate {
            return None;
        }
        let word = (h.wrapping_mul(0xFF51_AFD7_ED55_8CCD) % words as u64) as usize;
        let (lo, hi) = FLIP_BITS;
        let bit = lo + (h.wrapping_mul(0xC4CE_B9FE_1A85_EC53) % u64::from(hi - lo + 1)) as u32;
        Some((word, bit))
    }

    /// True when the plan wedges the D-SymGS scheduler at or before
    /// `blocks_done` diagonal blocks. A pure query — no RNG consumption,
    /// no counter movement (see [`FaultInjector::note_scheduler_wedge`]).
    pub fn scheduler_wedged(&self, blocks_done: u64) -> bool {
        self.lock()
            .plan
            .dsymgs_stall_after
            .is_some_and(|limit| blocks_done >= limit)
    }

    /// Records the scheduler wedge as one injected fault caught by the
    /// progress watchdog (control faults have no retry path: the engine
    /// surfaces [`SimError::Stalled`](crate::SimError::Stalled) directly).
    pub fn note_scheduler_wedge(&self) {
        let mut core = self.lock();
        core.counters.injected += 1;
        core.counters.detected += 1;
    }

    /// Captures the injector's mutable state for a checkpoint.
    pub fn snapshot(&self) -> InjectorSnapshot {
        let core = self.lock();
        InjectorSnapshot {
            rng_state: core.rng_state,
            cycle: core.cycle,
            counters: core.counters,
        }
    }

    /// Restores state previously captured by [`FaultInjector::snapshot`].
    pub fn restore(&self, snap: &InjectorSnapshot) {
        let mut core = self.lock();
        core.rng_state = snap.rng_state;
        core.cycle = snap.cycle;
        core.counters = snap.counters;
        core.pending = 0;
        core.fcu_armed = false;
    }

    /// Snapshot of the cumulative counters.
    pub fn counters(&self) -> FaultCounters {
        self.lock().counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::inert(7));
        inj.set_fcu_armed(true);
        for _ in 0..1000 {
            assert!(inj.lane_fault(8).is_none());
            assert!(inj.tree_fault().is_none());
            assert!(!inj.lifo_drop());
            assert!(!inj.fifo_drop());
            assert!(!inj.cache_parity_on_hit());
            assert!(inj.memory_stuck(3, 4, 64).is_none());
        }
        assert_eq!(inj.counters(), FaultCounters::default());
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let plan = FaultPlan::inert(99)
            .with_fcu_lane_rate(0.3)
            .with_fcu_tree_rate(0.2)
            .with_lifo_drop_rate(0.1);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        a.set_fcu_armed(true);
        b.set_fcu_armed(true);
        for _ in 0..500 {
            assert_eq!(a.lane_fault(8), b.lane_fault(8));
            assert_eq!(a.tree_fault(), b.tree_fault());
            assert_eq!(a.lifo_drop(), b.lifo_drop());
        }
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn disarmed_fcu_never_fires_and_consumes_no_randomness() {
        let plan = FaultPlan::inert(5).with_fcu_lane_rate(1.0).with_lifo_drop_rate(0.5);
        let armed = FaultInjector::new(plan.clone());
        let disarmed = FaultInjector::new(plan);
        armed.set_fcu_armed(true);
        for _ in 0..100 {
            assert!(armed.lane_fault(4).is_some());
            assert!(disarmed.lane_fault(4).is_none());
        }
        // The disarmed injector's transient stream is unperturbed: its drop
        // decisions match a fresh injector's.
        let fresh = FaultInjector::new(FaultPlan::inert(5).with_lifo_drop_rate(0.5));
        for _ in 0..100 {
            assert_eq!(disarmed.lifo_drop(), fresh.lifo_drop());
        }
    }

    #[test]
    fn window_gates_transient_faults() {
        let plan = FaultPlan::inert(11).with_fcu_tree_rate(1.0).with_window(100, 200);
        let inj = FaultInjector::new(plan);
        inj.set_fcu_armed(true);
        inj.set_cycle(50);
        assert!(inj.tree_fault().is_none());
        inj.set_cycle(150);
        assert!(inj.tree_fault().is_some());
        inj.set_cycle(201);
        assert!(inj.tree_fault().is_none());
    }

    #[test]
    fn memory_stuck_is_persistent_per_address() {
        let plan = FaultPlan::inert(13).with_memory_stuck_rate(0.5);
        let inj = FaultInjector::new(plan);
        let mut afflicted = 0;
        for br in 0..32 {
            for bc in 0..32 {
                let first = inj.memory_stuck(br, bc, 64);
                // Every re-query (a retry, a later iteration) sees the same
                // fault at the same word and bit.
                assert_eq!(first, inj.memory_stuck(br, bc, 64));
                if first.is_some() {
                    afflicted += 1;
                }
            }
        }
        assert!(afflicted > 0, "rate 0.5 over 1024 blocks must afflict some");
        assert!(afflicted < 1024, "rate 0.5 must leave some blocks clean");
    }

    #[test]
    fn scope_accounting_tracks_detection_and_recovery() {
        let plan = FaultPlan::inert(17).with_fcu_tree_rate(1.0);
        let inj = FaultInjector::new(plan);
        inj.set_fcu_armed(true);
        inj.begin_scope();
        assert!(inj.tree_fault().is_some());
        assert!(inj.tree_fault().is_some());
        let caught = inj.confirm_detected();
        assert_eq!(caught, 2);
        inj.note_recovered(caught);
        inj.note_retry();
        let c = inj.counters();
        assert_eq!(c.injected, 2);
        assert_eq!(c.detected, 2);
        assert_eq!(c.recovered, 2);
        assert_eq!(c.retries, 1);
    }

    #[test]
    fn scheduler_wedge_fires_at_threshold() {
        let inj = FaultInjector::new(FaultPlan::inert(3).with_dsymgs_stall_after(5));
        assert!(!inj.scheduler_wedged(4));
        assert!(inj.scheduler_wedged(5));
        assert!(inj.scheduler_wedged(100));
        let clean = FaultInjector::new(FaultPlan::inert(3));
        assert!(!clean.scheduler_wedged(u64::MAX));
        assert!(!FaultPlan::inert(3).with_dsymgs_stall_after(0).is_inert());
    }

    #[test]
    fn snapshot_restore_replays_identical_fault_stream() {
        let plan = FaultPlan::inert(21).with_fcu_tree_rate(0.4);
        let inj = FaultInjector::new(plan);
        inj.set_fcu_armed(true);
        for _ in 0..37 {
            let _ = inj.tree_fault();
        }
        let snap = inj.snapshot();
        let tail: Vec<Option<u32>> = (0..50).map(|_| {
            inj.set_fcu_armed(true);
            inj.tree_fault()
        }).collect();
        let counters_after = inj.counters();
        inj.restore(&snap);
        let replay: Vec<Option<u32>> = (0..50).map(|_| {
            inj.set_fcu_armed(true);
            inj.tree_fault()
        }).collect();
        assert_eq!(tail, replay);
        assert_eq!(inj.counters(), counters_after);
    }

    #[test]
    fn flip_bit_is_involutive_and_handles_zero() {
        let v = 3.375_f64;
        assert_eq!(flip_bit(flip_bit(v, 52), 52), v);
        assert_ne!(flip_bit(v, 48), v);
        // Zero becomes a large, detectable value rather than a denormal.
        assert!(flip_bit(0.0, 48).abs() > 1.0);
    }

    #[test]
    fn counters_merge_and_delta() {
        let a = FaultCounters { injected: 3, detected: 2, recovered: 1, retries: 4, degraded: 0 };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.injected, 6);
        assert_eq!(b.delta(&a), a);
        assert!(a.any());
        assert!(!FaultCounters::default().any());
    }
}
