//! Per-tenant SLO accounting: burn-rate windows and end-to-end counts.
//!
//! alserve judges each tenant's **end-to-end** latency (accept →
//! terminal) against the SLO target over a sliding-window **burn rate**.
//! The burn rate feeds two consumers: the `alserve_slo_burn_rate` and
//! `alserve_slo_retry_scale` gauges on the scrape endpoint, and the quota
//! `retry_after` ramp (a tenant burning its error budget is told to back
//! off harder). The latency distributions themselves live in the
//! telemetry registry's `alserve_slo_{queue_wait,solve,e2e}_us`
//! histograms, which the server writes on every job.
//!
//! # Determinism
//!
//! The burn window is a pure fold over `(slot, good)` events keyed by a
//! caller-supplied discrete slot index, so replaying the same
//! observations in any order yields bit-identical state. The property
//! test below pins it.

use std::collections::{BTreeMap, HashMap};

/// A sliding window of good/total counts over discrete time slots.
///
/// The caller supplies the slot index (alserve uses seconds since server
/// start), which keeps the fold deterministic: state is a map keyed by
/// slot, pruned to the `window` most recent slots relative to the
/// **maximum slot seen** — never the wall clock — so replay order cannot
/// change the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurnWindow {
    window: u64,
    slots: BTreeMap<u64, (u64, u64)>, // slot -> (bad, total)
    max_slot: u64,
}

impl BurnWindow {
    /// A window spanning `window` slots (clamped to ≥1).
    pub fn new(window: u64) -> Self {
        BurnWindow {
            window: window.max(1),
            slots: BTreeMap::new(),
            max_slot: 0,
        }
    }

    /// Records one request outcome in `slot` (`good` = met the SLO).
    pub fn record(&mut self, slot: u64, good: bool) {
        let entry = self.slots.entry(slot).or_insert((0, 0));
        entry.1 += 1;
        if !good {
            entry.0 += 1;
        }
        self.max_slot = self.max_slot.max(slot);
        let horizon = self.max_slot.saturating_sub(self.window - 1);
        self.slots = self.slots.split_off(&horizon);
    }

    /// Fraction of requests inside the window that **missed** the SLO,
    /// in `[0, 1]`; `0.0` when the window is empty.
    pub fn burn_rate(&self) -> f64 {
        let horizon = self.max_slot.saturating_sub(self.window - 1);
        let (bad, total) = self
            .slots
            .range(horizon..)
            .fold((0u64, 0u64), |(b, t), (_, &(bad, total))| {
                (b + bad, t + total)
            });
        if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        }
    }

    /// Requests seen inside the current window.
    pub fn window_total(&self) -> u64 {
        let horizon = self.max_slot.saturating_sub(self.window - 1);
        self.slots.range(horizon..).map(|(_, &(_, t))| t).sum()
    }
}

/// One tenant's SLO state.
#[derive(Debug, Clone)]
struct TenantSlo {
    /// Jobs that reached a terminal state.
    e2e_count: u64,
    /// Sliding-window burn over the end-to-end target.
    burn: BurnWindow,
}

/// Per-tenant SLO table; the server holds one behind its state mutex.
#[derive(Debug)]
pub struct SloTable {
    target_e2e_us: u64,
    window_slots: u64,
    tenants: HashMap<String, TenantSlo>,
}

impl SloTable {
    /// A table judging end-to-end latency against `target_e2e_us` over a
    /// burn window of `window_slots` slots.
    pub fn new(target_e2e_us: u64, window_slots: u64) -> Self {
        SloTable {
            target_e2e_us,
            window_slots,
            tenants: HashMap::new(),
        }
    }

    /// Counts one end-to-end latency and charges the burn window for
    /// `slot` (good = under the configured target).
    pub fn observe_e2e(&mut self, tenant: &str, us: u64, slot: u64) {
        let window = self.window_slots;
        let t = self
            .tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantSlo {
                e2e_count: 0,
                burn: BurnWindow::new(window),
            });
        t.e2e_count += 1;
        t.burn.record(slot, us <= self.target_e2e_us);
    }

    /// Jobs of `tenant` that reached a terminal state (`0` for unknown
    /// tenants).
    pub fn e2e_count(&self, tenant: &str) -> u64 {
        self.tenants.get(tenant).map_or(0, |t| t.e2e_count)
    }

    /// Current burn rate for `tenant` (`0.0` for unknown tenants).
    pub fn burn_rate(&self, tenant: &str) -> f64 {
        self.tenants
            .get(tenant)
            .map_or(0.0, |t| t.burn.burn_rate())
    }

    /// Tenants with recorded state, sorted for deterministic iteration.
    pub fn tenants(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tenants.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Multiplier for the quota `retry_after` ramp: `1` when the tenant
    /// is inside its error budget, growing with the burn rate and capped
    /// at 8× so a fully-burning tenant backs off an order of magnitude
    /// without the hint becoming unbounded.
    pub fn retry_scale(&self, tenant: &str) -> u32 {
        let burn = self.burn_rate(tenant);
        // 0.0 → 1×, 1.0 → 8×, linear in between; exact at the endpoints.
        1 + (burn * 7.0).round() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn burn_window_slides_and_prunes() {
        let mut w = BurnWindow::new(3);
        w.record(0, false);
        w.record(1, true);
        assert!((w.burn_rate() - 0.5).abs() < 1e-12);
        // Slot 3 pushes slot 0 out of the 3-slot window [1, 3].
        w.record(3, true);
        assert!((w.burn_rate() - 0.0).abs() < 1e-12);
        assert_eq!(w.window_total(), 2);
    }

    #[test]
    fn retry_scale_endpoints() {
        let mut t = SloTable::new(100, 4);
        assert_eq!(t.retry_scale("ghost"), 1);
        t.observe_e2e("hot", 1_000, 0); // miss
        assert_eq!(t.retry_scale("hot"), 8);
        t.observe_e2e("cool", 10, 0); // hit
        assert_eq!(t.retry_scale("cool"), 1);
        assert_eq!((t.e2e_count("hot"), t.e2e_count("ghost")), (1, 0));
        assert_eq!(t.tenants(), ["cool", "hot"]);
    }

    proptest! {
        /// Burn windows are a deterministic fold: any permutation of the
        /// same (slot, good) events yields the same burn rate and the
        /// same retained state.
        #[test]
        fn burn_window_is_order_independent(
            raw_events in proptest::collection::vec((0u64..32, 0u8..2), 1..48),
            window in 1u64..8,
            seed in 0u64..u64::MAX,
        ) {
            let events: Vec<(u64, bool)> =
                raw_events.iter().map(|&(slot, g)| (slot, g == 1)).collect();
            let mut forward = BurnWindow::new(window);
            for &(slot, good) in &events {
                forward.record(slot, good);
            }
            // Deterministic shuffle via the shared splitmix64 stream.
            let mut shuffled = events.clone();
            let mut state = seed;
            for i in (1..shuffled.len()).rev() {
                let j = (alrescha::util::splitmix64(&mut state) % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            let mut permuted = BurnWindow::new(window);
            for &(slot, good) in &shuffled {
                permuted.record(slot, good);
            }
            prop_assert_eq!(&forward, &permuted);
            prop_assert!((forward.burn_rate() - permuted.burn_rate()).abs() < 1e-12);
        }
    }
}
