//! Per-tenant admission quotas.
//!
//! The fleet already bounds its *global* queue; the quota table layers a
//! **per-tenant in-flight cap** on top so one chatty tenant cannot occupy
//! the whole queue and starve the rest. Rejections are in-band and carry a
//! structured `retry_after` that grows linearly with how far over quota
//! the tenant is — the same worker-count-independent ramp the fleet uses
//! for `QueueFull` ([`alrescha::fleet::backpressure_ramp`]), so a client
//! backs off proportionally to the pressure it is causing.

use std::collections::HashMap;
use std::time::Duration;

use alrescha::fleet::backpressure_ramp;

/// Admission verdict for one submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaDecision {
    /// Admitted; the tenant's in-flight count was incremented.
    Admit,
    /// Over quota; retry after the hinted delay.
    Reject {
        /// Structured backpressure hint.
        retry_after: Duration,
    },
}

/// Tracks in-flight jobs per tenant and enforces a uniform cap.
#[derive(Debug)]
pub struct QuotaTable {
    per_tenant: usize,
    retry_after_hint: Duration,
    inflight: HashMap<String, usize>,
    rejections: u64,
}

impl QuotaTable {
    /// A table capping every tenant at `per_tenant` in-flight jobs, with
    /// `retry_after_hint` as the base backpressure unit.
    pub fn new(per_tenant: usize, retry_after_hint: Duration) -> Self {
        QuotaTable {
            per_tenant,
            retry_after_hint,
            inflight: HashMap::new(),
            rejections: 0,
        }
    }

    /// Tries to admit one job for `tenant`. On [`QuotaDecision::Admit`]
    /// the in-flight count is already incremented; the caller must pair it
    /// with [`QuotaTable::release`] when the job reaches a terminal state.
    pub fn try_admit(&mut self, tenant: &str) -> QuotaDecision {
        let count = self.inflight.get(tenant).copied().unwrap_or(0);
        if count >= self.per_tenant {
            self.rejections += 1;
            // Linear ramp in the overshoot, mirroring the fleet's queue
            // backpressure: 1 over cap → 1×hint, 2 over → 2×hint, …
            return QuotaDecision::Reject {
                retry_after: backpressure_ramp(self.retry_after_hint, count - self.per_tenant + 1),
            };
        }
        *self.inflight.entry(tenant.to_owned()).or_insert(0) += 1;
        QuotaDecision::Admit
    }

    /// Unconditionally charges one in-flight slot to `tenant`, bypassing
    /// the cap. Recovery uses this: a journaled job is already owed, so it
    /// must occupy quota even if the tenant would be over the line today.
    pub fn charge(&mut self, tenant: &str) {
        *self.inflight.entry(tenant.to_owned()).or_insert(0) += 1;
    }

    /// Marks one of `tenant`'s jobs terminal, freeing a quota slot.
    /// Releasing below zero is a logic error and saturates at zero.
    pub fn release(&mut self, tenant: &str) {
        if let Some(count) = self.inflight.get_mut(tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.inflight.remove(tenant);
            }
        }
    }

    /// Current in-flight count for `tenant`.
    pub fn inflight(&self, tenant: &str) -> usize {
        self.inflight.get(tenant).copied().unwrap_or(0)
    }

    /// Tenants with at least one job in flight, in no particular order.
    pub fn tenants(&self) -> impl Iterator<Item = &str> {
        self.inflight.keys().map(String::as_str)
    }

    /// Total rejections since construction.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// The uniform per-tenant cap.
    pub fn per_tenant(&self) -> usize {
        self.per_tenant
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_cap_then_rejects_with_hint() {
        let mut q = QuotaTable::new(2, Duration::from_millis(10));
        assert_eq!(q.try_admit("acme"), QuotaDecision::Admit);
        assert_eq!(q.try_admit("acme"), QuotaDecision::Admit);
        assert_eq!(
            q.try_admit("acme"),
            QuotaDecision::Reject {
                retry_after: Duration::from_millis(10)
            }
        );
        // A different tenant is unaffected.
        assert_eq!(q.try_admit("umbrella"), QuotaDecision::Admit);
        assert_eq!(q.inflight("acme"), 2);
        assert_eq!(q.inflight("umbrella"), 1);
        assert_eq!(q.rejections(), 1);
    }

    #[test]
    fn release_frees_a_slot() {
        let mut q = QuotaTable::new(1, Duration::from_millis(5));
        assert_eq!(q.try_admit("t"), QuotaDecision::Admit);
        assert!(matches!(q.try_admit("t"), QuotaDecision::Reject { .. }));
        q.release("t");
        assert_eq!(q.try_admit("t"), QuotaDecision::Admit);
    }

    #[test]
    fn release_saturates_and_cleans_up() {
        let mut q = QuotaTable::new(1, Duration::from_millis(5));
        q.release("ghost");
        assert_eq!(q.inflight("ghost"), 0);
        assert_eq!(q.try_admit("ghost"), QuotaDecision::Admit);
        q.release("ghost");
        q.release("ghost");
        assert_eq!(q.inflight("ghost"), 0);
        assert_eq!(q.try_admit("ghost"), QuotaDecision::Admit);
    }

    #[test]
    fn ramp_boundaries_first_rejection_and_growth() {
        // The linear ramp, exactly at its boundaries: the FIRST rejection
        // (count == cap) is 1×hint, and each recovery `charge` past the
        // cap adds one more hint to the next rejection.
        let hint = Duration::from_millis(7);
        let mut q = QuotaTable::new(2, hint);
        assert_eq!(q.try_admit("t"), QuotaDecision::Admit);
        assert_eq!(q.try_admit("t"), QuotaDecision::Admit);
        assert_eq!(
            q.try_admit("t"),
            QuotaDecision::Reject { retry_after: hint },
            "first rejection must be exactly 1×hint"
        );
        // Rejections do not consume slots: asking again at the same
        // occupancy yields the same hint, not a growing one.
        assert_eq!(q.try_admit("t"), QuotaDecision::Reject { retry_after: hint });
        // Recovery charges bypass the cap and push occupancy over it.
        q.charge("t"); // 3 in flight, cap 2 → excess 2
        assert_eq!(
            q.try_admit("t"),
            QuotaDecision::Reject {
                retry_after: hint * 2
            }
        );
        q.charge("t"); // 4 in flight → excess 3
        assert_eq!(
            q.try_admit("t"),
            QuotaDecision::Reject {
                retry_after: hint * 3
            }
        );
        // Draining back down to the cap boundary re-admits exactly when
        // occupancy drops below the cap.
        q.release("t"); // 3
        q.release("t"); // 2
        assert_eq!(q.try_admit("t"), QuotaDecision::Reject { retry_after: hint });
        q.release("t"); // 1 < cap
        assert_eq!(q.try_admit("t"), QuotaDecision::Admit);
        assert_eq!(q.rejections(), 5);
    }

    #[test]
    fn ramp_saturates_instead_of_overflowing() {
        // An absurd overshoot must clamp, not wrap or panic: the excess
        // saturates at u32::MAX hints and the multiply saturates at
        // Duration::MAX.
        let mut q = QuotaTable::new(0, Duration::MAX);
        for _ in 0..3 {
            q.charge("flood");
        }
        let QuotaDecision::Reject { retry_after } = q.try_admit("flood") else {
            panic!("over-cap tenant admitted");
        };
        assert_eq!(retry_after, Duration::MAX);
        // And the zero-hint degenerate case stays zero across the ramp.
        let mut zero = QuotaTable::new(0, Duration::ZERO);
        zero.charge("z");
        zero.charge("z");
        assert_eq!(
            zero.try_admit("z"),
            QuotaDecision::Reject {
                retry_after: Duration::ZERO
            }
        );
    }

    #[test]
    fn zero_cap_rejects_everything() {
        let mut q = QuotaTable::new(0, Duration::from_millis(25));
        assert_eq!(
            q.try_admit("any"),
            QuotaDecision::Reject {
                retry_after: Duration::from_millis(25)
            }
        );
    }
}
