//! Circuit breaker for accelerator→CPU backend failover.
//!
//! The facade ([`Alrescha`](crate::accelerator::Alrescha)) treats the
//! simulated accelerator as a flaky backend: an operation that keeps
//! tripping fault detection is retried with exponential backoff, and after
//! `failure_threshold` consecutive failed *operations* the breaker opens
//! and routes work to the bit-exact CPU kernels. After `cooldown_ops`
//! CPU-served operations it half-opens and sends a single probe back to the
//! device; a successful probe re-closes the breaker, a failed probe re-opens
//! it for another cooldown.
//!
//! ```text
//!            K consecutive failures
//!   Closed ───────────────────────────▶ Open
//!     ▲                                  │ cooldown_ops CPU runs
//!     │ probe succeeds                   ▼
//!     └────────────────────────────── HalfOpen ──▶ (probe fails → Open)
//! ```
//!
//! Everything is deterministic: the backoff jitter comes from a SplitMix64
//! stream seeded by [`BreakerConfig::jitter_seed`], so a replayed run makes
//! identical failover decisions and charges identical recovery cycles.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use alrescha_sim::BreakerStats;

/// Tuning knobs for [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failed operations (all device attempts exhausted) that
    /// trip the breaker open.
    pub failure_threshold: u32,
    /// Operations served by the CPU while open before a half-open probe.
    pub cooldown_ops: u32,
    /// Device attempts per operation while closed (≥ 1; a half-open probe
    /// always gets exactly one).
    pub max_attempts: u32,
    /// Backoff before retry `i` starts from `backoff_base_cycles · 2^i`.
    pub backoff_base_cycles: u64,
    /// Upper bound on a single backoff wait.
    pub backoff_cap_cycles: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ops: 4,
            max_attempts: 3,
            backoff_base_cycles: 64,
            backoff_cap_cycles: 4096,
            jitter_seed: 0xA17E_5C4A_B12E_A4E1,
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: operations run on the device (with bounded retries).
    Closed,
    /// Tripped: operations are served by the CPU backend.
    Open,
    /// Cooling down finished: the next operation is a single device probe.
    HalfOpen,
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

/// Routing decision for one operation, returned by [`CircuitBreaker::gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Run on the device with up to this many attempts.
    Device {
        /// Attempt budget for this operation (≥ 1).
        attempts: u32,
    },
    /// Half-open probe: one device attempt, no retries.
    Probe,
    /// Breaker is open: serve from the CPU backend.
    Cpu,
}

/// Deterministic circuit breaker (see the module docs for the state
/// machine).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_remaining: u32,
    rng: u64,
    stats: BreakerStats,
}

use crate::util::splitmix64;

impl CircuitBreaker {
    /// A closed breaker with the given configuration.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            rng: config.jitter_seed,
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_remaining: 0,
            stats: BreakerStats::default(),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The active configuration.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// Cumulative transition statistics since construction.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// Routes the next operation. Counts a cooldown tick when open and a
    /// probe when (transitioning to) half-open, so call exactly once per
    /// operation.
    pub fn gate(&mut self) -> BackendChoice {
        match self.state {
            BreakerState::Closed => BackendChoice::Device {
                attempts: self.config.max_attempts.max(1),
            },
            BreakerState::Open => {
                if self.cooldown_remaining == 0 {
                    self.state = BreakerState::HalfOpen;
                    self.stats.half_open_probes += 1;
                    BackendChoice::Probe
                } else {
                    self.cooldown_remaining -= 1;
                    self.stats.cpu_fallback_runs += 1;
                    BackendChoice::Cpu
                }
            }
            // Only reachable when a prior probe aborted without a verdict
            // (e.g. a structural error): probe again.
            BreakerState::HalfOpen => {
                self.stats.half_open_probes += 1;
                BackendChoice::Probe
            }
        }
    }

    /// Records a successful device operation: resets the failure run and
    /// re-closes the breaker (a successful half-open probe heals it).
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Records a failed device operation (every attempt exhausted). Returns
    /// `true` when this failure trips the breaker open.
    pub fn record_failure(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip();
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.trip();
                true
            }
            BreakerState::Open => false,
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.cooldown_remaining = self.config.cooldown_ops;
        self.consecutive_failures = 0;
        self.stats.trips += 1;
    }

    /// Backoff before retry `attempt` (0-based): exponential growth from
    /// `backoff_base_cycles`, capped, with deterministic equal-jitter (the
    /// wait lands in `[cap/2, cap]` of the capped exponential value).
    pub fn backoff_cycles(&mut self, attempt: u32) -> u64 {
        let exp = self
            .config
            .backoff_base_cycles
            .saturating_mul(1u64 << attempt.min(32));
        let capped = exp.min(self.config.backoff_cap_cycles);
        let half = capped / 2;
        let jitter = splitmix64(&mut self.rng) % (half + 1);
        (half + jitter).min(self.config.backoff_cap_cycles)
    }
}

// ---------------------------------------------------------------------------
// Shared breaker
// ---------------------------------------------------------------------------

/// State behind a [`SharedBreaker`]'s lock.
#[derive(Debug)]
struct SharedState {
    breaker: CircuitBreaker,
    /// A half-open probe has been issued and its verdict has not arrived.
    probe_inflight: bool,
}

fn lock(m: &Mutex<SharedState>) -> MutexGuard<'_, SharedState> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread-safe [`CircuitBreaker`] shared by every worker of a persistent
/// service, with one extra guarantee the per-job breaker cannot give:
/// **at most one half-open probe is outstanding at a time**. Concurrent
/// operations gated while a probe is in flight are served from the CPU —
/// without this, every worker that called [`CircuitBreaker::gate`] during
/// the half-open window would hammer the possibly-still-broken device at
/// once, defeating the point of probing.
///
/// Every verdict goes through [`SharedBreaker::record`] with the choice
/// [`SharedBreaker::gate`] returned: only a probe's verdict clears the
/// in-flight flag, so a stale device verdict from an operation gated
/// before the trip can never unlock a second probe.
#[derive(Debug, Clone)]
pub struct SharedBreaker {
    inner: Arc<Mutex<SharedState>>,
}

impl SharedBreaker {
    /// A closed shared breaker.
    pub fn new(config: BreakerConfig) -> Self {
        SharedBreaker {
            inner: Arc::new(Mutex::new(SharedState {
                breaker: CircuitBreaker::new(config),
                probe_inflight: false,
            })),
        }
    }

    /// Routes the next operation (see [`CircuitBreaker::gate`]); while a
    /// probe is in flight every other caller is routed to the CPU.
    pub fn gate(&self) -> BackendChoice {
        let mut s = lock(&self.inner);
        // While a probe is outstanding, everyone else goes to the CPU —
        // regardless of state, because a stale (non-probe) verdict may
        // have moved the breaker under the in-flight probe, and only a
        // probe's verdict may free the single probe slot.
        if s.probe_inflight {
            s.breaker.stats.cpu_fallback_runs += 1;
            return BackendChoice::Cpu;
        }
        let choice = s.breaker.gate();
        if choice == BackendChoice::Probe {
            s.probe_inflight = true;
        }
        choice
    }

    /// Records the outcome of an operation routed by
    /// [`SharedBreaker::gate`]. A [`BackendChoice::Probe`] verdict clears
    /// the in-flight flag, then heals (success) or re-opens (failure) the
    /// breaker; a [`BackendChoice::Device`] verdict is recorded and leaves
    /// the flag alone; a [`BackendChoice::Cpu`] operation never touched
    /// the device and records nothing.
    pub fn record(&self, choice: BackendChoice, success: bool) {
        let mut s = lock(&self.inner);
        match choice {
            BackendChoice::Cpu => return,
            BackendChoice::Probe => s.probe_inflight = false,
            BackendChoice::Device { .. } => {}
        }
        if success {
            s.breaker.record_success();
        } else {
            s.breaker.record_failure();
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        lock(&self.inner).breaker.state()
    }

    /// Cumulative transition statistics since construction.
    pub fn stats(&self) -> BreakerStats {
        lock(&self.inner).breaker.stats()
    }

    /// Deterministic equal-jitter backoff (see
    /// [`CircuitBreaker::backoff_cycles`]); the jitter stream is shared, so
    /// concurrent callers draw distinct waits.
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        lock(&self.inner).breaker.backoff_cycles(attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown_ops: 2,
            max_attempts: 3,
            backoff_base_cycles: 64,
            backoff_cap_cycles: 4096,
            jitter_seed: 1,
        })
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = breaker();
        assert_eq!(b.gate(), BackendChoice::Device { attempts: 3 });
        assert!(!b.record_failure());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record_failure());
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 1);
    }

    #[test]
    fn success_resets_the_failure_run() {
        let mut b = breaker();
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure());
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn open_serves_cpu_then_half_opens() {
        let mut b = breaker();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.gate(), BackendChoice::Cpu);
        assert_eq!(b.gate(), BackendChoice::Cpu);
        assert_eq!(b.gate(), BackendChoice::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        let s = b.stats();
        assert_eq!((s.cpu_fallback_runs, s.half_open_probes), (2, 1));
    }

    #[test]
    fn failed_probe_reopens_successful_probe_heals() {
        let mut b = breaker();
        b.record_failure();
        b.record_failure();
        b.gate();
        b.gate();
        assert_eq!(b.gate(), BackendChoice::Probe);
        assert!(b.record_failure());
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 2);

        b.gate();
        b.gate();
        assert_eq!(b.gate(), BackendChoice::Probe);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.gate(), BackendChoice::Device { attempts: 3 });
    }

    #[test]
    fn backoff_grows_exponentially_stays_capped_and_is_deterministic() {
        let mut a = breaker();
        let mut b = breaker();
        let mut prev_cap = 0u64;
        for attempt in 0..12 {
            let wa = a.backoff_cycles(attempt);
            let wb = b.backoff_cycles(attempt);
            assert_eq!(wa, wb, "jitter must be deterministic");
            assert!(wa <= 4096, "cap violated: {wa}");
            let capped = (64u64 << attempt.min(32)).min(4096);
            assert!(wa >= capped / 2, "equal-jitter lower bound violated");
            assert!(capped >= prev_cap, "exponential envelope must not shrink");
            prev_cap = capped;
        }
    }

    #[test]
    fn states_display() {
        assert_eq!(BreakerState::Closed.to_string(), "closed");
        assert_eq!(BreakerState::Open.to_string(), "open");
        assert_eq!(BreakerState::HalfOpen.to_string(), "half-open");
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    const DEVICE: BackendChoice = BackendChoice::Device { attempts: 1 };

    /// A shared breaker already tripped open with a zero cooldown, so the
    /// very next gate is the half-open probe.
    fn tripped_shared() -> SharedBreaker {
        let sb = SharedBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown_ops: 0,
            max_attempts: 1,
            ..BreakerConfig::default()
        });
        sb.record(DEVICE, false);
        sb
    }

    #[test]
    fn only_one_probe_while_half_open() {
        let sb = tripped_shared();
        assert_eq!(sb.state(), BreakerState::Open);
        assert_eq!(sb.gate(), BackendChoice::Probe);
        assert_eq!(sb.state(), BreakerState::HalfOpen);
        // While the probe is in flight everyone else is served by the CPU.
        assert_eq!(sb.gate(), BackendChoice::Cpu);
        assert_eq!(sb.gate(), BackendChoice::Cpu);
        // A failed probe re-opens; a healing probe then re-closes.
        sb.record(BackendChoice::Probe, false);
        assert_eq!(sb.state(), BreakerState::Open);
        assert_eq!(sb.gate(), BackendChoice::Probe);
        sb.record(BackendChoice::Probe, true);
        assert_eq!(sb.state(), BreakerState::Closed);
        assert!(matches!(sb.gate(), BackendChoice::Device { .. }));
    }

    #[test]
    fn stale_non_probe_verdicts_do_not_unlock_a_second_probe() {
        let sb = tripped_shared();
        assert_eq!(sb.gate(), BackendChoice::Probe);
        // A worker gated before the trip reports its late failure: the
        // probe slot must stay occupied.
        sb.record(DEVICE, false);
        assert_eq!(sb.gate(), BackendChoice::Cpu, "probe still in flight");
        // A CPU-served op never touched the device: its verdict is ignored.
        sb.record(BackendChoice::Cpu, true);
        assert_eq!(sb.state(), BreakerState::Open);
        sb.record(BackendChoice::Probe, true);
        assert_eq!(sb.state(), BreakerState::Closed);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Under concurrent jobs, the half-open window admits exactly one
        /// probe to the device at a time: every other gate taken while a
        /// probe is outstanding is served from the CPU. Workers report
        /// failures on ordinary device ops so the breaker keeps cycling
        /// Closed → Open → HalfOpen and the window is exercised repeatedly.
        #[test]
        fn exactly_one_probe_on_device_while_half_open(
            workers in 2usize..6,
            ops_per_worker in 1usize..24,
            heal_raw in 0u32..2,
        ) {
            let heal = heal_raw == 1;
            let sb = tripped_shared();
            let probes_on_device = Arc::new(AtomicU32::new(0));
            let violated = Arc::new(AtomicBool::new(false));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let sb = sb.clone();
                    let probes_on_device = Arc::clone(&probes_on_device);
                    let violated = Arc::clone(&violated);
                    scope.spawn(move || {
                        for op in 0..ops_per_worker {
                            match sb.gate() {
                                choice @ BackendChoice::Probe => {
                                    if probes_on_device.fetch_add(1, Ordering::SeqCst) != 0 {
                                        violated.store(true, Ordering::SeqCst);
                                    }
                                    std::thread::yield_now();
                                    probes_on_device.fetch_sub(1, Ordering::SeqCst);
                                    sb.record(choice, heal && op % 2 == 0);
                                }
                                // Ordinary op while closed: fail it so the
                                // breaker trips again (threshold 1). A CPU
                                // op's verdict is a no-op.
                                choice => sb.record(choice, false),
                            }
                        }
                    });
                }
            });
            prop_assert!(
                !violated.load(Ordering::SeqCst),
                "two half-open probes were on the device at once"
            );
        }
    }
}
