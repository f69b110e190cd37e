//! The workspace's one splitmix64.
//!
//! Every seeded subsystem in the workspace (client backoff jitter, chaos
//! fault scheduling, storage fault draws, breaker probe jitter, the alasm
//! program generator, the simulator's fault injector) derives its streams
//! from splitmix64. It lives in this std-only crate because it is the
//! lowest one all of them reach; `alrescha::util` re-exports it. There is
//! exactly one implementation, pinned by a known-answer test against the
//! reference vectors from Steele/Lea/Flood's SplittableRandom stream.

/// Advance `state` one splitmix64 step and return the output word.
///
/// This is the raw stream function: callers that keep their own `u64`
/// state (chaos substream derivation, storage draws) use it directly so
/// their historical bit streams are preserved exactly.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a raw splitmix64 output word onto `[0, 1)`.
///
/// Uses the top 53 bits so the result is an exactly-representable f64 —
/// the same mapping the chaos injectors have always used.
#[inline]
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// Stateful splitmix64 stream — the ergonomic wrapper over [`splitmix64`].
///
/// `SplitMix64::new(seed).next_u64()` produces the identical stream to
/// `let mut s = seed; splitmix64(&mut s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform draw in `[0, bound)`; returns 0 for `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Current internal state (for substream derivation).
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test: first outputs of the splitmix64 stream for
    /// seed 0 and seed 0x1234_5678, cross-checked against the published
    /// SplittableRandom reference implementation. If this test moves,
    /// every seeded repro line in the repo (CHAOS_SEED, ALASM_SEED,
    /// client backoff schedules) silently changes meaning — never
    /// "fix" the constants to make it pass.
    #[test]
    fn known_answer_pinned() {
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);

        let mut s = 0x1234_5678u64;
        assert_eq!(splitmix64(&mut s), 0x38F1_DC39_D190_6B6F);
    }

    #[test]
    fn wrapper_matches_raw_stream() {
        let mut raw = 42u64;
        let mut rng = SplitMix64::new(42);
        for _ in 0..16 {
            assert_eq!(rng.next_u64(), splitmix64(&mut raw));
        }
        assert_eq!(rng.state(), raw);
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..256 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_respects_bound_and_zero() {
        let mut rng = SplitMix64::new(9);
        assert_eq!(rng.below(0), 0);
        for _ in 0..256 {
            assert!(rng.below(10) < 10);
        }
    }
}
