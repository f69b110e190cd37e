//! The RCU's local cache (Table 5: 1 KB, 64-byte lines, 4-cycle access).
//!
//! The cache holds the addressable vector operands — `xᵗ⁻¹`, `xᵗ`, `b`, and
//! for SymGS the extracted diagonal of `A` (§4.3). The paper's key cache
//! claim is *locality by construction*: the locally-dense format consumes a
//! whole ω-element chunk of the vector per block, so the values of one cache
//! line are used in succeeding cycles and each element of the vector operand
//! is fetched only once per `n/ω` pass (§4.2).

use crate::config::SimConfig;
use crate::fault::FaultInjector;

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the word was resident.
    pub hit: bool,
    /// Cycles charged for this access (hit latency, plus the memory round
    /// trip on a miss).
    pub cycles: u64,
}

/// A set-associative local cache over 64-bit words, addressed by word
/// index (direct-mapped when `cache_ways` is 1, the paper configuration).
///
/// Word addresses are an abstract vector-element space managed by the
/// caller; the cache maps them onto lines of `values_per_line` words.
/// Replacement within a set is LRU.
#[derive(Debug, Clone)]
pub struct LocalCache {
    values_per_line: usize,
    num_sets: usize,
    /// `log2(values_per_line)` and `num_sets - 1` when those are powers of
    /// two, so that a word's line and a line's set are a shift and a mask;
    /// other geometries divide.
    line_shift: Option<u32>,
    set_mask: Option<usize>,
    ways: usize,
    hit_latency: u64,
    miss_latency: u64,
    /// `num_sets × ways` tags (`usize::MAX` = invalid), LRU-ordered within
    /// each set: position 0 is most recent.
    tags: Vec<usize>,
    hits: u64,
    misses: u64,
    writes: u64,
    faults: Option<FaultInjector>,
}

impl LocalCache {
    /// Builds the cache from a simulator configuration.
    pub fn new(config: &SimConfig) -> Self {
        let lines = config.cache_lines();
        let ways = config.cache_ways.clamp(1, lines);
        let values_per_line = config.values_per_line();
        let num_sets = (lines / ways).max(1);
        LocalCache {
            values_per_line,
            num_sets,
            line_shift: values_per_line
                .is_power_of_two()
                .then(|| values_per_line.trailing_zeros()),
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            ways,
            hit_latency: config.cache_latency,
            miss_latency: config.cache_latency + config.mem_latency_cycles,
            tags: vec![usize::MAX; lines],
            hits: 0,
            misses: 0,
            writes: 0,
            faults: None,
        }
    }

    /// Attaches (or detaches) a fault injector for parity-error modeling.
    pub fn attach_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// The line holding word `word_addr`.
    #[inline]
    fn line_of(&self, word_addr: usize) -> usize {
        match self.line_shift {
            Some(shift) => word_addr >> shift,
            None => word_addr / self.values_per_line,
        }
    }

    /// Probes a line address; returns hit/miss and makes the line resident
    /// and most-recently-used.
    #[inline]
    fn touch(&mut self, line_addr: usize) -> bool {
        let set = match self.set_mask {
            Some(mask) => line_addr & mask,
            None => line_addr % self.num_sets,
        };
        if self.ways == 1 {
            let tag = &mut self.tags[set];
            let hit = *tag == line_addr;
            *tag = line_addr;
            hit
        } else {
            self.touch_ways(set, line_addr)
        }
    }

    /// [`LocalCache::touch`] in a set of more than one way: a linear tag
    /// search, then an LRU rotate. Kept out of line, so that the
    /// direct-mapped probe inlines into its callers.
    #[inline(never)]
    fn touch_ways(&mut self, set: usize, line_addr: usize) -> bool {
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        if let Some(pos) = slots.iter().position(|&t| t == line_addr) {
            slots[..=pos].rotate_right(1);
            true
        } else {
            slots.rotate_right(1);
            slots[0] = line_addr;
            false
        }
    }

    /// Reads one word; fills the line on a miss.
    ///
    /// With a fault injector attached, a hit line may suffer a parity error:
    /// detection is transparent and the line is refetched, so the access is
    /// accounted (and billed) as a miss.
    pub fn read(&mut self, word_addr: usize) -> CacheAccess {
        let hit = self.touch(self.line_of(word_addr));
        if hit {
            if let Some(inj) = &self.faults {
                if inj.cache_parity_on_hit() {
                    self.misses += 1;
                    return CacheAccess {
                        hit: false,
                        cycles: self.miss_latency,
                    };
                }
            }
            self.hits += 1;
            CacheAccess {
                hit: true,
                cycles: self.hit_latency,
            }
        } else {
            self.misses += 1;
            CacheAccess {
                hit: false,
                cycles: self.miss_latency,
            }
        }
    }

    /// Reads the `len` consecutive words from `word_addr` on; returns
    /// whether any of them missed.
    ///
    /// Counts exactly what `len` calls to [`LocalCache::read`] would. With
    /// no injector attached each line is probed once: the first word
    /// decides hit or miss, and the line's remaining words are hits on the
    /// now-resident, most-recently-used line (re-touching it changes no
    /// LRU state). With an injector attached the words are read one by
    /// one, because every hit draws a parity-error decision from the fault
    /// stream.
    pub fn read_run(&mut self, word_addr: usize, len: usize) -> bool {
        let mut missed = false;
        if self.faults.is_some() {
            for w in word_addr..word_addr + len {
                missed |= !self.read(w).hit;
            }
            return missed;
        }
        let end = word_addr + len;
        let mut w = word_addr;
        while w < end {
            let line = self.line_of(w);
            let next = ((line + 1) * self.values_per_line).min(end);
            let words = (next - w) as u64;
            if self.touch(line) {
                self.hits += words;
            } else {
                self.misses += 1;
                self.hits += words - 1;
                missed = true;
            }
            w = next;
        }
        missed
    }

    /// Writes the `len` consecutive words from `word_addr` on, counting
    /// exactly what `len` calls to [`LocalCache::write`] would. Writes draw
    /// nothing from the fault stream, so each line is probed once.
    pub fn write_run(&mut self, word_addr: usize, len: usize) {
        let end = word_addr + len;
        let mut w = word_addr;
        while w < end {
            let line = self.line_of(w);
            let next = ((line + 1) * self.values_per_line).min(end);
            self.touch(line);
            self.writes += (next - w) as u64;
            w = next;
        }
    }

    /// Writes one word (write-allocate: the line becomes resident).
    pub fn write(&mut self, word_addr: usize) -> CacheAccess {
        let hit = self.touch(self.line_of(word_addr));
        self.writes += 1;
        CacheAccess {
            hit,
            cycles: self.hit_latency,
        }
    }

    /// Invalidates every line (e.g. between kernels).
    pub fn flush(&mut self) {
        self.tags.fill(usize::MAX);
    }

    /// Returns the cache to its just-built state: contents flushed, hit and
    /// miss counters zeroed, injector detached. Keeps the tag storage
    /// allocation (geometry is config-derived and unchanged).
    pub fn reset(&mut self) {
        self.flush();
        self.hits = 0;
        self.misses = 0;
        self.writes = 0;
        self.faults = None;
    }

    /// Adds a memoised run's read and write counts to the totals. Its
    /// tags need no replay: every run starts by flushing them.
    pub(crate) fn replay(&mut self, run: &crate::report::CacheStats) {
        self.hits += run.hits;
        self.misses += run.misses;
        self.writes += run.writes;
    }

    /// Read hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Read misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Writes so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.writes
    }

    /// Read hit rate in `[0, 1]` (1.0 when no reads happened).
    pub fn hit_rate(&self) -> f64 {
        let reads = self.hits + self.misses;
        if reads == 0 {
            1.0
        } else {
            self.hits as f64 / reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cache() -> LocalCache {
        LocalCache::new(&SimConfig::paper())
    }

    #[test]
    fn first_access_misses_then_line_hits() {
        let mut c = cache();
        let miss = c.read(0);
        assert!(!miss.hit);
        assert_eq!(miss.cycles, 4 + 250);
        // Remaining 7 words of the 64-byte line are resident.
        for w in 1..8 {
            let a = c.read(w);
            assert!(a.hit, "word {w}");
            assert_eq!(a.cycles, 4);
        }
        assert_eq!(c.hits(), 7);
        assert_eq!(c.misses(), 1);
    }

    /// Independent reference: per-set MRU-first line lists, indexed with
    /// `/` and `%` whatever the geometry.
    struct Model {
        values_per_line: usize,
        ways: usize,
        sets: Vec<Vec<usize>>,
    }

    impl Model {
        fn access(&mut self, word: usize) -> bool {
            let line = word / self.values_per_line;
            let num_sets = self.sets.len();
            let set = &mut self.sets[line % num_sets];
            let hit = set
                .iter()
                .position(|&t| t == line)
                .map(|pos| set.remove(pos));
            set.insert(0, line);
            set.truncate(self.ways);
            hit.is_some()
        }

        /// The cache's tag array: each set's lines, MRU first, padded with
        /// invalid tags; slots past the last set stay invalid.
        fn tags(&self, slots: usize) -> Vec<usize> {
            let mut tags: Vec<usize> = self
                .sets
                .iter()
                .flat_map(|set| {
                    let pad = self.ways - set.len();
                    set.iter()
                        .copied()
                        .chain(std::iter::repeat_n(usize::MAX, pad))
                })
                .collect();
            tags.resize(slots, usize::MAX);
            tags
        }
    }

    /// A cache geometry: words per line, line count and ways (1, 2, 3, 4
    /// or all), covering power-of-two and other line sizes and set counts.
    fn geometry() -> impl Strategy<Value = SimConfig> {
        const WORDS: [usize; 7] = [1, 2, 3, 4, 5, 8, 16];
        const WAYS: [usize; 5] = [1, 2, 3, 4, usize::MAX];
        (0..WORDS.len(), 1usize..=40, 0..WAYS.len()).prop_map(|(w, lines, k)| {
            let mut config = SimConfig::paper();
            config.cache_line_bytes = WORDS[w] * 8;
            config.cache_bytes = lines * WORDS[w] * 8;
            config.with_cache_ways(WAYS[k].min(lines))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Runs count exactly like single-word accesses, and both match the
        /// reference model counter for counter and tag for tag.
        #[test]
        fn runs_count_exactly_like_single_word_accesses(
            config in geometry(),
            runs in proptest::collection::vec((0usize..600, 0usize..40, 0u8..2), 1..40),
        ) {
            let mut per_line = LocalCache::new(&config);
            let mut per_word = LocalCache::new(&config);
            let lines = config.cache_lines();
            let ways = config.cache_ways;
            let mut model = Model {
                values_per_line: config.values_per_line(),
                ways,
                sets: vec![Vec::new(); (lines / ways).max(1)],
            };
            let (mut hits, mut misses, mut writes) = (0u64, 0u64, 0u64);
            for (k, &(start, len, write)) in runs.iter().enumerate() {
                if write == 1 {
                    per_line.write_run(start, len);
                    for w in start..start + len {
                        per_word.write(w);
                        model.access(w);
                        writes += 1;
                    }
                } else {
                    let mut missed = false;
                    for w in start..start + len {
                        let hit = per_word.read(w).hit;
                        prop_assert_eq!(hit, model.access(w), "run {}, word {}", k, w);
                        missed |= !hit;
                        if hit { hits += 1 } else { misses += 1 }
                    }
                    prop_assert_eq!(per_line.read_run(start, len), missed, "run {}", k);
                }
                prop_assert_eq!(&per_line.tags, &per_word.tags, "run {}", k);
                prop_assert_eq!(&per_word.tags, &model.tags(lines), "run {}", k);
                let counts = (hits, misses, writes);
                prop_assert_eq!((per_line.hits(), per_line.misses(), per_line.writes()), counts);
                prop_assert_eq!((per_word.hits(), per_word.misses(), per_word.writes()), counts);
            }
        }
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = cache();
        // 16 lines x 8 words = 128 words; word 0 and word 1024 share set 0 (1024/8=128, 128%16=0).
        assert!(!c.read(0).hit);
        assert!(!c.read(1024).hit);
        assert!(!c.read(0).hit, "line must have been evicted");
    }

    #[test]
    fn sequential_chunk_reads_have_high_hit_rate() {
        let mut c = cache();
        for w in 0..128 {
            c.read(w);
        }
        // 16 misses (one per line), 112 hits.
        assert_eq!(c.misses(), 16);
        assert!((c.hit_rate() - 112.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn write_allocates() {
        let mut c = cache();
        c.write(8);
        assert!(c.read(8).hit);
        assert_eq!(c.writes(), 1);
        assert_eq!(c.accesses(), 2);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = cache();
        c.read(0);
        c.flush();
        assert!(!c.read(0).hit);
    }

    #[test]
    fn empty_cache_hit_rate_is_one() {
        assert_eq!(cache().hit_rate(), 1.0);
    }

    #[test]
    fn parity_fault_converts_hit_into_recovered_miss() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut c = cache();
        let inj = FaultInjector::new(FaultPlan::inert(1).with_cache_fault_rate(1.0));
        c.attach_injector(Some(inj.clone()));
        assert!(!c.read(0).hit, "cold miss");
        let again = c.read(0);
        assert!(!again.hit, "parity error forces a refetch");
        assert_eq!(again.cycles, 4 + 250);
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 0);
        let counters = inj.counters();
        assert_eq!(counters.injected, 1);
        assert_eq!(counters.detected, 1);
        assert_eq!(counters.recovered, 1);
    }
}

#[cfg(test)]
mod associativity_tests {
    use super::*;

    #[test]
    fn two_way_survives_the_direct_mapped_conflict() {
        let config = SimConfig::paper().with_cache_ways(2);
        let mut c = LocalCache::new(&config);
        // Words 0 and 1024 conflict in the direct-mapped layout; with two
        // ways both stay resident.
        assert!(!c.read(0).hit);
        assert!(!c.read(1024).hit);
        assert!(c.read(0).hit);
        assert!(c.read(1024).hit);
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        let config = SimConfig::paper().with_cache_ways(2);
        let mut c = LocalCache::new(&config);
        // Three lines mapping to one set (8 sets at 2 ways): line addresses
        // 0, 8, 16 all hit set 0.
        c.read(0); // line 0
        c.read(64); // line 8
        c.read(128); // line 16 -> evicts line 0 (LRU)
        assert!(!c.read(0).hit, "line 0 must have been evicted");
        assert!(c.read(128).hit, "line 16 must survive");
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let config = SimConfig::paper().with_cache_ways(16);
        let mut c = LocalCache::new(&config);
        for line in 0..16 {
            c.read(line * 8);
        }
        for line in 0..16 {
            assert!(c.read(line * 8).hit, "line {line}");
        }
        // The 17th distinct line evicts exactly one resident line.
        c.read(16 * 8);
        let resident = (0..17)
            .filter(|&l| {
                let mut probe = c.clone();
                probe.read(l * 8).hit
            })
            .count();
        assert_eq!(resident, 16);
    }

    #[test]
    #[should_panic(expected = "invalid associativity")]
    fn zero_ways_rejected() {
        let _ = SimConfig::paper().with_cache_ways(0);
    }
}
