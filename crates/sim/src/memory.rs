//! Streaming memory model.
//!
//! The locally-dense format lets the accelerator use "the whole available
//! memory bandwidth only for streaming payload" (§4.5): there is no runtime
//! meta-data traffic. The model therefore charges streaming at the full
//! configured bandwidth and tracks bytes so the engine can report bandwidth
//! utilization (the secondary axis of Figure 15).

use crate::config::SimConfig;
use crate::fault::FaultInjector;

/// Bandwidth-accounting memory stream.
#[derive(Debug, Clone)]
pub struct MemoryStream {
    values_per_cycle: f64,
    /// Values in one ω×ω block payload, and the cycles streaming them takes
    /// ([`SimConfig::stream_cycles`], computed once at construction).
    payload_values: usize,
    payload_cycles: u64,
    /// The same for one full ω-value operand chunk.
    chunk_values: usize,
    chunk_cycles: u64,
    bytes_streamed: u64,
    busy_cycles: u64,
    faults: Option<FaultInjector>,
}

impl MemoryStream {
    /// Builds the stream model from a configuration.
    pub fn new(config: &SimConfig) -> Self {
        let payload_values = config.omega * config.omega;
        MemoryStream {
            values_per_cycle: config.values_per_cycle(),
            payload_values,
            payload_cycles: config.stream_cycles(payload_values),
            chunk_values: config.omega,
            chunk_cycles: config.stream_cycles(config.omega),
            bytes_streamed: 0,
            busy_cycles: 0,
            faults: None,
        }
    }

    /// Attaches (or detaches) a fault injector for stuck-at modeling.
    pub fn attach_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// Streams one ω×ω block payload addressed by its block coordinates.
    /// Returns the transfer cycles plus any permanent stuck-at fault
    /// afflicting the payload, as `(word_index, bit)` — the same block
    /// address yields the same fault on every stream, so retries cannot
    /// mask it.
    pub fn stream_block(
        &mut self,
        block_row: usize,
        block_col: usize,
    ) -> (u64, Option<(usize, u32)>) {
        let stuck = self
            .faults
            .as_ref()
            .and_then(|inj| inj.memory_stuck(block_row, block_col, self.payload_values));
        (self.stream_payload(), stuck)
    }

    /// Streams one ω×ω block payload; returns its cycles, the same as
    /// [`MemoryStream::stream_values`] of ω² values.
    pub fn stream_payload(&mut self) -> u64 {
        self.bytes_streamed += self.payload_values as u64 * 8;
        self.busy_cycles += self.payload_cycles;
        self.payload_cycles
    }

    /// Streams `values` doubles; returns the cycles the transfer occupies
    /// the memory interface. A full ω-value chunk reads its memoised cycles;
    /// any other length (a padded tail, a CSR row) evaluates the formula.
    pub fn stream_values(&mut self, values: usize) -> u64 {
        if values == 0 {
            return 0;
        }
        let cycles = if values == self.chunk_values {
            self.chunk_cycles
        } else {
            (values as f64 / self.values_per_cycle).ceil().max(1.0) as u64
        };
        self.bytes_streamed += values as u64 * 8;
        self.busy_cycles += cycles;
        cycles
    }

    /// Records a demand transfer of raw bytes (vector spills, result
    /// write-backs) without a cycle charge — callers charge latency
    /// explicitly when it is not hidden by streaming.
    pub fn record_bytes(&mut self, bytes: u64) {
        self.bytes_streamed += bytes;
    }

    /// Total bytes moved.
    pub fn bytes_streamed(&self) -> u64 {
        self.bytes_streamed
    }

    /// Cycles the interface spent busy streaming.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Achieved / peak bandwidth over an execution of `total_cycles`.
    ///
    /// Returns 0.0 for an empty execution; the ratio is capped at 1.0.
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        let peak_bytes = self.values_per_cycle * 8.0 * total_cycles as f64;
        (self.bytes_streamed as f64 / peak_bytes).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_charges_bandwidth_limited_cycles() {
        let mut m = MemoryStream::new(&SimConfig::paper());
        // 144 values at 14.4 values/cycle = 10 cycles.
        assert_eq!(m.stream_values(144), 10);
        assert_eq!(m.bytes_streamed(), 144 * 8);
        assert_eq!(m.busy_cycles(), 10);
    }

    #[test]
    fn utilization_is_one_when_streaming_back_to_back() {
        let mut m = MemoryStream::new(&SimConfig::paper());
        let cycles = m.stream_values(1440);
        assert!((m.utilization(cycles) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_halves_with_idle_time() {
        let mut m = MemoryStream::new(&SimConfig::paper());
        let cycles = m.stream_values(1440);
        let util = m.utilization(cycles * 2);
        assert!((util - 0.5).abs() < 1e-9);
    }

    #[test]
    fn memoised_payload_cycles_match_the_float_formula() {
        let mut off_paper = SimConfig::paper();
        off_paper.mem_bandwidth_gbps = 100.0;
        off_paper.clock_ghz = 1.3;
        for base in [SimConfig::paper(), off_paper] {
            for omega in [1, 3, 4, 8, 16, 32] {
                let config = base.clone().with_omega(omega);
                let values = omega * omega;
                let formula = (values as f64 / config.values_per_cycle()).ceil().max(1.0) as u64;
                let mut m = MemoryStream::new(&config);
                assert_eq!(m.stream_payload(), formula, "omega {omega}");
                assert_eq!(m.stream_block(0, 0).0, formula, "omega {omega}");
                assert_eq!(m.stream_values(values), formula, "omega {omega}");
                assert_eq!(m.bytes_streamed(), 3 * values as u64 * 8);
                assert_eq!(m.busy_cycles(), 3 * formula);
                // Every operand-chunk length, the memoised full chunk and
                // each padded tail alike.
                for len in 1..=omega {
                    let want = (len as f64 / config.values_per_cycle()).ceil().max(1.0) as u64;
                    assert_eq!(m.stream_values(len), want, "omega {omega}, chunk {len}");
                    assert_eq!(
                        config.stream_cycles(len),
                        want,
                        "omega {omega}, chunk {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_cases() {
        let mut m = MemoryStream::new(&SimConfig::paper());
        assert_eq!(m.stream_values(0), 0);
        assert_eq!(m.utilization(0), 0.0);
        m.record_bytes(64);
        assert_eq!(m.bytes_streamed(), 64);
        assert_eq!(m.busy_cycles(), 0);
    }
}
