//! Order statistics and device-count bookkeeping shared by the workloads.

use alrescha_sim::ExecutionReport;

/// Nearest-rank quantile of `q` in `(0, 1]` over unsorted samples, with
/// the sample count and the number of samples strictly beyond the rank.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

pub fn quantile(samples: &[f64], q: f64) -> Quantile {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).value
}

/// The device-clock counters of a set of engine calls. Every field is a
/// simulated count, so for a fixed call list it must repeat bit for bit
/// across runs and across host-speed changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    pub cycles: u64,
    pub gemv_cycles: u64,
    pub dsymgs_cycles: u64,
    pub graph_cycles: u64,
    pub drain_cycles: u64,
    pub reconfig_exposed_cycles: u64,
    pub bytes_streamed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub gemv_blocks: u64,
    pub dsymgs_blocks: u64,
    pub graph_blocks: u64,
}

impl DeviceCounts {
    pub fn of(r: &ExecutionReport) -> Self {
        DeviceCounts {
            cycles: r.cycles,
            gemv_cycles: r.breakdown.gemv_cycles,
            dsymgs_cycles: r.breakdown.dsymgs_cycles,
            graph_cycles: r.breakdown.graph_cycles,
            drain_cycles: r.breakdown.drain_cycles,
            reconfig_exposed_cycles: r.reconfig.exposed_cycles,
            bytes_streamed: r.bytes_streamed,
            cache_hits: r.cache.hits,
            cache_misses: r.cache.misses,
            gemv_blocks: r.datapaths.gemv_blocks,
            dsymgs_blocks: r.datapaths.dsymgs_blocks,
            graph_blocks: r.datapaths.graph_blocks,
        }
    }

    pub fn add(&mut self, o: &DeviceCounts) {
        self.cycles += o.cycles;
        self.gemv_cycles += o.gemv_cycles;
        self.dsymgs_cycles += o.dsymgs_cycles;
        self.graph_cycles += o.graph_cycles;
        self.drain_cycles += o.drain_cycles;
        self.reconfig_exposed_cycles += o.reconfig_exposed_cycles;
        self.bytes_streamed += o.bytes_streamed;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.gemv_blocks += o.gemv_blocks;
        self.dsymgs_blocks += o.dsymgs_blocks;
        self.graph_blocks += o.graph_blocks;
    }

    pub fn blocks(&self) -> u64 {
        self.gemv_blocks + self.dsymgs_blocks + self.graph_blocks
    }

    /// Per-layer `sim.*` device metrics (cycle, byte and hit counts).
    pub fn metrics(&self, out: &mut Vec<crate::Metric>) {
        let hit_ratio = ratio(self.cache_hits, self.cache_hits + self.cache_misses);
        for (name, v, unit) in [
            ("sim.gemv_cycles", self.gemv_cycles as f64, "cycles"),
            ("sim.dsymgs_cycles", self.dsymgs_cycles as f64, "cycles"),
            ("sim.graph_cycles", self.graph_cycles as f64, "cycles"),
            ("sim.drain_cycles", self.drain_cycles as f64, "cycles"),
            (
                "sim.reconfig_exposed_cycles",
                self.reconfig_exposed_cycles as f64,
                "cycles",
            ),
            ("sim.bytes_streamed", self.bytes_streamed as f64, "bytes"),
            ("sim.cache_hit_ratio", hit_ratio, "ratio"),
        ] {
            out.push(crate::Metric::new(name, v, unit));
        }
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or an error when
/// the kernel does not expose it.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = quantile(&v, 0.9);
        assert_eq!((p90.value, p90.n, p90.beyond), (90.0, 100, 10));
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&[3.0], 0.9).beyond, 0);
    }
}

/// The host-clock samples of one run, from which the host end-to-end
/// metrics are computed.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up repetitions, seconds.
    pub setup: Vec<f64>,
    /// Per-job latency, ms.
    pub e2e: Vec<f64>,
    /// Per-job acknowledgement latency, ms.
    pub ack: Vec<f64>,
    pub jobs_per_s: f64,
    pub blocks_per_s: f64,
}

impl Samples {
    /// End-to-end metrics, refusing a p90 with fewer than ten samples
    /// beyond it.
    pub fn metrics(
        &self,
        rss: f64,
        ok_ratio: f64,
        device_cycles: u64,
    ) -> Result<Vec<crate::Metric>, String> {
        use crate::Metric;
        let p90 = quantile(&self.e2e, 0.9);
        if p90.beyond < 10 {
            return Err(format!(
                "e2e_p90_ms refused: {} samples beyond it, need 10",
                p90.beyond
            ));
        }
        Ok(vec![
            Metric::new("setup_s", median(&self.setup), "s"),
            Metric::new("peak_rss_mb", rss, "MiB"),
            Metric::new("ok_ratio", ok_ratio, "ratio"),
            Metric::new("device_cycles", device_cycles as f64, "cycles"),
            Metric::new("sim_blocks_per_s", self.blocks_per_s, "blocks/s"),
            Metric::new("e2e_p50_ms", median(&self.e2e), "ms"),
            Metric::new("e2e_p90_ms", p90.value, "ms"),
            Metric::new("ack_p50_ms", median(&self.ack), "ms"),
            Metric::new("jobs_per_s", self.jobs_per_s, "1/s"),
        ])
    }

    /// One line with each percentile's sample count and the number of
    /// samples beyond it.
    pub fn describe(&self, label: &str, speed: &crate::calib::SpeedLog) -> String {
        let q = |v: &[f64], p: f64| quantile(v, p);
        let (e50, e90, a50) = (q(&self.e2e, 0.5), q(&self.e2e, 0.9), q(&self.ack, 0.5));
        format!(
            "{label}: setup_s {:.4} (n={}); e2e p50 {:.3} ms (n={}, {} beyond), p90 {:.3} ms (n={}, {} beyond); ack p50 {:.3} ms (n={}, {} beyond); {:.3} jobs/s; {:.0} blocks/s; probe median {:.4} ms",
            median(&self.setup),
            self.setup.len(),
            e50.value,
            e50.n,
            e50.beyond,
            e90.value,
            e90.n,
            e90.beyond,
            a50.value,
            a50.n,
            a50.beyond,
            self.jobs_per_s,
            self.blocks_per_s,
            speed.median_ms()
        )
    }
}
