//! Typed metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Handles are `Arc`'d atomic cells, so the hot path (a fleet worker
//! observing `alrescha_fleet_queue_wait_us`, the engine observing a block's
//! cycle count) is a gated relaxed atomic op — no lock is taken after
//! registration. The registry itself is a `Mutex<BTreeMap>` locked only
//! when a metric is first registered and when a snapshot is taken, and the
//! `BTreeMap` keeps exposition order stable by name.
//!
//! Every metric declares whether it is **deterministic**: derived purely
//! from simulated state (cycle counts, block counts, cache hits), and thus
//! bit-identical across identical runs. [`Registry::deterministic_json`]
//! exposes only those, which is what the golden snapshot and the
//! determinism proptest pin. Wall-clock metrics (queue wait, job run time)
//! are registered as nondeterministic and appear only in the
//! full [`Registry::snapshot_json`] / [`Registry::to_prometheus`] views.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use std::fmt::Write as _;

use crate::json::write_escaped;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    gate: Arc<AtomicBool>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v`. A no-op while telemetry is disabled.
    pub fn add(&self, v: u64) {
        if self.gate.load(Ordering::Relaxed) {
            self.cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64`.
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
    gate: Arc<AtomicBool>,
}

impl Gauge {
    /// Replaces the value. A no-op while telemetry is disabled.
    pub fn set(&self, v: f64) {
        if self.gate.load(Ordering::Relaxed) {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Inclusive upper bounds; one implicit `+Inf` bucket follows.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` non-cumulative buckets.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCell {
    fn new(bounds: &[u64]) -> Self {
        HistogramCell {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram over unsigned integer observations (cycles,
/// microseconds). Bounds are fixed at registration.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
    gate: Arc<AtomicBool>,
}

impl Histogram {
    /// Records one observation. A no-op while telemetry is disabled.
    pub fn observe(&self, v: u64) {
        if self.gate.load(Ordering::Relaxed) {
            self.cell.observe(v);
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }
}

/// Power-of-two bucket bounds suited to per-block cycle counts.
pub const CYCLE_BUCKETS: &[u64] = &[4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384];

/// Decade bucket bounds suited to host-side microsecond latencies.
pub const MICROS_BUCKETS: &[u64] = &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

#[derive(Debug)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

#[derive(Debug)]
struct Entry {
    cell: Cell,
    deterministic: bool,
    help: &'static str,
}

/// The metrics registry. One lives inside each
/// [`Telemetry`](crate::Telemetry) instance; all handles it hands out share
/// that instance's enable gate.
#[derive(Debug)]
pub struct Registry {
    gate: Arc<AtomicBool>,
    entries: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// Creates a registry whose handles honour `gate`.
    pub fn new(gate: Arc<AtomicBool>) -> Self {
        Registry {
            gate,
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Registers (or retrieves) a counter. Re-registration with the same
    /// name returns a handle to the same cell; a name already bound to a
    /// different metric kind yields a detached cell so the caller never
    /// panics in library code.
    pub fn counter(&self, name: &str, deterministic: bool, help: &'static str) -> Counter {
        let mut entries = lock(&self.entries);
        let entry = entries.entry(name.to_owned()).or_insert_with(|| Entry {
            cell: Cell::Counter(Arc::new(AtomicU64::new(0))),
            deterministic,
            help,
        });
        let cell = match &entry.cell {
            Cell::Counter(c) => Arc::clone(c),
            _ => Arc::new(AtomicU64::new(0)),
        };
        Counter {
            cell,
            gate: Arc::clone(&self.gate),
        }
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, deterministic: bool, help: &'static str) -> Gauge {
        let mut entries = lock(&self.entries);
        let entry = entries.entry(name.to_owned()).or_insert_with(|| Entry {
            cell: Cell::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
            deterministic,
            help,
        });
        let bits = match &entry.cell {
            Cell::Gauge(c) => Arc::clone(c),
            _ => Arc::new(AtomicU64::new(0f64.to_bits())),
        };
        Gauge {
            bits,
            gate: Arc::clone(&self.gate),
        }
    }

    /// Registers (or retrieves) a histogram with the given bucket bounds.
    /// Bounds are fixed by the first registration.
    pub fn histogram(
        &self,
        name: &str,
        bounds: &[u64],
        deterministic: bool,
        help: &'static str,
    ) -> Histogram {
        let mut entries = lock(&self.entries);
        let entry = entries.entry(name.to_owned()).or_insert_with(|| Entry {
            cell: Cell::Histogram(Arc::new(HistogramCell::new(bounds))),
            deterministic,
            help,
        });
        let cell = match &entry.cell {
            Cell::Histogram(c) => Arc::clone(c),
            _ => Arc::new(HistogramCell::new(bounds)),
        };
        Histogram {
            cell,
            gate: Arc::clone(&self.gate),
        }
    }

    /// Single-line JSON snapshot of every metric, in name order.
    pub fn snapshot_json(&self) -> String {
        self.render_json(false)
    }

    /// Single-line JSON snapshot restricted to deterministic metrics — the
    /// view pinned by the golden fixture and the determinism proptest.
    pub fn deterministic_json(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, deterministic_only: bool) -> String {
        let entries = lock(&self.entries);
        let mut out = String::from("{\"metrics\":[");
        let mut first = true;
        for (name, entry) in entries.iter() {
            if deterministic_only && !entry.deterministic {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            write_escaped(name, &mut out);
            match &entry.cell {
                Cell::Counter(c) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"counter\",\"value\":{}",
                        c.load(Ordering::Relaxed)
                    );
                }
                Cell::Gauge(c) => {
                    let v = f64::from_bits(c.load(Ordering::Relaxed));
                    let mut num = String::new();
                    crate::json::write_number(v, &mut num);
                    let _ = write!(
                        out,",\"type\":\"gauge\",\"value\":{num}");
                }
                Cell::Histogram(h) => {
                    let _ = write!(
                        out,
                        ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[",
                        h.count.load(Ordering::Relaxed),
                        h.sum.load(Ordering::Relaxed)
                    );
                    let mut cumulative = 0u64;
                    for (i, bucket) in h.buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        cumulative += bucket.load(Ordering::Relaxed);
                        let le = h
                            .bounds
                            .get(i)
                            .map_or_else(|| "\"+Inf\"".to_owned(), ToString::to_string);
                        let _ = write!(
                        out,"{{\"le\":{le},\"count\":{cumulative}}}");
                    }
                    out.push(']');
                }
            }
            let _ = write!(
                        out,
                ",\"deterministic\":{}}}",
                entry.deterministic
            );
        }
        out.push_str("]}");
        out
    }

    /// Prometheus text exposition (`# HELP` / `# TYPE` plus samples);
    /// histograms expand to cumulative `_bucket{le=...}`, `_sum`, `_count`.
    ///
    /// A metric registered with a `{label="value"}` suffix in its name
    /// (e.g. `alserve_slo_e2e_us{tenant="acme"}`) is exposed as a labelled
    /// sample of the *family* (the name up to `{`): `# HELP` / `# TYPE`
    /// are emitted once per family, and histogram expansion splices `le`
    /// in after the caller's labels. The `BTreeMap` name order keeps all
    /// samples of a labelled family contiguous.
    pub fn to_prometheus(&self) -> String {
        let entries = lock(&self.entries);
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, entry) in entries.iter() {
            let (family, labels) = split_labels(name);
            let kind = match &entry.cell {
                Cell::Counter(_) => "counter",
                Cell::Gauge(_) => "gauge",
                Cell::Histogram(_) => "histogram",
            };
            if family != last_family {
                let _ = writeln!(out, "# HELP {family} {}", entry.help);
                let _ = writeln!(out, "# TYPE {family} {kind}");
                family.clone_into(&mut last_family);
            }
            match &entry.cell {
                Cell::Counter(c) => {
                    let _ = writeln!(
                        out,"{name} {}", c.load(Ordering::Relaxed));
                }
                Cell::Gauge(c) => {
                    let v = f64::from_bits(c.load(Ordering::Relaxed));
                    let _ = writeln!(
                        out,"{name} {v}");
                }
                Cell::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, bucket) in h.buckets.iter().enumerate() {
                        cumulative += bucket.load(Ordering::Relaxed);
                        let le = h
                            .bounds
                            .get(i)
                            .map_or_else(|| "+Inf".to_owned(), ToString::to_string);
                        let sample = if labels.is_empty() {
                            format!("{family}_bucket{{le=\"{le}\"}}")
                        } else {
                            format!("{family}_bucket{{{labels},le=\"{le}\"}}")
                        };
                        let _ = writeln!(out, "{sample} {cumulative}");
                    }
                    let suffix = if labels.is_empty() {
                        String::new()
                    } else {
                        format!("{{{labels}}}")
                    };
                    let _ = writeln!(
                        out,"{family}_sum{suffix} {}", h.sum.load(Ordering::Relaxed));
                    let _ = writeln!(
                        out,
                        "{family}_count{suffix} {}",
                        h.count.load(Ordering::Relaxed)
                    );
                }
            }
        }
        out
    }
}

/// Splits a registry name into `(family, labels)`: `f{t="a"}` becomes
/// `("f", "t=\"a\"")`, an unlabelled name becomes `(name, "")`.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(open) => {
            let family = &name[..open];
            let rest = &name[open + 1..];
            let labels = rest.strip_suffix('}').unwrap_or(rest);
            (family, labels)
        }
        None => (name, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_registry() -> Registry {
        Registry::new(Arc::new(AtomicBool::new(true)))
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = open_registry();
        let c = reg.counter("alrescha_test_total", true, "test counter");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // A second registration shares the cell.
        assert_eq!(reg.counter("alrescha_test_total", true, "test counter").value(), 5);

        let g = reg.gauge("alrescha_test_rate", true, "test gauge");
        g.set(0.875);
        assert_eq!(g.value(), 0.875);
    }

    #[test]
    fn disabled_gate_suppresses_writes() {
        let gate = Arc::new(AtomicBool::new(false));
        let reg = Registry::new(Arc::clone(&gate));
        let c = reg.counter("c", true, "");
        let h = reg.histogram("h", CYCLE_BUCKETS, true, "");
        c.inc();
        h.observe(9);
        assert_eq!(c.value(), 0);
        assert_eq!(h.count(), 0);
        gate.store(true, Ordering::Relaxed);
        c.inc();
        h.observe(9);
        assert_eq!(c.value(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let reg = open_registry();
        let h = reg.histogram("h", &[8, 16], true, "cycles");
        for v in [3, 9, 9, 40] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 61);
        let json = reg.snapshot_json();
        assert!(json.contains("{\"le\":8,\"count\":1}"), "{json}");
        assert!(json.contains("{\"le\":16,\"count\":3}"), "{json}");
        assert!(json.contains("{\"le\":\"+Inf\",\"count\":4}"), "{json}");
        let prom = reg.to_prometheus();
        assert!(prom.contains("h_bucket{le=\"+Inf\"} 4"), "{prom}");
        assert!(prom.contains("h_sum 61"), "{prom}");
    }

    #[test]
    fn deterministic_view_filters_wall_clock_metrics() {
        let reg = open_registry();
        reg.counter("sim_cycles_total", true, "").add(100);
        reg.histogram("queue_wait_us", MICROS_BUCKETS, false, "").observe(42);
        let det = reg.deterministic_json();
        assert!(det.contains("sim_cycles_total"));
        assert!(!det.contains("queue_wait_us"));
        let full = reg.snapshot_json();
        assert!(full.contains("queue_wait_us"));
    }

    #[test]
    fn snapshot_is_valid_json_in_name_order() {
        let reg = open_registry();
        reg.counter("b_total", true, "").inc();
        reg.counter("a_total", true, "").inc();
        let json = reg.snapshot_json();
        let v = crate::json::Value::parse(&json).expect("snapshot parses");
        let names: Vec<&str> = v
            .get("metrics")
            .and_then(crate::json::Value::as_arr)
            .expect("metrics array")
            .iter()
            .filter_map(|m| m.get("name").and_then(crate::json::Value::as_str))
            .collect();
        assert_eq!(names, ["a_total", "b_total"]);
    }

    #[test]
    fn labelled_family_emits_help_and_type_once() {
        let reg = open_registry();
        reg.counter("alserve_slo_breach_total{tenant=\"a\"}", false, "slo breaches")
            .add(2);
        reg.counter("alserve_slo_breach_total{tenant=\"b\"}", false, "slo breaches")
            .add(5);
        reg.histogram("alserve_slo_e2e_us{tenant=\"a\"}", &[10, 100], false, "e2e latency")
            .observe(42);
        let prom = reg.to_prometheus();
        assert_eq!(prom.matches("# HELP alserve_slo_breach_total ").count(), 1, "{prom}");
        assert_eq!(prom.matches("# TYPE alserve_slo_breach_total counter").count(), 1);
        assert!(prom.contains("alserve_slo_breach_total{tenant=\"a\"} 2"));
        assert!(prom.contains("alserve_slo_breach_total{tenant=\"b\"} 5"));
        assert!(prom.contains("alserve_slo_e2e_us_bucket{tenant=\"a\",le=\"100\"} 1"), "{prom}");
        assert!(prom.contains("alserve_slo_e2e_us_sum{tenant=\"a\"} 42"));
        assert!(prom.contains("alserve_slo_e2e_us_count{tenant=\"a\"} 1"));
    }

    #[test]
    fn kind_mismatch_yields_detached_cell_without_panic() {
        let reg = open_registry();
        reg.counter("x", true, "").add(3);
        let g = reg.gauge("x", true, "");
        g.set(1.0); // lands in a detached cell
        assert_eq!(reg.counter("x", true, "").value(), 3);
    }
}
