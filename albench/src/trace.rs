//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers exactly one call made from this crate. Spans stay in
//! memory until the run ends, when they are folded into per-layer metrics
//! and a summary table.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.spmv` or `journal.accept`.
    pub name: &'static str,
    /// Job or call identifier shared by the spans of one request.
    pub job: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Work the call did (simulated blocks, bytes), 0 when not counted.
    pub work: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording a span when tracing is on; `work` measures what
    /// the call did from its result.
    pub fn span<T>(
        &self,
        name: &'static str,
        job: u64,
        f: impl FnOnce() -> T,
        work: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let work = work(&out);
        self.record(Span {
            name,
            job,
            start_ns: start.duration_since(self.t0).as_nanos() as u64,
            dur_ns,
            work,
        });
        out
    }

    /// Records a span timed by the caller (used where the caller already
    /// holds the interval, e.g. a client round trip).
    pub fn record(&self, span: Span) {
        if self.on {
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
    }

    pub fn start_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    fn of(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .copied()
            .collect()
    }

    /// Per-call durations of `name` in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.of(name)
            .iter()
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Median duration of `name` in milliseconds, or an error naming the
    /// layer when the run recorded no such span.
    pub fn median_ms(&self, name: &str) -> Result<f64, String> {
        let d = self.durations_ms(name);
        if d.is_empty() {
            return Err(format!("traced run recorded no `{name}` span"));
        }
        Ok(crate::stats::median(&d))
    }

    /// Total host nanoseconds of `name` per unit of recorded work.
    pub fn ns_per_work(&self, name: &str) -> Result<f64, String> {
        let spans = self.of(name);
        let work: u64 = spans.iter().map(|s| s.work).sum();
        if work == 0 {
            return Err(format!("traced run recorded no work under `{name}`"));
        }
        let ns: u64 = spans.iter().map(|s| s.dur_ns).sum();
        Ok(ns as f64 / work as f64)
    }

    /// Median work per span of `name` (e.g. bytes per encoded frame).
    pub fn median_work(&self, name: &str) -> Result<f64, String> {
        let w: Vec<f64> = self.of(name).iter().map(|s| s.work as f64).collect();
        if w.is_empty() {
            return Err(format!("traced run recorded no `{name}` span"));
        }
        Ok(crate::stats::median(&w))
    }

    /// Writes every span as a Chrome trace-event file (one track per job
    /// or call identifier), viewable in Perfetto.
    pub fn write_chrome(&self, path: &std::path::Path) -> Result<(), String> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{:?},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"work\":{}}}}}",
                    s.name,
                    s.job,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.work
                )
            })
            .collect();
        let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
        std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// One line per span name: count, median, and total time.
    pub fn summary(&self) -> String {
        let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            by.entry(s.name).or_default().push(s.dur_ns);
        }
        let mut out =
            String::from("# span                         count    p50_ms      total_ms\n");
        for (name, durs) in by {
            let ms: Vec<f64> = durs.iter().map(|&d| d as f64 / 1e6).collect();
            out.push_str(&format!(
                "# {name:<28} {:>6} {:>9.3} {:>13.3}\n",
                ms.len(),
                crate::stats::median(&ms),
                ms.iter().sum::<f64>()
            ));
        }
        out
    }
}
