//! albench: the ALRESCHA stack measured end to end on two clocks.
//!
//! ```text
//! albench --workload <engine_mix|serve_repeat|serve_cold|all> \
//!         [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every run checks every output against an independent reference and
//! prints its metrics by name and unit, then, as the last line of stdout,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A wrong output, a device count that does not repeat, or a
//! failed operation exits non-zero. See `albench/README.md` for what each
//! workload and metric is for.

mod calib;
mod engine_mix;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics every workload reports with `--trace 0`.
pub const E2E_METRICS: [&str; 9] = [
    "setup_s",
    "peak_rss_mb",
    "ok_ratio",
    "device_cycles",
    "sim_blocks_per_s",
    "e2e_p50_ms",
    "e2e_p90_ms",
    "ack_p50_ms",
    "jobs_per_s",
];

/// Per-layer metrics every workload reports with `--trace 1`.
pub const LAYER_METRICS: [&str; 30] = [
    "sim.spmv_ns_per_block",
    "sim.symgs_ns_per_block",
    "sim.pagerank_ns_per_block",
    "sim.gemv_cycles",
    "sim.dsymgs_cycles",
    "sim.graph_cycles",
    "sim.drain_cycles",
    "sim.reconfig_exposed_cycles",
    "sim.bytes_streamed",
    "sim.cache_hit_ratio",
    "convert.ns_per_block",
    "convert.blocks",
    "lint.preflight_ns_per_block",
    "solver.pcg_solve_ms",
    "solver.iterations",
    "fleet.fingerprint_ms",
    "fleet.cache_hit_ratio",
    "fleet.cached_programs",
    "protocol.submit_encode_ms",
    "protocol.submit_decode_ms",
    "protocol.submit_bytes",
    "journal.accept_ms",
    "journal.terminal_ms",
    "checkpoint.write_ms",
    "flight.sync_ms",
    "client.wait_ms",
    "server.rejected_per_job",
    "serve.unattributed_ms",
    "traced.e2e_p50_ms",
    "traced.jobs_per_s",
];

pub const WORKLOADS: [&str; 3] = ["engine_mix", "serve_repeat", "serve_cold"];

/// Timed samples every run collects at least, so that p90 has at least
/// ten samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// How long a run may extend its timed phase to reach [`MIN_SAMPLES`].
pub fn sample_cap(seconds: std::time::Duration) -> std::time::Duration {
    (4 * seconds).max(std::time::Duration::from_secs(60))
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (engine calls or jobs).
    pub attempted: u64,
    /// Operations that errored or whose output failed its check.
    pub failed: u64,
    /// Every check passed: outputs match their references and every
    /// device count repeated exactly.
    pub correct: bool,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub trace: Option<trace::Tracer>,
}

impl Outcome {
    pub fn ok_ratio(&self) -> f64 {
        stats::ratio(self.attempted - self.failed, self.attempted)
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: inputs::DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_owned());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "usage: albench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n\
                 default seed {} (the trajectory); held-out seed {} (re-check claims on it)",
                WORKLOADS.join("|"),
                inputs::DEFAULT_SEED,
                inputs::HELD_OUT_SEED
            ));
        }
        Ok(args)
    }
}

/// A scratch directory for one run's server data, on the disk the
/// benchmark runs from (not tmpfs), removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(workload: &str) -> Result<Self, String> {
        let dir = Path::new(".albench-data").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run uses the parent.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    let outcome = match args.workload.as_str() {
        "engine_mix" => engine_mix::run(args)?,
        "serve_repeat" => serve::run_repeat(args)?,
        "serve_cold" => serve::run_cold(args)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let (set, expected): (&[Metric], &[&str]) = if args.trace {
        (&outcome.layers, &LAYER_METRICS)
    } else {
        (&outcome.e2e, &E2E_METRICS)
    };
    for name in expected {
        if !set.iter().any(|m| m.name == *name) {
            return Err(format!("{}: metric {name} was not measured", args.workload));
        }
    }
    if let Some(bad) = set.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{}: metric {} is {}",
            args.workload, bad.name, bad.value
        ));
    }
    Ok(outcome)
}

fn print_outcome(workload: &str, o: &Outcome, trace: bool) {
    println!("== {workload}");
    for n in &o.notes {
        println!("   {n}");
    }
    for (title, set) in [("end-to-end", &o.e2e), ("per-layer", &o.layers)] {
        if set.is_empty() {
            continue;
        }
        println!(
            "   {title}{}:",
            if trace && title == "end-to-end" {
                " (traced run)"
            } else {
                ""
            }
        );
        for m in set {
            println!("     {:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "   correct={} attempted={} failed={}",
        o.correct, o.attempted, o.failed
    );
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &Metric)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(key, m)| {
            format!(
                "{key:?}: {{\"value\": {:?}, \"unit\": {:?}}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("albench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for w in &workloads {
        let one = Args {
            workload: (*w).to_owned(),
            ..args.clone()
        };
        match run_one(&one) {
            Ok(mut o) => {
                if let Some(t) = o.trace.take() {
                    let path = Path::new(".albench-data").join(format!("{w}.trace.json"));
                    if let Err(e) = std::fs::create_dir_all(".albench-data")
                        .map_err(|e| e.to_string())
                        .and_then(|()| t.write_chrome(&path))
                    {
                        eprintln!("albench: {w}: {e}");
                        return ExitCode::FAILURE;
                    }
                    o.notes.push(format!("spans written to {}", path.display()));
                }
                print_outcome(w, &o, args.trace);
                results.push((*w, o));
            }
            Err(e) => {
                eprintln!("albench: {w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let prefix = workloads.len() > 1;
    let mut metrics = Vec::new();
    for (w, o) in &results {
        let set = if args.trace { &o.layers } else { &o.e2e };
        for m in set {
            let key = if prefix {
                format!("{w}.{}", m.name)
            } else {
                m.name.clone()
            };
            metrics.push((key, m));
        }
    }
    let correct = results.iter().all(|(_, o)| o.correct);
    let attempted = results.iter().map(|(_, o)| o.attempted).sum();
    let failed = results.iter().map(|(_, o)| o.failed).sum();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names workloads this binary runs and exactly the
    /// metrics it emits.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside albench/");
        let (mut listed, workloads): (Vec<&str>, Vec<&str>) = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .partition(|n| !WORKLOADS.contains(n));
        assert!(workloads.len() >= 2, "{workloads:?}");
        let mut emitted: Vec<&str> = E2E_METRICS.iter().chain(&LAYER_METRICS).copied().collect();
        listed.sort_unstable();
        emitted.sort_unstable();
        assert_eq!(listed, emitted);
    }
}
