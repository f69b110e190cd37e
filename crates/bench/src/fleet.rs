//! Fleet throughput measurement: batched execution with the conversion
//! cache and per-worker engine reuse, against the sequential reference path
//! that converts, verifies, and rebuilds for every job.
//!
//! The workload models a solver campaign: many kernel invocations over few
//! distinct matrices (HPCG re-runs one stencil for the whole benchmark;
//! fault studies replay one system under many plans). On such batches the
//! host-side work — Algorithm-1 conversion plus `alverify` preflight —
//! dominates each job, and the fleet amortizes it to once per distinct
//! matrix.

use std::sync::Arc;
use std::time::Duration;

use alrescha::fleet::{Fleet, FleetConfig, FleetReport, JobKernel, JobSpec};
use alrescha_obs::Telemetry;
use alrescha_sim::SimConfig;
use alrescha_sparse::Coo;

/// One row of the fleet-throughput table.
#[derive(Debug, Clone)]
pub struct FleetThroughputRow {
    /// Worker threads (`0` = the sequential reference path).
    pub workers: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Batch wall time.
    pub wall: Duration,
    /// Aggregate throughput in jobs per second.
    pub jobs_per_second: f64,
    /// Speedup over the sequential reference.
    pub speedup: f64,
    /// Conversion-cache hits (0 for the reference path).
    pub cache_hits: u64,
    /// Conversions performed.
    pub cache_misses: u64,
}

/// Builds the repeated-matrix workload: `n_jobs` SpMV jobs over a single
/// `stencil27` system of approximate dimension `n`, each with a distinct
/// operand vector (the cache key is the matrix, not the operand).
pub fn repeated_matrix_jobs(n: usize, n_jobs: usize) -> Vec<JobSpec> {
    let grid = (n as f64).cbrt().ceil().max(2.0) as usize;
    let a = alrescha_sparse::gen::stencil27(grid);
    build_jobs(&a, n_jobs)
}

fn build_jobs(a: &Coo, n_jobs: usize) -> Vec<JobSpec> {
    (0..n_jobs)
        .map(|j| {
            let x: Vec<f64> = (0..a.cols())
                .map(|i| 1.0 + ((i + j) % 11) as f64 / 7.0)
                .collect();
            JobSpec::new(a.clone(), JobKernel::SpMv { x }).with_config(SimConfig::paper())
        })
        .collect()
}

/// Measures the sequential reference and the fleet at each worker count on
/// the same workload, `alverify` preflight enforced on both paths. The
/// first row is the reference (workers = 0).
pub fn measure_fleet_throughput(
    jobs: Vec<JobSpec>,
    worker_counts: &[usize],
) -> Vec<FleetThroughputRow> {
    let preflight = alrescha_lint::fleet_preflight_hook(None);
    let mut rows = Vec::new();

    let reference =
        Fleet::new(FleetConfig::default()).with_preflight(preflight.clone());
    let seq = reference.run_sequential(jobs.clone());
    assert_eq!(
        seq.stats.failed, 0,
        "sequential reference failed jobs: {:?}",
        seq.jobs.iter().find(|r| r.result.is_err())
    );
    let seq_jps = seq.stats.jobs_per_second();
    rows.push(FleetThroughputRow {
        workers: 0,
        completed: seq.stats.completed,
        wall: seq.stats.wall_time,
        jobs_per_second: seq_jps,
        speedup: 1.0,
        cache_hits: seq.stats.cache_hits,
        cache_misses: seq.stats.cache_misses,
    });

    for &workers in worker_counts {
        // A fresh fleet per row: the cache starts cold so every row pays
        // exactly one conversion+preflight, like a real campaign launch.
        let fleet = Fleet::new(FleetConfig::default().with_workers(workers))
            .with_preflight(preflight.clone());
        let batch = fleet.run(jobs.clone());
        assert_eq!(
            batch.stats.failed, 0,
            "fleet failed jobs at {workers} workers"
        );
        let jps = batch.stats.jobs_per_second();
        rows.push(FleetThroughputRow {
            workers,
            completed: batch.stats.completed,
            wall: batch.stats.wall_time,
            jobs_per_second: jps,
            speedup: if seq_jps > 0.0 { jps / seq_jps } else { 0.0 },
            cache_hits: batch.stats.cache_hits,
            cache_misses: batch.stats.cache_misses,
        });
    }
    rows
}

/// Runs one telemetry-instrumented fleet batch (the `figures --trace-out`
/// / `--metrics-out` entry point): 64 SpMV jobs over one repeated
/// `stencil27` system at 4 workers, with the alverify preflight and every
/// engine run reporting into `tele`.
pub fn instrumented_batch(n: usize, tele: &Arc<Telemetry>) -> FleetReport {
    let jobs = repeated_matrix_jobs(n, 64);
    let fleet = Fleet::new(FleetConfig::default().with_workers(4))
        .with_preflight(alrescha_lint::fleet_preflight_hook(Some(Arc::clone(tele))))
        .with_telemetry(Arc::clone(tele));
    fleet.run(jobs)
}

/// Prints the fleet-throughput table (the `figures --fleet` entry point).
pub fn print_fleet_throughput(n: usize) {
    let n_jobs = 64;
    println!("Fleet throughput — {n_jobs} SpMV jobs, one repeated stencil27 system (n ~ {n})");
    println!("alverify preflight enforced on every path; sequential = fresh engine + conversion per job");
    println!();
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>9} {:>7} {:>7}",
        "workers", "jobs", "wall ms", "jobs/s", "speedup", "hits", "misses"
    );
    let rows = measure_fleet_throughput(repeated_matrix_jobs(n, n_jobs), &[1, 2, 4, 8]);
    for row in rows {
        let label = if row.workers == 0 {
            "seq".to_string()
        } else {
            row.workers.to_string()
        };
        println!(
            "{:>10} {:>10} {:>12.2} {:>12.1} {:>8.2}x {:>7} {:>7}",
            label,
            row.completed,
            row.wall.as_secs_f64() * 1e3,
            row.jobs_per_second,
            row.speedup,
            row.cache_hits,
            row.cache_misses,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_repeats_one_matrix() {
        let jobs = repeated_matrix_jobs(64, 6);
        assert_eq!(jobs.len(), 6);
        let fp = alrescha::fleet::matrix_fingerprint(&jobs[0].matrix);
        assert!(jobs
            .iter()
            .all(|j| alrescha::fleet::matrix_fingerprint(&j.matrix) == fp));
        // Operands differ: the cache, not the inputs, provides the reuse.
        assert_ne!(jobs[0].kernel, jobs[1].kernel);
    }

    #[test]
    fn throughput_rows_cover_reference_and_fleet() {
        let rows = measure_fleet_throughput(repeated_matrix_jobs(27, 8), &[2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].workers, 0);
        assert_eq!(rows[0].cache_hits, 0, "reference path never caches");
        assert_eq!(rows[1].cache_misses, 1, "one conversion for the batch");
        assert_eq!(rows[1].cache_hits, 7);
        assert!(rows[1].jobs_per_second > 0.0);
    }
}
