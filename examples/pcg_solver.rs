//! Solve a sparse SPD linear system with PCG on the accelerator — the
//! paper's headline workload (Figure 2): SpMV and the SymGS smoother run on
//! the device, the ubiquitous vector operations stay on the host.
//!
//! ```text
//! cargo run --example pcg_solver
//! cargo run --example pcg_solver -- --workers 4   # batched fleet path
//! ```
//!
//! With `--workers N`, several solves of the same system (distinct
//! right-hand sides) run through the `alrescha-fleet` runtime: conversion
//! and verification happen once, cached, and every engine is reused.
//! `--queue N` caps fleet admission; solves past the cap are rejected
//! with a `retry_after` hint, which the example sleeps out before
//! resubmitting the remainder.
//!
//! `--trace-out trace.json` writes a Chrome/Perfetto trace of the run
//! (host spans plus the engine's cycle-level timeline; open it at
//! <https://ui.perfetto.dev>); `--metrics-out metrics.json` writes the
//! metrics-registry snapshot.

use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobOutput, JobRecord, JobSpec};
use alrescha::{AcceleratedPcg, Alrescha, CoreError, SolverOptions};
use alrescha_kernels::spmv::spmv;
use alrescha_sparse::{gen, Csr, MetaData};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers: Option<usize> = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse())
        .transpose()?;
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let trace_out = flag_value("--trace-out");
    let metrics_out = flag_value("--metrics-out");
    let queue: Option<usize> = flag_value("--queue").map(|s| s.parse()).transpose()?;
    let tele = (trace_out.is_some() || metrics_out.is_some())
        .then(alrescha_obs::Telemetry::new);
    let write_telemetry = |tele: &std::sync::Arc<alrescha_obs::Telemetry>| {
        if let Some(path) = &trace_out {
            std::fs::write(path, alrescha_obs::export_chrome_trace(tele))?;
            eprintln!("wrote Chrome trace to {path} — open it at https://ui.perfetto.dev");
        }
        if let Some(path) = &metrics_out {
            std::fs::write(path, tele.metrics().snapshot_json())?;
            eprintln!("wrote metrics snapshot to {path}");
        }
        Ok::<(), std::io::Error>(())
    };

    // Heat-equation style system: fluid-dynamics banded structure.
    let a = gen::ScienceClass::Fluid.generate(2000, 7);
    let csr = Csr::from_coo(&a);
    println!("system: n = {}, nnz = {}", a.rows(), a.nnz());

    // Manufacture a solution so we can check the answer.
    let x_true: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.01).sin()).collect();
    let b = spmv(&csr, &x_true);

    let opts = SolverOptions {
        tol: 1e-10,
        max_iters: 300,
    };

    if let Some(n_workers) = workers {
        // Batched path: 6 solves of the same system, scaled right-hand
        // sides, through the fleet. One conversion, one preflight; five
        // cache hits.
        let jobs: Vec<JobSpec> = (0..6)
            .map(|j| {
                let scale = 1.0 + f64::from(j) * 0.5;
                let rhs: Vec<f64> = b.iter().map(|v| v * scale).collect();
                JobSpec::new(
                    a.clone(),
                    JobKernel::Pcg {
                        b: rhs,
                        opts: opts.clone(),
                    },
                )
            })
            .collect();
        let mut config = FleetConfig::default().with_workers(n_workers);
        if let Some(cap) = queue {
            config = config.with_queue_capacity(cap);
        }
        let mut fleet =
            Fleet::new(config).with_preflight(alrescha_lint::fleet_preflight_hook(tele.clone()));
        if let Some(t) = &tele {
            fleet = fleet.with_telemetry(std::sync::Arc::clone(t));
        }
        // Honor queue backpressure: rejected solves carry a `retry_after`
        // hint; sleep it out and resubmit until the whole campaign has run.
        let n_jobs = jobs.len();
        let mut pending: Vec<(usize, JobSpec)> = jobs.into_iter().enumerate().collect();
        let mut records: Vec<Option<JobRecord>> = (0..n_jobs).map(|_| None).collect();
        while !pending.is_empty() {
            let specs: Vec<JobSpec> = pending.iter().map(|(_, s)| s.clone()).collect();
            let batch = fleet.run(specs);
            let s = &batch.stats;
            println!(
                "fleet: {} solves on {} workers in {:.1} ms ({:.1} jobs/s); cache {} hits / {} misses",
                s.completed,
                s.workers,
                s.wall_time.as_secs_f64() * 1e3,
                s.jobs_per_second(),
                s.cache_hits,
                s.cache_misses
            );
            let mut deferred: Vec<(usize, JobSpec)> = Vec::new();
            let mut wait = std::time::Duration::ZERO;
            for (rec, (orig, spec)) in batch.jobs.into_iter().zip(pending) {
                if let Err(CoreError::QueueFull { retry_after, .. }) = &rec.result {
                    wait = wait.max(*retry_after);
                    deferred.push((orig, spec));
                } else {
                    records[orig] = Some(rec);
                }
            }
            pending = deferred;
            if !pending.is_empty() {
                println!(
                    "backpressure: {} solves past the queue capacity, honoring retry_after = {:.1} ms",
                    pending.len(),
                    wait.as_secs_f64() * 1e3
                );
                std::thread::sleep(wait);
            }
        }
        for (orig, rec) in records.iter().enumerate() {
            let Some(rec) = rec else { continue };
            match &rec.result {
                Ok(JobOutput::Pcg { outcome }) => println!(
                    "  job {orig}: {} in {} iterations, residual {:.3e}",
                    outcome.reason, outcome.iterations, outcome.residual
                ),
                Ok(_) => unreachable!("batch only submits PCG jobs"),
                Err(e) => println!("  job {orig}: FAILED: {e}"),
            }
        }
        if let Some(t) = &tele {
            write_telemetry(t)?;
        }
        return Ok(());
    }

    let mut acc = Alrescha::with_paper_config();
    acc.set_telemetry(tele.clone());
    let solver = AcceleratedPcg::program(&mut acc, &a)?;
    let out = solver.solve(&mut acc, &b, &opts)?;

    println!(
        "{} in {} iterations, residual {:.3e}",
        out.reason, out.iterations, out.residual
    );
    let max_err = out
        .x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |x - x_true| = {max_err:.3e}");

    let r = &out.report;
    println!(
        "device time: {:.3} ms over {} cycles",
        r.seconds * 1e3,
        r.cycles
    );
    println!(
        "data paths: {} GEMV blocks, {} D-SymGS blocks, {} reconfigurations (all hidden: {} exposed cycles)",
        r.datapaths.gemv_blocks,
        r.datapaths.dsymgs_blocks,
        r.reconfig.switches,
        r.reconfig.exposed_cycles
    );
    println!(
        "bandwidth utilization {:.1}%, cache hit rate {:.1}%",
        100.0 * r.bandwidth_utilization,
        100.0 * r.cache.hits as f64 / (r.cache.hits + r.cache.misses).max(1) as f64
    );
    if let Some(t) = &tele {
        write_telemetry(t)?;
    }
    Ok(())
}
