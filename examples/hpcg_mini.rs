//! A miniature HPCG run on the accelerator: set up the 27-point stencil
//! system, solve it with SymGS-preconditioned CG, and report the
//! GFLOP/s-style figure of merit alongside the device statistics — the
//! workload behind Figures 3, 6, and 15 of the paper.
//!
//! ```text
//! cargo run --release --example hpcg_mini [grid-side] [--mg]
//! cargo run --release --example hpcg_mini [grid-side] --workers 4
//! ```
//!
//! With `--mg`, the preconditioner is the full HPCG-style multigrid
//! V-cycle (every level's SymGS and SpMV on the device) instead of a
//! single SymGS application.
//!
//! With `--workers N`, a batch of PCG solves (one per right-hand side of
//! an HPCG-style campaign) runs through the `alrescha-fleet` runtime on N
//! workers: Algorithm-1 conversion and the alverify preflight are paid
//! once and shared through the conversion cache. `--queue N` caps fleet
//! admission: jobs past the cap come back rejected with a structured
//! `retry_after` hint, which the example honors — it sleeps the hint out
//! and resubmits until every solve has run.
//!
//! With `--trace-out trace.json`, the whole run — host spans plus the
//! engine's cycle-level timeline — is written as a Chrome/Perfetto trace
//! (open it at <https://ui.perfetto.dev>). `--metrics-out metrics.json`
//! writes the metrics-registry snapshot (inspect with `alobs metrics`).

use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobRecord, JobSpec};
use alrescha::{AcceleratedMgPcg, AcceleratedPcg, Alrescha, CoreError, KernelType, SolverOptions};
use alrescha_lint::Preflight;
use alrescha_kernels::multigrid::GridHierarchy;
use alrescha_kernels::spmv::spmv;
use alrescha_sparse::{gen, Csr, MetaData};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let use_mg = args.iter().any(|a| a == "--mg");
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
    let side: usize = args
        .iter()
        .enumerate()
        .find(|&(i, a)| {
            !a.starts_with("--")
                && (i == 0
                    || !matches!(
                        args[i - 1].as_str(),
                        "--workers" | "--trace-out" | "--metrics-out" | "--queue"
                    ))
        })
        .map(|(_, s)| s.parse())
        .transpose()?
        .unwrap_or(10);
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
    println!(
        "HPCG-mini: 27-point stencil on a {side}^3 grid ({} preconditioner)",
        if use_mg { "multigrid V-cycle" } else { "SymGS" }
    );

    let a = gen::stencil27(side);
    let csr = Csr::from_coo(&a);
    println!("  n = {}, nnz = {}", a.rows(), a.nnz());

    // HPCG solves A x = b for b = A * ones.
    let ones = vec![1.0; a.cols()];
    let b = spmv(&csr, &ones);

    let mut acc = Alrescha::with_paper_config();
    acc.set_telemetry(tele.clone());

    // Pre-flight: run the alverify static rule catalog over the SymGS
    // program before spending any device time (same gate as `alverify
    // --kernel symgs --gen stencil27:<side>`).
    let checked = acc.program(KernelType::SymGs, &a)?;
    let diags = acc.preflight(&checked)?;
    println!(
        "  preflight: launchable ({} non-blocking diagnostics)",
        diags.len()
    );

    let setup_start = std::time::Instant::now();
    let opts = SolverOptions {
        tol: 1e-9,
        max_iters: 200,
    };

    // Batched path: a campaign of PCG solves over the same stencil, one
    // per right-hand side, through the fleet runtime.
    if let Some(n_workers) = workers {
        if use_mg {
            println!("  note: --workers batches single-level PCG; --mg is ignored");
        }
        let n_rhs = 8;
        let jobs: Vec<JobSpec> = (0..n_rhs)
            .map(|j| {
                // Each RHS is A * (ones scaled by a per-job factor), so
                // every solve has a known answer but distinct data.
                let scale = 1.0 + f64::from(j) * 0.25;
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
        // Run with backpressure honored: a job past the queue capacity is
        // rejected in-band with a `retry_after` hint. Sleep the largest
        // hint out and resubmit the leftovers until every solve has run.
        let mut pending: Vec<(usize, JobSpec)> = jobs.into_iter().enumerate().collect();
        let mut records: Vec<Option<JobRecord>> = (0..n_rhs).map(|_| None).collect();
        while !pending.is_empty() {
            let specs: Vec<JobSpec> = pending.iter().map(|(_, s)| s.clone()).collect();
            let batch = fleet.run(specs);
            let s = &batch.stats;
            println!(
                "  fleet: {} solves on {} workers in {:.1} ms ({:.1} jobs/s)",
                s.completed,
                s.workers,
                s.wall_time.as_secs_f64() * 1e3,
                s.jobs_per_second()
            );
            println!(
                "  conversion cache: {} hits / {} misses; engines: {} built, {} reused",
                s.cache_hits, s.cache_misses, s.engine_rebuilds, s.engine_reuses
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
                    "  backpressure: {} jobs past the queue capacity, honoring retry_after = {:.1} ms",
                    pending.len(),
                    wait.as_secs_f64() * 1e3
                );
                std::thread::sleep(wait);
            }
        }
        for (orig, rec) in records.iter().enumerate() {
            let Some(rec) = rec else { continue };
            match &rec.result {
                Ok(alrescha::fleet::JobOutput::Pcg { outcome }) => println!(
                    "    job {orig}: {} in {} iterations, residual {:.2e} (worker {}, cache {})",
                    outcome.reason,
                    outcome.iterations,
                    outcome.residual,
                    rec.worker,
                    if rec.cache_hit { "hit" } else { "miss" },
                ),
                Ok(_) => unreachable!("batch only submits PCG jobs"),
                Err(e) => println!("    job {orig}: FAILED: {e}"),
            }
        }
        if let Some(t) = &tele {
            write_telemetry(t)?;
        }
        return Ok(());
    }
    let out = if use_mg {
        let depth = (side.trailing_zeros() as usize + 1).clamp(1, 3);
        let hierarchy = GridHierarchy::build(side, depth)?;
        let solver = AcceleratedMgPcg::program(&mut acc, &hierarchy)?;
        println!(
            "  setup ({}-level hierarchy + Algorithm 1): {:.1} ms host time",
            depth,
            setup_start.elapsed().as_secs_f64() * 1e3
        );
        solver.solve(&mut acc, &b, &opts)?
    } else {
        let solver = AcceleratedPcg::program(&mut acc, &a)?;
        println!(
            "  setup (Algorithm 1 conversion): {:.1} ms host time",
            setup_start.elapsed().as_secs_f64() * 1e3
        );
        solver.solve(&mut acc, &b, &opts)?
    };
    println!(
        "  solve: {} iterations, residual {:.2e}, outcome: {}",
        out.iterations, out.residual, out.reason
    );

    // HPCG-style accounting (see alrescha_kernels::metrics).
    let flops =
        out.iterations as u64 * alrescha_kernels::metrics::pcg_iteration_flops(a.nnz(), a.rows());
    let r = &out.report;
    println!(
        "  device time: {:.3} ms ({} cycles at 2.5 GHz)",
        r.seconds * 1e3,
        r.cycles
    );
    println!("  figure of merit: {:.2} GFLOP/s", r.gflops(flops));
    println!(
        "  cycle breakdown: {:.0}% GEMV, {:.0}% D-SymGS, {:.0}% drain",
        100.0 * r.breakdown.gemv_cycles as f64 / r.cycles as f64,
        100.0 * r.breakdown.dsymgs_cycles as f64 / r.cycles as f64,
        100.0 * r.breakdown.drain_cycles as f64 / r.cycles as f64,
    );
    println!(
        "  bandwidth utilization: {:.1}%, energy: {:.3} mJ",
        100.0 * r.bandwidth_utilization,
        1e3 * r.energy_joules(&alrescha_sim::EnergyModel::tsmc28())
    );
    println!(
        "  reconfigurations: {} (exposed stall cycles: {})",
        r.reconfig.switches, r.reconfig.exposed_cycles
    );
    if let Some(t) = &tele {
        write_telemetry(t)?;
    }
    Ok(())
}
