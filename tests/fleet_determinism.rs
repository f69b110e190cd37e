//! Determinism contract of the batched execution runtime: for every job,
//! [`Fleet::run`] is **bit-identical** to [`Fleet::run_sequential`] and to a
//! second batch run at a different worker count — regardless of scheduling,
//! which worker claims which job, conversion-cache hits, or armed fault
//! plans.
//!
//! The comparison uses [`JobOutput::fingerprint`], which folds the exact
//! result bits, the full execution report, and (for solves) every outcome
//! field; equal fingerprints mean the runs are indistinguishable.

use proptest::prelude::*;

use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobOutput, JobSpec};
use alrescha::{CoreError, FaultPlan, RecoveryPolicy};
use alrescha_sim::SimConfig;
use alrescha_sparse::Coo;

/// Strategy: a diagonally dominant square system (every kernel accepts it).
fn arb_dd_matrix() -> impl Strategy<Value = Coo> {
    (2usize..16).prop_flat_map(|n| {
        let entry = (0..n, 0..n, 1i32..50);
        proptest::collection::vec(entry, 0..40).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            let mut row_sum = vec![0.0; n];
            for (r, c, v) in entries {
                if r != c {
                    let v = -f64::from(v) / 60.0;
                    coo.push(r, c, v);
                    row_sum[r] += v.abs();
                }
            }
            for (i, s) in row_sum.iter().enumerate() {
                coo.push(i, i, s + 1.0);
            }
            coo.compress()
        })
    })
}

/// Strategy: a seeded fault plan (or none). Rates are low enough that the
/// retry policy usually recovers, so both `Ok` and `Err` paths are walked.
fn arb_fault_plan() -> impl Strategy<Value = Option<FaultPlan>> {
    (0u64..10_000).prop_map(|seed| {
        // Two in five cases run fault-free; the rest carry a seeded plan.
        if seed % 5 < 2 {
            None
        } else {
            Some(
                FaultPlan::inert(seed)
                    .with_fcu_tree_rate(0.02)
                    .with_cache_fault_rate(0.05),
            )
        }
    })
}

/// Builds the job batch one property case exercises: repeated matrices (to
/// drive the conversion cache) across SpMV and SymGS, under one ω.
fn build_jobs(a: &Coo, omega: usize, plan: Option<FaultPlan>) -> Vec<JobSpec> {
    let n = a.rows();
    let config = SimConfig::paper().with_omega(omega);
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64 / 3.0).collect();
    let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
    let recovery = RecoveryPolicy::Retry {
        max_retries: 2,
        backoff_cycles: 8,
    };
    let mut jobs = Vec::new();
    for rep in 0..3 {
        let mut spmv = JobSpec::new(a.clone(), JobKernel::SpMv { x: x.clone() })
            .with_config(config.clone())
            .with_recovery(recovery);
        let mut symgs = JobSpec::new(
            a.clone(),
            JobKernel::SymGs {
                b: b.clone(),
                x0: vec![0.0; n],
            },
        )
        .with_config(config.clone())
        .with_recovery(recovery);
        if let Some(plan) = &plan {
            // Vary the seed per job: isolation must hold even when every
            // job carries a *different* plan.
            let reseeded = plan.clone().with_window(0, u64::MAX - rep as u64);
            spmv = spmv.with_fault_plan(reseeded.clone());
            symgs = symgs.with_fault_plan(reseeded);
        }
        jobs.push(spmv);
        jobs.push(symgs);
    }
    jobs
}

/// Per-job fingerprints of a report: `Ok(fingerprint)` or the error.
fn fingerprints(report: &alrescha::FleetReport) -> Vec<Result<u64, CoreError>> {
    report
        .jobs
        .iter()
        .map(|rec| match &rec.result {
            Ok(out) => Ok(out.fingerprint()),
            Err(e) => Err(e.clone()),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_equals_sequential_equals_batch(
        a in arb_dd_matrix(),
        omega_pow in 1usize..4,        // ω ∈ {2, 4, 8}
        workers_pow in 0usize..4,      // workers ∈ {1, 2, 4, 8}
        plan in arb_fault_plan(),
    ) {
        let omega = 1usize << omega_pow;
        let workers = 1usize << workers_pow;
        // A different worker count for the second batch (8 -> 1).
        let other_workers = if workers == 8 { 1 } else { workers * 2 };
        let jobs = build_jobs(&a, omega, plan);

        let batch = Fleet::new(FleetConfig::default().with_workers(workers)).run(jobs.clone());
        let sequential = Fleet::new(FleetConfig::default()).run_sequential(jobs.clone());
        let batch2 =
            Fleet::new(FleetConfig::default().with_workers(other_workers)).run(jobs);

        let fp_batch = fingerprints(&batch);
        let fp_seq = fingerprints(&sequential);
        let fp_batch2 = fingerprints(&batch2);
        prop_assert_eq!(&fp_batch, &fp_seq, "batch({workers}) != sequential");
        prop_assert_eq!(&fp_batch, &fp_batch2, "batch({workers}) != batch({other_workers})");

        // Scheduling metadata aside, aggregate accounting must agree on
        // what actually ran.
        prop_assert_eq!(batch.stats.completed, sequential.stats.completed);
        prop_assert_eq!(batch.stats.failed, sequential.stats.failed);
    }
}

/// Stress fallback for the sharded conversion cache (no ThreadSanitizer in
/// tier-1 CI): many workers hammer a small key set concurrently; every job
/// must complete with the bit-exact result of the sequential path, and the
/// cache must end up with exactly one program per distinct key.
#[test]
fn sharded_cache_survives_concurrent_hammering() {
    let matrices: Vec<Coo> = (2..6).map(alrescha_sparse::gen::stencil27).collect();
    let mut jobs = Vec::new();
    for rep in 0..10 {
        for a in &matrices {
            let x: Vec<f64> = (0..a.cols()).map(|i| ((i + rep) % 9) as f64 - 4.0).collect();
            jobs.push(JobSpec::new(a.clone(), JobKernel::SpMv { x }));
        }
    }
    let fleet = Fleet::new(FleetConfig::default().with_workers(8).with_queue_capacity(256));
    let batch = fleet.run(jobs.clone());
    assert_eq!(batch.stats.completed, jobs.len());
    // One conversion per distinct matrix, everything else served hot. A
    // racing duplicate conversion would show up as an extra miss.
    assert_eq!(fleet.cached_programs(), matrices.len());
    assert_eq!(batch.stats.cache_misses, matrices.len() as u64);
    assert_eq!(
        batch.stats.cache_hits,
        (jobs.len() - matrices.len()) as u64
    );

    let sequential = Fleet::new(FleetConfig::default()).run_sequential(jobs);
    for (b_rec, s_rec) in batch.jobs.iter().zip(&sequential.jobs) {
        let (b_out, s_out) = match (&b_rec.result, &s_rec.result) {
            (Ok(b), Ok(s)) => (b, s),
            other => panic!("job {} failed: {other:?}", b_rec.job),
        };
        assert_eq!(
            b_out.fingerprint(),
            s_out.fingerprint(),
            "job {} not bit-identical under contention",
            b_rec.job
        );
    }
}

/// A second stress shape: jobs whose configs alternate ω per job, forcing
/// worker-engine rebuilds interleaved with cache traffic.
#[test]
fn engine_recycling_under_mixed_configs_stays_deterministic() {
    let a = alrescha_sparse::gen::stencil27(3);
    let x = vec![1.0; a.cols()];
    let jobs: Vec<JobSpec> = (0..12)
        .map(|i| {
            let omega = [2usize, 4, 8][i % 3];
            JobSpec::new(a.clone(), JobKernel::SpMv { x: x.clone() })
                .with_config(SimConfig::paper().with_omega(omega))
        })
        .collect();
    let batch = Fleet::new(FleetConfig::default().with_workers(4)).run(jobs.clone());
    let sequential = Fleet::new(FleetConfig::default()).run_sequential(jobs);
    let fp_batch = fingerprints(&batch);
    let fp_seq = fingerprints(&sequential);
    assert_eq!(fp_batch, fp_seq);
    // Three distinct (kernel, omega, matrix) keys.
    assert_eq!(batch.stats.cache_misses, 3);

    // Jobs sharing an omega are identical and must produce identical bits.
    for group in 0..3 {
        let first = fp_batch[group].as_ref().expect("spmv succeeds");
        for rep in 1..4 {
            assert_eq!(
                fp_batch[group + 3 * rep].as_ref().expect("spmv succeeds"),
                first,
                "omega group {group} diverged at repetition {rep}"
            );
        }
    }
}

/// PCG solves through the fleet reuse cached programs across jobs and still
/// match the sequential solver bit-for-bit.
#[test]
fn pcg_jobs_match_sequential_bitwise() {
    use alrescha::SolverOptions;
    let a = alrescha_sparse::gen::stencil27(3);
    let n = a.rows();
    let jobs: Vec<JobSpec> = (0..3)
        .map(|i| {
            let b: Vec<f64> = (0..n).map(|j| ((i + j) % 5) as f64 - 2.0).collect();
            JobSpec::new(
                a.clone(),
                JobKernel::Pcg {
                    b,
                    opts: SolverOptions {
                        tol: 1e-9,
                        max_iters: 60,
                    },
                },
            )
        })
        .collect();
    let batch = Fleet::new(FleetConfig::default().with_workers(2)).run(jobs.clone());
    let sequential = Fleet::new(FleetConfig::default()).run_sequential(jobs);
    assert_eq!(fingerprints(&batch), fingerprints(&sequential));
    // Each solve needs SpMV + SymGS programs: 2 misses, then 4 hits.
    assert_eq!(batch.stats.cache_misses, 2);
    assert_eq!(batch.stats.cache_hits, 4);
    for rec in &batch.jobs {
        let Ok(JobOutput::Pcg { outcome }) = &rec.result else {
            panic!("job {} did not solve: {:?}", rec.job, rec.result);
        };
        assert!(outcome.converged, "job {} failed to converge", rec.job);
    }
}
