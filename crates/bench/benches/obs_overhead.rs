//! Telemetry overhead gate: the fleet workload with no telemetry attached
//! against the same workload with a disabled [`alrescha_obs::Telemetry`]
//! wired through every layer. The disabled configuration must stay within
//! 1% — instrumentation is one relaxed atomic load per call site.
//!
//! An enabled-telemetry series is included for context (it pays span
//! buffer pushes and device-timeline capture); it carries no gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use alrescha::fleet::{Fleet, FleetConfig};
use alrescha_bench::fleet::repeated_matrix_jobs;
use alrescha_obs::Telemetry;

fn bench_obs_overhead(c: &mut Criterion) {
    let preflight = alrescha_lint::fleet_preflight_hook(None);
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);

    let n_jobs = 32usize;
    let workers = 4usize;
    let jobs = repeated_matrix_jobs(216, n_jobs);

    group.bench_with_input(BenchmarkId::new("no-telemetry", n_jobs), &jobs, |b, jobs| {
        b.iter(|| {
            let fleet = Fleet::new(FleetConfig::default().with_workers(workers))
                .with_preflight(preflight.clone());
            fleet.run(jobs.clone())
        });
    });

    group.bench_with_input(
        BenchmarkId::new("attached-disabled", n_jobs),
        &jobs,
        |b, jobs| {
            b.iter(|| {
                let tele = Telemetry::with_enabled(false);
                let fleet = Fleet::new(FleetConfig::default().with_workers(workers))
                    .with_preflight(preflight.clone())
                    .with_telemetry(tele);
                fleet.run(jobs.clone())
            });
        },
    );

    group.bench_with_input(BenchmarkId::new("enabled", n_jobs), &jobs, |b, jobs| {
        b.iter(|| {
            let tele = Telemetry::new();
            let fleet = Fleet::new(FleetConfig::default().with_workers(workers))
                .with_preflight(alrescha_lint::fleet_preflight_hook(Some(
                    std::sync::Arc::clone(&tele),
                )))
                .with_telemetry(tele);
            fleet.run(jobs.clone())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
