//! Criterion benchmark for the fleet runtime: batched execution with the
//! conversion cache against the per-job sequential reference, on the
//! repeated-matrix workload where Algorithm-1 conversion dominates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use alrescha::fleet::{Fleet, FleetConfig};
use alrescha_bench::fleet::repeated_matrix_jobs;

fn bench_fleet(c: &mut Criterion) {
    let preflight = alrescha_lint::fleet_preflight_hook(None);
    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);

    for &n_jobs in &[16usize, 32] {
        let jobs = repeated_matrix_jobs(216, n_jobs);

        group.bench_with_input(
            BenchmarkId::new("sequential", n_jobs),
            &jobs,
            |b, jobs| {
                b.iter(|| {
                    let fleet = Fleet::new(FleetConfig::default())
                        .with_preflight(preflight.clone());
                    fleet.run_sequential(jobs.clone())
                });
            },
        );

        for &workers in &[1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(&format!("batched-w{workers}"), n_jobs),
                &jobs,
                |b, jobs| {
                    b.iter(|| {
                        let fleet =
                            Fleet::new(FleetConfig::default().with_workers(workers))
                                .with_preflight(preflight.clone());
                        fleet.run(jobs.clone())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
