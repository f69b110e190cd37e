//! Criterion bench: full PCG solves, host vs accelerated (Figure 15's
//! algorithm at bench scale).

use criterion::{criterion_group, criterion_main, Criterion};

use alrescha::{AcceleratedPcg, Alrescha, SolverOptions};
use alrescha_kernels::{pcg, spmv::spmv};
use alrescha_sparse::{gen, Csr};

fn bench_pcg(c: &mut Criterion) {
    let coo = gen::stencil27(8);
    let csr = Csr::from_coo(&coo);
    let x_true: Vec<f64> = (0..coo.rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
    let b = spmv(&csr, &x_true);

    let mut group = c.benchmark_group("pcg");
    group.sample_size(10);
    group.bench_function("host", |bench| {
        bench.iter(|| {
            pcg::pcg(
                &csr,
                &b,
                &pcg::PcgOptions {
                    tol: 1e-8,
                    ..Default::default()
                },
            )
            .expect("host pcg")
        });
    });
    group.bench_function("accelerated", |bench| {
        bench.iter(|| {
            let mut acc = Alrescha::with_paper_config();
            let solver = AcceleratedPcg::program(&mut acc, &coo).expect("program");
            solver
                .solve(
                    &mut acc,
                    &b,
                    &SolverOptions {
                        tol: 1e-8,
                        max_iters: 200,
                    },
                )
                .expect("solve")
        });
    });
    group.finish();
}

fn bench_multigrid(c: &mut Criterion) {
    use alrescha_kernels::multigrid::GridHierarchy;
    let hierarchy = GridHierarchy::build(8, 3).expect("power-of-two side");
    let b = vec![1.0; hierarchy.levels()[0].matrix.rows()];
    let mut group = c.benchmark_group("multigrid");
    group.sample_size(10);
    group.bench_function("v-cycle", |bench| {
        bench.iter(|| hierarchy.v_cycle(&b).expect("smoothers run"));
    });
    group.bench_function("mg-pcg-solve", |bench| {
        bench.iter(|| hierarchy.solve(&b, 1e-8, 100).expect("converges"));
    });
    group.finish();
}

criterion_group!(benches, bench_pcg, bench_multigrid);
criterion_main!(benches);
