//! Seeded workload inputs. The workload seed is the only source of
//! variation: the same seed gives the same matrices, vectors and job list
//! on every run, and the program under test receives only these
//! generated inputs.

#[cfg(test)]
use alrescha::fleet::matrix_fingerprint;
use alrescha::util::splitmix64;
use alrescha_serve::JobPayload;
use alrescha_sparse::gen::{self, GraphClass, ScienceClass};
use alrescha_sparse::Coo;

/// The default workload seed (the trajectory's seed).
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out from tuning; performance claims are re-checked on it.
pub const HELD_OUT_SEED: u64 = 90_210;

/// Independent stream `stream` of workload seed `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

/// A vector of `n` values in `[-1, 1)` drawn from stream `stream`.
pub fn vector(seed: u64, stream: u64, n: usize) -> Vec<f64> {
    let mut s = sub_seed(seed, stream);
    (0..n)
        .map(|_| (splitmix64(&mut s) >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        .collect()
}

/// 27-point stencil side of engine_mix's high-fill matrix (13824 rows:
/// its ALF stream is larger than the modelled L2).
pub const MIX_STENCIL_SIDE: usize = 24;
/// Rows of engine_mix's low-fill `economics`-class matrix.
pub const MIX_ECON_N: usize = 8000;
/// Vertices of engine_mix's power-law graph.
pub const MIX_GRAPH_N: usize = 1024;

/// engine_mix's fixed suite: two SPD systems and one graph, plus the
/// operand vectors every call uses.
pub struct Suite {
    pub stencil: Coo,
    pub econ: Coo,
    pub graph: Coo,
    pub x_stencil: Vec<f64>,
    pub b_stencil: Vec<f64>,
    pub x_econ: Vec<f64>,
    pub b_econ: Vec<f64>,
}

/// Seed of engine_mix's matrices. The suite is fixed so that its device
/// cycles are the same for every workload seed; the workload seed draws
/// the operand vectors.
const SUITE_SEED: u64 = 0x5EED_0001;

pub fn engine_suite(seed: u64) -> Suite {
    let stencil = gen::stencil27(MIX_STENCIL_SIDE);
    let econ = ScienceClass::Economics.generate(MIX_ECON_N, SUITE_SEED);
    let graph = GraphClass::Social.generate(MIX_GRAPH_N, SUITE_SEED + 1);
    let (ns, ne) = (stencil.rows(), econ.rows());
    Suite {
        x_stencil: vector(seed, 10, ns),
        b_stencil: vector(seed, 11, ns),
        x_econ: vector(seed, 12, ne),
        b_econ: vector(seed, 13, ne),
        stencil,
        econ,
        graph,
    }
}

/// serve_repeat's one repeated system: stencil27 on a 10³ grid.
pub const REPEAT_SIDE: usize = 10;
/// Length of serve_repeat's job list (cycled by the closed loop).
pub const REPEAT_JOBS: usize = 32;
/// Length of serve_cold's job list; one server lifetime runs it once.
pub const COLD_JOBS: usize = 24;
/// serve_cold's iteration cap: the engine does little per job.
pub const COLD_MAX_ITERS: u64 = 2;

/// Science classes with a seeded generator (the stencil ignores its seed).
const COLD_CLASSES: [ScienceClass; 7] = [
    ScienceClass::Fluid,
    ScienceClass::Structural,
    ScienceClass::Circuit,
    ScienceClass::Electromagnetic,
    ScienceClass::Economics,
    ScienceClass::Chemical,
    ScienceClass::Acoustics,
];

/// serve_repeat job `i`: the shared stencil system with its own
/// right-hand side, solved to 1e-10. `i == REPEAT_JOBS` is the warm-up.
pub fn repeat_job(seed: u64, matrix: &Coo, i: usize) -> JobPayload {
    JobPayload {
        matrix: matrix.clone(),
        b: vector(seed, 100 + i as u64, matrix.rows()),
        tol: 1e-10,
        max_iters: 500,
        priority: 0,
    }
}

pub fn repeat_matrix() -> Coo {
    gen::stencil27(REPEAT_SIDE)
}

/// serve_cold job `i`: a distinct SPD matrix with 1700–2000 rows, capped
/// at [`COLD_MAX_ITERS`] PCG iterations. Job `i`'s science class and size
/// are fixed, so every seed runs the same mix; the seed draws the
/// matrix's entries. `i == COLD_JOBS` is the warm-up job.
pub fn cold_job(seed: u64, i: usize) -> JobPayload {
    let class = COLD_CLASSES[i % COLD_CLASSES.len()];
    let n = 1700 + (i * 97) % 301;
    let matrix = class.generate(n, sub_seed(seed, 1000 + i as u64));
    let b = vector(seed, 2000 + i as u64, matrix.rows());
    JobPayload {
        matrix,
        b,
        tol: 1e-10,
        max_iters: COLD_MAX_ITERS,
        priority: 0,
    }
}

/// Content fingerprint of one job's inputs (matrix and right-hand side).
#[cfg(test)]
fn job_fingerprint(job: &JobPayload) -> u64 {
    let mut h = matrix_fingerprint(&job.matrix);
    for v in &job.b {
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ job.max_iters
}

/// Fingerprints of every input a workload generates from `seed`.
#[cfg(test)]
fn input_fingerprints(workload: &str, seed: u64) -> Vec<u64> {
    match workload {
        "engine_mix" => {
            let s = engine_suite(seed);
            [&s.x_stencil, &s.b_stencil, &s.x_econ, &s.b_econ]
                .iter()
                .map(|v| v.iter().fold(0, |h: u64, x| h.rotate_left(5) ^ x.to_bits()))
                .collect()
        }
        "serve_repeat" => {
            let a = repeat_matrix();
            (0..=REPEAT_JOBS)
                .map(|i| job_fingerprint(&repeat_job(seed, &a, i)))
                .collect()
        }
        "serve_cold" => (0..=COLD_JOBS)
            .map(|i| job_fingerprint(&cold_job(seed, i)))
            .collect(),
        other => panic!("unknown workload {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One seed gives the same inputs on every run; another seed gives
    /// different ones, on every workload.
    #[test]
    fn seeds_are_deterministic_and_distinct() {
        for w in ["engine_mix", "serve_repeat", "serve_cold"] {
            let a = input_fingerprints(w, DEFAULT_SEED);
            assert_eq!(
                a,
                input_fingerprints(w, DEFAULT_SEED),
                "{w}: seed not repeatable"
            );
            let b = input_fingerprints(w, HELD_OUT_SEED);
            assert_eq!(a.len(), b.len());
            assert_ne!(
                a, b,
                "{w}: seeds {DEFAULT_SEED} and {HELD_OUT_SEED} collide"
            );
        }
    }

    /// Every job of a list is distinct, so serve_cold misses the
    /// conversion cache on each job and serve_repeat's right-hand sides
    /// differ while the matrix repeats.
    #[test]
    fn job_lists_hold_distinct_jobs() {
        for w in ["serve_repeat", "serve_cold"] {
            let mut fps = input_fingerprints(w, 7);
            let n = fps.len();
            fps.sort_unstable();
            fps.dedup();
            assert_eq!(fps.len(), n, "{w}: duplicate job in the list");
        }
        let cold: Vec<u64> = (0..COLD_JOBS)
            .map(|i| matrix_fingerprint(&cold_job(7, i).matrix))
            .collect();
        let mut uniq = cold.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), cold.len());
    }
}
