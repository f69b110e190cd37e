//! Deterministic synthetic dataset generators.
//!
//! The paper evaluates on SuiteSparse scientific matrices (Figure 14) and
//! SNAP graphs (Table 3). Those exact matrices are external data; what drives
//! the paper's results is their *structure class* — how the non-zeros are
//! distributed (diagonal-heavy stencils vs. scattered circuit matrices vs.
//! power-law graphs), which controls block fill, row-parallelism, and the
//! sequential fraction of SymGS (Figure 16). Each generator here reproduces
//! one structure class at configurable scale with a deterministic seed, so
//! every experiment in `alrescha-bench` is reproducible bit-for-bit.
//!
//! All scientific generators return symmetric positive-definite matrices
//! (diagonally dominant by construction) so PCG is guaranteed to converge.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::Coo;

/// A named scientific structure class standing in for a Figure 14 matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScienceClass {
    /// 27-point stencil of a 3-D PDE discretization (the HPCG structure) —
    /// highly diagonal, maximal block fill near the diagonal.
    Stencil27,
    /// Narrow banded matrix (fluid-dynamics style).
    Fluid,
    /// Structural-mechanics style: dense element blocks along the diagonal.
    Structural,
    /// Circuit simulation: mostly diagonal with a few dense rows/columns
    /// (power-law-ish degree of coupling).
    Circuit,
    /// Electromagnetics: banded plus periodic long-range coupling stripes.
    Electromagnetic,
    /// Economics: unsymmetric-looking scatter, symmetrized; low block fill.
    Economics,
    /// Chemical-process: many small irregular clusters near the diagonal.
    Chemical,
    /// Acoustics: wide band with smoothly decaying coupling.
    Acoustics,
}

impl ScienceClass {
    /// All scientific classes, in the order the figure harness reports them.
    pub const ALL: [ScienceClass; 8] = [
        ScienceClass::Stencil27,
        ScienceClass::Fluid,
        ScienceClass::Structural,
        ScienceClass::Circuit,
        ScienceClass::Electromagnetic,
        ScienceClass::Economics,
        ScienceClass::Chemical,
        ScienceClass::Acoustics,
    ];

    /// Short dataset-style name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ScienceClass::Stencil27 => "stencil27",
            ScienceClass::Fluid => "fluid",
            ScienceClass::Structural => "structural",
            ScienceClass::Circuit => "circuit",
            ScienceClass::Electromagnetic => "electromag",
            ScienceClass::Economics => "economics",
            ScienceClass::Chemical => "chemical",
            ScienceClass::Acoustics => "acoustics",
        }
    }

    /// Generates an `n`×`n` SPD instance of this class.
    ///
    /// `n` is rounded up to the generator's natural granularity (e.g. a cube
    /// for the stencil), so the returned matrix may be slightly larger.
    pub fn generate(self, n: usize, seed: u64) -> Coo {
        match self {
            ScienceClass::Stencil27 => {
                let side = (n as f64).cbrt().ceil() as usize;
                stencil27(side.max(2))
            }
            ScienceClass::Fluid => banded(n, 5, seed),
            ScienceClass::Structural => block_structural(n, 6, seed),
            ScienceClass::Circuit => circuit(n, seed),
            ScienceClass::Electromagnetic => electromagnetic(n, seed),
            ScienceClass::Economics => scattered(n, 4, seed),
            ScienceClass::Chemical => clustered(n, 5, seed),
            ScienceClass::Acoustics => banded(n, 11, seed),
        }
    }
}

/// A named graph structure class standing in for a Table 3 dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphClass {
    /// Social network, heavy-tailed degree (com-orkut / LiveJournal class).
    Social,
    /// Kronecker/RMAT synthetic (kron-g500 class).
    Kronecker,
    /// Road network: near-planar grid, tiny constant degree (roadnet-CA class).
    Road,
    /// Collaboration/hyperlink network (hollywood / sx-stackoverflow class).
    Collaboration,
}

impl GraphClass {
    /// All graph classes, in reporting order.
    pub const ALL: [GraphClass; 4] = [
        GraphClass::Social,
        GraphClass::Kronecker,
        GraphClass::Road,
        GraphClass::Collaboration,
    ];

    /// Short dataset-style name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            GraphClass::Social => "social",
            GraphClass::Kronecker => "kronecker",
            GraphClass::Road => "road",
            GraphClass::Collaboration => "collab",
        }
    }

    /// Generates an adjacency matrix with about `n` vertices.
    ///
    /// Edge weights are positive path lengths in `(0, 1]` so the same matrix
    /// serves BFS (structure only), SSSP (weights), and PageRank.
    pub fn generate(self, n: usize, seed: u64) -> Coo {
        match self {
            GraphClass::Social => power_law(n, 16, 0.9, seed),
            GraphClass::Kronecker => rmat(n, 16, seed),
            GraphClass::Road => road_grid((n as f64).sqrt().ceil() as usize),
            GraphClass::Collaboration => power_law(n, 24, 0.8, seed),
        }
    }
}

/// 27-point stencil on a `side`³ grid: each grid point couples to its 3×3×3
/// neighborhood. This is the exact structure of the HPCG benchmark matrix.
/// Diagonal is set to 26.5 + |neighbors| noise-free margin, making the matrix
/// strictly diagonally dominant (hence SPD, since it is symmetric).
pub fn stencil27(side: usize) -> Coo {
    let n = side * side * side;
    let mut coo = Coo::with_capacity(n, n, n * 27);
    let idx = |x: usize, y: usize, z: usize| (z * side + y) * side + x;
    for z in 0..side {
        for y in 0..side {
            for x in 0..side {
                let row = idx(x, y, z);
                let mut off_sum = 0.0;
                for dz in -1i64..=1 {
                    for dy in -1i64..=1 {
                        for dx in -1i64..=1 {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            let (nx, ny, nz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                            if nx < 0
                                || ny < 0
                                || nz < 0
                                || nx >= side as i64
                                || ny >= side as i64
                                || nz >= side as i64
                            {
                                continue;
                            }
                            coo.push(row, idx(nx as usize, ny as usize, nz as usize), -1.0);
                            off_sum += 1.0;
                        }
                    }
                }
                coo.push(row, row, off_sum + 1.0);
            }
        }
    }
    coo
}

/// Symmetric banded matrix with `half_band` sub/super-diagonals and smoothly
/// decaying coupling, strictly diagonally dominant.
pub fn banded(n: usize, half_band: usize, seed: u64) -> Coo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, n * (2 * half_band + 1));
    let mut row_sum = vec![0.0f64; n];
    for i in 0..n {
        for k in 1..=half_band {
            if i + k < n {
                let decay = 1.0 / k as f64;
                let v = -decay * rng.gen_range(0.5..1.0);
                coo.push(i, i + k, v);
                coo.push(i + k, i, v);
                row_sum[i] += v.abs();
                row_sum[i + k] += v.abs();
            }
        }
    }
    for (i, s) in row_sum.iter().enumerate() {
        coo.push(i, i, s + 1.0);
    }
    coo
}

/// Dense `block`×`block` element blocks along the diagonal plus sparse
/// inter-block ties — the structure of assembled finite-element matrices.
pub fn block_structural(n: usize, block: usize, seed: u64) -> Coo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nb = n.div_ceil(block);
    let n = nb * block;
    let mut coo = Coo::with_capacity(n, n, n * block);
    let mut row_sum = vec![0.0f64; n];
    for b in 0..nb {
        let base = b * block;
        for i in 0..block {
            for j in (i + 1)..block {
                let v = -rng.gen_range(0.1..1.0);
                coo.push(base + i, base + j, v);
                coo.push(base + j, base + i, v);
                row_sum[base + i] += v.abs();
                row_sum[base + j] += v.abs();
            }
        }
        // One symmetric tie to the next element block.
        if b + 1 < nb {
            let (i, j) = (base + block - 1, base + block);
            let v = -rng.gen_range(0.1..0.5);
            coo.push(i, j, v);
            coo.push(j, i, v);
            row_sum[i] += v.abs();
            row_sum[j] += v.abs();
        }
    }
    for (i, s) in row_sum.iter().enumerate() {
        coo.push(i, i, s + 1.0);
    }
    coo
}

/// Circuit-style matrix: a tridiagonal backbone plus a few high-degree
/// "net" rows coupling to many random columns (symmetrized).
pub fn circuit(n: usize, seed: u64) -> Coo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, n * 6);
    let mut row_sum = vec![0.0f64; n];
    let tie = |coo: &mut Coo, row_sum: &mut [f64], i: usize, j: usize, v: f64| {
        if i != j {
            coo.push(i, j, v);
            coo.push(j, i, v);
            row_sum[i] += v.abs();
            row_sum[j] += v.abs();
        }
    };
    for i in 0..n.saturating_sub(1) {
        let v = -rng.gen_range(0.5..1.0);
        tie(&mut coo, &mut row_sum, i, i + 1, v);
    }
    // ~2% of nodes are high-fanout nets.
    let hubs = (n / 50).max(1);
    for _ in 0..hubs {
        let hub = rng.gen_range(0..n);
        let fanout = rng.gen_range(8..24).min(n.saturating_sub(1));
        for _ in 0..fanout {
            let other = rng.gen_range(0..n);
            if other != hub {
                let v = -rng.gen_range(0.05..0.3);
                tie(&mut coo, &mut row_sum, hub, other, v);
            }
        }
    }
    for (i, s) in row_sum.iter().enumerate() {
        coo.push(i, i, s + 1.0);
    }
    coo.compress()
}

/// Banded backbone plus periodic long-range stripes (boundary coupling),
/// the look of discretized integral-equation/EM problems.
pub fn electromagnetic(n: usize, seed: u64) -> Coo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, n * 8);
    let mut row_sum = vec![0.0f64; n];
    let stride = (n / 8).max(2);
    for i in 0..n {
        for &j in &[i + 1, i + 2, i + stride] {
            if j < n {
                let v = -rng.gen_range(0.2..0.8);
                coo.push(i, j, v);
                coo.push(j, i, v);
                row_sum[i] += v.abs();
                row_sum[j] += v.abs();
            }
        }
    }
    for (i, s) in row_sum.iter().enumerate() {
        coo.push(i, i, s + 1.0);
    }
    coo
}

/// Scattered symmetric matrix with about `per_row` entries per row: most
/// coupling lands inside a wide band (a tenth of the dimension — economics
/// matrices couple sectors locally), with occasional global entries — the
/// "non-zeros everywhere" end of the Figure 12 spectrum.
pub fn scattered(n: usize, per_row: usize, seed: u64) -> Coo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, n * (per_row + 1));
    let mut row_sum = vec![0.0f64; n];
    let band = (n / 10).max(2);
    for i in 0..n {
        for _ in 0..per_row / 2 {
            let j = if rng.gen_bool(0.8) {
                let lo = i.saturating_sub(band);
                let hi = (i + band).min(n - 1);
                rng.gen_range(lo..=hi)
            } else {
                rng.gen_range(0..n)
            };
            if j != i {
                let v = -rng.gen_range(0.1..1.0);
                coo.push(i, j, v);
                coo.push(j, i, v);
                row_sum[i] += v.abs();
                row_sum[j] += v.abs();
            }
        }
    }
    for (i, s) in row_sum.iter().enumerate() {
        coo.push(i, i, s + 1.0);
    }
    coo.compress()
}

/// Small irregular clusters near the diagonal (chemical-process style).
pub fn clustered(n: usize, cluster: usize, seed: u64) -> Coo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, n * cluster);
    let mut row_sum = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        let size = rng.gen_range(2..=cluster).min(n - i);
        for a in 0..size {
            for b in (a + 1)..size {
                if rng.gen_bool(0.7) {
                    let v = -rng.gen_range(0.2..1.0);
                    coo.push(i + a, i + b, v);
                    coo.push(i + b, i + a, v);
                    row_sum[i + a] += v.abs();
                    row_sum[i + b] += v.abs();
                }
            }
        }
        // Chain clusters together so the matrix is irreducible.
        if i + size < n {
            let v = -0.25;
            coo.push(i + size - 1, i + size, v);
            coo.push(i + size, i + size - 1, v);
            row_sum[i + size - 1] += v.abs();
            row_sum[i + size] += v.abs();
        }
        i += size;
    }
    for (i, s) in row_sum.iter().enumerate() {
        coo.push(i, i, s + 1.0);
    }
    coo
}

/// Directed power-law graph: edge targets follow a Zipf-rank distribution
/// with exponent `alpha` (0.8–1.0 matches observed web/social popularity
/// laws), source out-degrees are uniform around `avg_degree`. Self-loops
/// are skipped.
pub fn power_law(n: usize, avg_degree: usize, alpha: f64, seed: u64) -> Coo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, n * avg_degree);
    // Zipf ranks as target-popularity: node k attracts weight (k+1)^-alpha.
    // Sample targets by inverse-CDF over a precomputed prefix table.
    let weights: Vec<f64> = (0..n).map(|k| ((k + 1) as f64).powf(-alpha)).collect();
    let mut prefix = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        prefix.push(acc);
    }
    let total = acc;
    // Targets keep their popularity rank as their id — the degree-sorted
    // relabeling that real graph pipelines apply before blocking, which
    // concentrates hub columns and gives the blocked formats realistic
    // fill.
    for src in 0..n {
        let deg = (rng.gen_range(1..=2 * avg_degree.max(1))).min(n.saturating_sub(1));
        for _ in 0..deg {
            let u = rng.gen_range(0.0..total);
            let dst = prefix.partition_point(|&p| p < u).min(n - 1);
            if dst != src {
                coo.push(src, dst, rng.gen_range(0.05..1.0));
            }
        }
    }
    coo.compress()
}

/// RMAT/Kronecker-style recursive generator (a = 0.57, b = c = 0.19,
/// the Graph500 parameters), producing the kron-g500 structure class.
pub fn rmat(n: usize, avg_degree: usize, seed: u64) -> Coo {
    let scale = (usize::BITS - (n.max(2) - 1).leading_zeros()) as usize;
    let n = 1usize << scale;
    let edges = n * avg_degree;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, edges);
    let (a, b, c) = (0.57, 0.19, 0.19);
    for _ in 0..edges {
        let (mut r, mut cc) = (0usize, 0usize);
        for level in (0..scale).rev() {
            let u: f64 = rng.gen();
            let (dr, dc) = if u < a {
                (0, 0)
            } else if u < a + b {
                (0, 1)
            } else if u < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            r |= dr << level;
            cc |= dc << level;
        }
        if r != cc {
            coo.push(r, cc, rng.gen_range(0.05..1.0));
        }
    }
    coo.compress()
}

/// 2-D road grid on `side`×`side` intersections: 4-neighbor connectivity
/// with unit-ish weights — the roadnet-CA structure class.
pub fn road_grid(side: usize) -> Coo {
    let n = side * side;
    let mut coo = Coo::with_capacity(n, n, n * 4);
    let idx = |x: usize, y: usize| y * side + x;
    for y in 0..side {
        for x in 0..side {
            let v = idx(x, y);
            // Deterministic weights varying with position keep SSSP nontrivial.
            let w = 0.5 + ((x * 7 + y * 13) % 10) as f64 / 10.0;
            if x + 1 < side {
                coo.push(v, idx(x + 1, y), w);
                coo.push(idx(x + 1, y), v, w);
            }
            if y + 1 < side {
                coo.push(v, idx(x, y + 1), w);
                coo.push(idx(x, y + 1), v, w);
            }
        }
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Csr, MetaData};

    fn is_diag_dominant(coo: &Coo) -> bool {
        let csr = Csr::from_coo(coo);
        (0..csr.rows()).all(|i| {
            let diag = csr.get(i, i).abs();
            let off: f64 = csr
                .row_entries(i)
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            diag > off
        })
    }

    #[test]
    fn stencil27_center_row_has_27_entries() {
        let coo = stencil27(4);
        let csr = Csr::from_coo(&coo);
        // Interior point (z,y,x) = (1,1,1) -> full 27-point stencil, at
        // linear row (z*4 + y)*4 + x.
        let row = (4 + 1) * 4 + 1;
        assert_eq!(csr.row_nnz(row), 27);
        assert!(coo.is_symmetric(1e-12));
        assert!(is_diag_dominant(&coo));
    }

    #[test]
    fn all_science_classes_are_spd_candidates() {
        for class in ScienceClass::ALL {
            let coo = class.generate(200, 42);
            assert!(coo.is_symmetric(1e-12), "{} not symmetric", class.name());
            assert!(
                is_diag_dominant(&coo),
                "{} not diagonally dominant",
                class.name()
            );
            assert!(coo.nnz() > 0);
        }
    }

    #[test]
    fn science_generators_are_deterministic() {
        for class in ScienceClass::ALL {
            let a = class.generate(128, 7).compress();
            let b = class.generate(128, 7).compress();
            assert_eq!(a, b, "{} not deterministic", class.name());
        }
    }

    #[test]
    fn graph_generators_are_deterministic() {
        for class in GraphClass::ALL {
            let a = class.generate(256, 7).compress();
            let b = class.generate(256, 7).compress();
            assert_eq!(a, b, "{} not deterministic", class.name());
        }
    }

    #[test]
    fn power_law_has_heavy_tail() {
        let g = power_law(500, 8, 1.0, 3);
        let csr = Csr::from_coo(&g);
        let mut in_deg = vec![0usize; 500];
        for &c in csr.col_idx() {
            in_deg[c] += 1;
        }
        let max = *in_deg.iter().max().unwrap();
        let mean = in_deg.iter().sum::<usize>() as f64 / 500.0;
        assert!(max as f64 > 5.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn rmat_rounds_to_power_of_two() {
        let g = rmat(100, 4, 1);
        assert_eq!(g.rows(), 128);
        assert!(g.nnz() > 0);
    }

    #[test]
    fn road_grid_has_bounded_degree() {
        let g = road_grid(10);
        let csr = Csr::from_coo(&g);
        assert!((0..100).all(|r| csr.row_nnz(r) <= 4));
        assert!(g.is_symmetric(1e-12));
    }

    #[test]
    fn graph_weights_are_positive() {
        for class in GraphClass::ALL {
            let g = class.generate(128, 9);
            assert!(
                g.entries().iter().all(|&(_, _, w)| w > 0.0),
                "{} has non-positive weight",
                class.name()
            );
        }
    }

    #[test]
    fn no_self_loops_in_graphs() {
        for class in GraphClass::ALL {
            let g = class.generate(128, 11);
            assert!(
                g.entries().iter().all(|&(r, c, _)| r != c),
                "{} has a self-loop",
                class.name()
            );
        }
    }
}
