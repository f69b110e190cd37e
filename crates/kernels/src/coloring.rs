//! Row reordering by greedy matrix coloring — the GPU-side optimization \[8\]
//! the paper compares against (Table 2, Figures 15/16).
//!
//! Coloring partitions the rows so that no two rows of the same color are
//! coupled through an off-diagonal entry; Gauss-Seidel can then update all
//! rows of one color in parallel and iterate over the colors sequentially.
//! Its effectiveness "depends on the distribution of non-zero values in a
//! matrix" (§1) — exactly what [`crate::parallelism`] quantifies.

use alrescha_sparse::Csr;

/// A row coloring of a square matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Color id per row.
    pub color: Vec<usize>,
    /// Number of distinct colors.
    pub num_colors: usize,
}

impl Coloring {
    /// Rows grouped by color, colors in ascending order.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.num_colors];
        for (row, &c) in self.color.iter().enumerate() {
            groups[c].push(row);
        }
        groups
    }
}

/// Greedy first-fit coloring of the symmetrized structure of `a`.
///
/// Two rows conflict when either `A[i][j]` or `A[j][i]` is stored, because a
/// Gauss-Seidel update of one then reads the other's value mid-sweep.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn greedy_coloring(a: &Csr) -> Coloring {
    assert_eq!(a.rows(), a.cols(), "coloring requires a square matrix");
    let n = a.rows();
    // Symmetrize the adjacency once.
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        for (c, _) in a.row_entries(r) {
            if c != r {
                neighbors[r].push(c);
                neighbors[c].push(r);
            }
        }
    }
    let mut color = vec![usize::MAX; n];
    let mut num_colors = 0;
    let mut forbidden = vec![usize::MAX; 0];
    for v in 0..n {
        forbidden.clear();
        forbidden.resize(num_colors + 1, usize::MAX);
        for &u in &neighbors[v] {
            if color[u] != usize::MAX && color[u] < forbidden.len() {
                forbidden[color[u]] = v;
            }
        }
        // `forbidden.get(forbidden.len())` is None, so the search always
        // terminates within the range.
        let c = (0..=forbidden.len())
            .find(|&c| forbidden.get(c) != Some(&v))
            .unwrap_or(forbidden.len());
        color[v] = c;
        num_colors = num_colors.max(c + 1);
    }
    Coloring { color, num_colors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::{gen, Coo};

    fn check_proper(a: &Csr, coloring: &Coloring) {
        for r in 0..a.rows() {
            for (c, _) in a.row_entries(r) {
                if c != r {
                    assert_ne!(
                        coloring.color[r], coloring.color[c],
                        "rows {r},{c} conflict"
                    );
                }
            }
        }
    }

    #[test]
    fn tridiagonal_needs_two_colors() {
        let a = Csr::from_coo(&gen::banded(50, 1, 1));
        let coloring = greedy_coloring(&a);
        check_proper(&a, &coloring);
        assert_eq!(coloring.num_colors, 2);
    }

    #[test]
    fn coloring_is_proper_on_all_science_classes() {
        for class in gen::ScienceClass::ALL {
            let a = Csr::from_coo(&class.generate(120, 17));
            let coloring = greedy_coloring(&a);
            check_proper(&a, &coloring);
            assert!(coloring.num_colors >= 2, "{}", class.name());
        }
    }

    #[test]
    fn diagonal_matrix_is_one_color() {
        let mut coo = Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0);
        }
        let coloring = greedy_coloring(&Csr::from_coo(&coo));
        assert_eq!(coloring.num_colors, 1);
        assert_eq!(coloring.groups(), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn groups_partition_rows() {
        let a = Csr::from_coo(&gen::banded(40, 3, 2));
        let coloring = greedy_coloring(&a);
        let total: usize = coloring.groups().iter().map(Vec::len).sum();
        assert_eq!(total, 40);
    }
}
