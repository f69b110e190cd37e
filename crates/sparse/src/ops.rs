//! Structural matrix operations: symmetric permutation and bandwidth.
//!
//! These support the preprocessing pipeline around the locally-dense format:
//! reordering (see [`crate::reorder`]) permutes a matrix symmetrically to
//! raise block fill.

use crate::{Coo, Csr, Error, Result};

/// Applies a symmetric permutation: `B[p[i]][p[j]] = A[i][j]`.
///
/// `perm` maps old indices to new indices and must be a bijection on
/// `0..n`.
///
/// # Errors
///
/// Returns [`Error::DimensionMismatch`] if the matrix is not square or the
/// permutation has the wrong length, and [`Error::Parse`] if `perm` is not
/// a bijection.
pub fn permute_symmetric(a: &Coo, perm: &[usize]) -> Result<Coo> {
    if a.rows() != a.cols() {
        return Err(Error::DimensionMismatch {
            expected: (a.rows(), a.rows()),
            found: (a.rows(), a.cols()),
        });
    }
    if perm.len() != a.rows() {
        return Err(Error::DimensionMismatch {
            expected: (a.rows(), 1),
            found: (perm.len(), 1),
        });
    }
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if p >= perm.len() || seen[p] {
            return Err(Error::Parse {
                line: p,
                message: "permutation is not a bijection".to_string(),
            });
        }
        seen[p] = true;
    }
    let mut out = Coo::with_capacity(a.rows(), a.cols(), a.entries().len());
    for &(r, c, v) in a.entries() {
        out.push(perm[r], perm[c], v);
    }
    Ok(out)
}

/// Inverts a permutation: `inv[perm[i]] = i`.
///
/// # Panics
///
/// Panics if `perm` is not a bijection on `0..perm.len()`.
pub fn invert_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        assert!(p < perm.len() && inv[p] == usize::MAX, "not a bijection");
        inv[p] = i;
    }
    inv
}

/// Permutes a vector into the reordered index space:
/// `out[perm[i]] = v[i]`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn permute_vector(v: &[f64], perm: &[usize]) -> Vec<f64> {
    assert_eq!(v.len(), perm.len(), "permutation length mismatch");
    let mut out = vec![0.0; v.len()];
    for (i, &p) in perm.iter().enumerate() {
        out[p] = v[i];
    }
    out
}

/// Bandwidth of a square matrix: `max |col − row|` over stored entries.
pub fn bandwidth(a: &Csr) -> usize {
    let mut bw = 0usize;
    for r in 0..a.rows() {
        for (c, _) in a.row_entries(r) {
            bw = bw.max(r.abs_diff(c));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn sample() -> Coo {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 0, 3.0);
        coo.push(2, 2, 4.0);
        coo
    }

    #[test]
    fn permute_symmetric_reverses() {
        let perm = vec![2, 1, 0];
        let b = permute_symmetric(&sample(), &perm).unwrap();
        assert_eq!(b.get(2, 2), 1.0); // was (0,0)
        assert_eq!(b.get(2, 0), 2.0); // was (0,2)
        assert_eq!(b.get(1, 2), 3.0); // was (1,0)
        assert_eq!(b.get(0, 0), 4.0); // was (2,2)
    }

    #[test]
    fn permute_identity_is_noop() {
        let b = permute_symmetric(&sample(), &[0, 1, 2]).unwrap();
        assert_eq!(b.compress(), sample().compress());
    }

    #[test]
    fn permute_rejects_non_bijection() {
        assert!(permute_symmetric(&sample(), &[0, 0, 1]).is_err());
        assert!(permute_symmetric(&sample(), &[0, 1]).is_err());
    }

    #[test]
    fn invert_permutation_round_trips() {
        let perm = vec![3, 0, 2, 1];
        let inv = invert_permutation(&perm);
        assert_eq!(inv, vec![1, 3, 2, 0]);
        for i in 0..perm.len() {
            assert_eq!(inv[perm[i]], i);
        }
    }

    #[test]
    fn permute_vector_matches_matrix_permutation() {
        // (P A Pᵀ)(P x) = P (A x): permuting operand and matrix commutes.
        let coo = gen::banded(30, 3, 5);
        let csr = Csr::from_coo(&coo);
        let perm: Vec<usize> = (0..30).map(|i| (i * 7) % 30).collect();
        let permuted = Csr::from_coo(&permute_symmetric(&coo, &perm).unwrap());
        let x: Vec<f64> = (0..30).map(|i| f64::from(i).sin()).collect();
        let ax = alrescha_sp_matvec(&csr, &x);
        let px = permute_vector(&x, &perm);
        let p_ax = permute_vector(&ax, &perm);
        let apx = alrescha_sp_matvec(&permuted, &px);
        assert!(crate::approx_eq(&p_ax, &apx, 1e-12));
    }

    fn alrescha_sp_matvec(a: &Csr, x: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|r| a.row_entries(r).map(|(c, v)| v * x[c]).sum())
            .collect()
    }

    #[test]
    fn bandwidth_of_banded_matrix() {
        let a = Csr::from_coo(&gen::banded(40, 3, 1));
        assert_eq!(bandwidth(&a), 3);
        let d = Csr::from_coo(&Coo::new(5, 5));
        assert_eq!(bandwidth(&d), 0);
    }
}
