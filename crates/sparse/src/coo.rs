//! Coordinate (triplet) format — the universal builder format.

use crate::{Error, MetaData, Result};

/// A sparse matrix in coordinate (COO) format.
///
/// COO stores one `(row, col, value)` triplet per non-zero. It is the
/// interchange format of this crate: every compressed format converts to and
/// from it, and the dataset generators emit it. GraphR's storage format is a
/// 4×4-blocked variant of COO (Table 2 of the paper), which [`crate::Bcsr`]
/// models when constructed with block width 4.
///
/// Duplicate coordinates are allowed while building and are summed by
/// [`Coo::compress`] (and by every `from_coo` conversion).
///
/// # Example
///
/// ```
/// use alrescha_sparse::{Coo, MetaData};
///
/// let mut a = Coo::new(2, 2);
/// a.push(0, 0, 1.0);
/// a.push(0, 0, 2.0); // duplicate: summed on compress
/// a.push(1, 1, 4.0);
/// let a = a.compress();
/// assert_eq!(a.nnz(), 2);
/// assert_eq!(a.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    /// Creates an empty `rows`×`cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty matrix with room for `cap` entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Appends a triplet.
    ///
    /// # Panics
    ///
    /// Panics if `(row, col)` is outside the matrix. Use [`Coo::try_push`]
    /// for a fallible variant.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        if let Err(e) = self.try_push(row, col, value) {
            panic!("coo entry out of bounds: {e}");
        }
    }

    /// Appends a triplet, validating its coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IndexOutOfBounds`] if `(row, col)` is outside the
    /// matrix.
    pub fn try_push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(Error::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Returns the stored triplets in insertion order.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Sorts entries row-major, sums duplicates, and drops explicit zeros
    /// produced by duplicate cancellation.
    ///
    /// Entries pushed as exact zeros are kept (some generators use explicit
    /// structural zeros); only values that *become* zero by summing duplicates
    /// of opposite sign survive — they are retained too, to keep the
    /// structure deterministic. In short: compression never invents or drops
    /// structure, it only canonicalizes it.
    #[must_use]
    pub fn compress(mut self) -> Self {
        self.entries.sort_by_key(|&(r, c, _)| (r, c));
        let mut out: Vec<(usize, usize, f64)> = Vec::with_capacity(self.entries.len());
        for (r, c, v) in self.entries.drain(..) {
            match out.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => out.push((r, c, v)),
            }
        }
        self.entries = out;
        self
    }

    /// Value at `(row, col)`, or `0.0` when the entry is structurally absent.
    ///
    /// Linear scan; intended for tests and small matrices. Duplicates are
    /// summed.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.entries
            .iter()
            .filter(|&&(r, c, _)| r == row && c == col)
            .map(|&(_, _, v)| v)
            .sum()
    }

    /// Returns the transpose (all triplets with coordinates swapped).
    #[must_use]
    pub fn transpose(&self) -> Self {
        Coo {
            rows: self.cols,
            cols: self.rows,
            entries: self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        }
    }

    /// True if for every stored `(i, j)` there is a matching `(j, i)` with an
    /// approximately equal value.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let canon = self.clone().compress();
        let trans = self.transpose().compress();
        canon.entries.len() == trans.entries.len()
            && canon
                .entries
                .iter()
                .zip(&trans.entries)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && (a.2 - b.2).abs() <= tol)
    }
}

impl MetaData for Coo {
    fn meta_bytes(&self) -> usize {
        // Two 4-byte indices per entry, matching the paper's accounting where
        // indices are 32-bit.
        self.entries.len() * 8
    }

    fn payload_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<f64>()
    }

    fn nnz(&self) -> usize {
        self.entries.len()
    }
}

impl Extend<(usize, usize, f64)> for Coo {
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut a = Coo::new(3, 4);
        a.push(2, 3, 5.5);
        assert_eq!(a.get(2, 3), 5.5);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn try_push_rejects_out_of_bounds() {
        let mut a = Coo::new(2, 2);
        let err = a.try_push(2, 0, 1.0).unwrap_err();
        assert!(matches!(err, Error::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn compress_sums_duplicates_in_row_major_order() {
        let mut a = Coo::new(2, 2);
        a.push(1, 1, 1.0);
        a.push(0, 1, 2.0);
        a.push(1, 1, 3.0);
        a.push(0, 0, 4.0);
        let a = a.compress();
        assert_eq!(a.entries(), &[(0, 0, 4.0), (0, 1, 2.0), (1, 1, 4.0)]);
    }

    #[test]
    fn transpose_swaps_shape() {
        let mut a = Coo::new(2, 3);
        a.push(0, 2, 7.0);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.get(2, 0), 7.0);
    }

    #[test]
    fn symmetry_detection() {
        let mut s = Coo::new(2, 2);
        s.push(0, 1, 3.0);
        s.push(1, 0, 3.0);
        s.push(0, 0, 1.0);
        assert!(s.is_symmetric(0.0));

        let mut ns = Coo::new(2, 2);
        ns.push(0, 1, 3.0);
        assert!(!ns.is_symmetric(0.0));
    }

    #[test]
    fn rectangular_never_symmetric() {
        let a = Coo::new(2, 3);
        assert!(!a.is_symmetric(0.0));
    }

    #[test]
    fn metadata_accounting() {
        let mut a = Coo::new(4, 4);
        a.push(0, 0, 1.0);
        a.push(1, 2, 2.0);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.meta_bytes(), 16);
        assert_eq!(a.payload_bytes(), 16);
        assert!((a.meta_bytes_per_nnz() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn extend_appends() {
        let mut a = Coo::new(2, 2);
        a.extend(vec![(0, 0, 1.0), (1, 0, 2.0)]);
        assert_eq!(a.nnz(), 2);
    }
}
