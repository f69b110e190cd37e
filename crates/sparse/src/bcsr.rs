//! Blocked compressed sparse row (BCSR) format.

use crate::{Coo, DenseMatrix, Error, MetaData, Result};

/// A sparse matrix in blocked CSR (BCSR) format.
///
/// BCSR partitions the matrix into dense ω×ω blocks and applies CSR indexing
/// at block granularity: one column index per *block*, one pointer per block
/// row. The paper adapts BCSR into its own locally-dense format (§4.5) —
/// same meta-data overhead, different block and value ordering. This type is
/// the faithful baseline BCSR; [`crate::Alf`] is the ALRESCHA adaptation.
///
/// Block payloads are stored dense and row-major, so a block with a single
/// non-zero still occupies ω² values; the `payload_bytes` accounting exposes
/// that fill cost.
///
/// # Example
///
/// ```
/// use alrescha_sparse::{Bcsr, Coo};
///
/// let mut coo = Coo::new(4, 4);
/// coo.push(0, 0, 1.0);
/// coo.push(3, 3, 2.0);
/// let a = Bcsr::from_coo(&coo, 2)?;
/// assert_eq!(a.num_blocks(), 2); // blocks (0,0) and (1,1)
/// # Ok::<(), alrescha_sparse::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bcsr {
    rows: usize,
    cols: usize,
    omega: usize,
    /// Block-row pointers (`block_rows + 1` entries).
    block_row_ptr: Vec<usize>,
    /// Block-column index per stored block.
    block_col_idx: Vec<usize>,
    /// Dense ω×ω payload per stored block, row-major.
    blocks: Vec<DenseMatrix>,
    nnz: usize,
}

impl Bcsr {
    /// Converts from COO with block width `omega`, summing duplicates.
    ///
    /// The matrix is logically zero-padded up to the next multiple of
    /// `omega` in both dimensions; padding never materializes new blocks.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBlockWidth`] if `omega == 0`.
    pub fn from_coo(coo: &Coo, omega: usize) -> Result<Self> {
        if omega == 0 {
            return Err(Error::InvalidBlockWidth { omega });
        }
        let canon = coo.clone().compress();
        let block_rows = canon.rows().div_ceil(omega);

        // Group entries by (block_row, block_col); entries arrive row-major
        // so blocks of one block row appear contiguously only after bucketing.
        let mut buckets: std::collections::BTreeMap<(usize, usize), DenseMatrix> =
            std::collections::BTreeMap::new();
        for &(r, c, v) in canon.entries() {
            let key = (r / omega, c / omega);
            let block = buckets
                .entry(key)
                .or_insert_with(|| DenseMatrix::zeros(omega, omega));
            block[(r % omega, c % omega)] += v;
        }

        let mut block_row_ptr = vec![0usize; block_rows + 1];
        let mut block_col_idx = Vec::with_capacity(buckets.len());
        let mut blocks = Vec::with_capacity(buckets.len());
        for ((br, bc), block) in buckets {
            block_row_ptr[br + 1] += 1;
            block_col_idx.push(bc);
            blocks.push(block);
        }
        for i in 0..block_rows {
            block_row_ptr[i + 1] += block_row_ptr[i];
        }
        Ok(Bcsr {
            rows: canon.rows(),
            cols: canon.cols(),
            omega,
            block_row_ptr,
            block_col_idx,
            blocks,
            nnz: canon.nnz(),
        })
    }

    /// Converts back to COO, dropping in-block zero padding.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::with_capacity(self.rows, self.cols, self.nnz);
        for br in 0..self.block_rows() {
            for (bc, block) in self.block_row(br) {
                for i in 0..self.omega {
                    for j in 0..self.omega {
                        let v = block[(i, j)];
                        let (r, c) = (br * self.omega + i, bc * self.omega + j);
                        if v != 0.0 && r < self.rows && c < self.cols {
                            coo.push(r, c, v);
                        }
                    }
                }
            }
        }
        coo
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block width ω.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Number of block rows (rows rounded up to ω).
    pub fn block_rows(&self) -> usize {
        self.rows.div_ceil(self.omega)
    }

    /// Number of block columns.
    pub fn block_cols(&self) -> usize {
        self.cols.div_ceil(self.omega)
    }

    /// Number of stored (non-empty) blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over `(block_col, payload)` of one block row, sorted by
    /// block column.
    ///
    /// # Panics
    ///
    /// Panics if `block_row >= self.block_rows()`.
    pub fn block_row(&self, block_row: usize) -> impl Iterator<Item = (usize, &DenseMatrix)> {
        let span = self.block_row_ptr[block_row]..self.block_row_ptr[block_row + 1];
        self.block_col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.blocks[span].iter())
    }

    /// Mean fraction of non-zero slots across stored blocks (block density).
    ///
    /// The paper observes this "rarely reaches a hundred percent", which
    /// bounds achievable bandwidth utilization (Figure 15 discussion).
    pub fn mean_block_fill(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        let slots = self.omega * self.omega;
        let fill: f64 = self
            .blocks
            .iter()
            .map(|b| (slots - b.count_zeros()) as f64 / slots as f64)
            .sum();
        fill / self.blocks.len() as f64
    }
}

impl MetaData for Bcsr {
    fn meta_bytes(&self) -> usize {
        // One 32-bit column index per block plus 32-bit block-row pointers:
        // amortized over ω² potential values per block.
        self.block_col_idx.len() * 4 + self.block_row_ptr.len() * 4
    }

    fn payload_bytes(&self) -> usize {
        self.blocks.len() * self.omega * self.omega * std::mem::size_of::<f64>()
    }

    fn nnz(&self) -> usize {
        self.nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        // 4x4, blocks of 2: nonzeros in block (0,0), (0,1), (1,1).
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 2.0);
        coo.push(0, 3, 3.0);
        coo.push(2, 2, 4.0);
        coo.push(3, 3, 5.0);
        coo
    }

    #[test]
    fn blocks_are_bucketed() {
        let a = Bcsr::from_coo(&sample(), 2).unwrap();
        assert_eq!(a.num_blocks(), 3);
        assert_eq!(a.block_rows(), 2);
        let row0: Vec<usize> = a.block_row(0).map(|(bc, _)| bc).collect();
        assert_eq!(row0, vec![0, 1]);
    }

    #[test]
    fn payload_is_dense_within_block() {
        let a = Bcsr::from_coo(&sample(), 2).unwrap();
        let (bc, block) = a.block_row(1).next().unwrap();
        assert_eq!(bc, 1);
        assert_eq!(block[(0, 0)], 4.0);
        assert_eq!(block[(1, 1)], 5.0);
        assert_eq!(block[(0, 1)], 0.0);
    }

    #[test]
    fn round_trips_through_coo() {
        let coo = sample().compress();
        let back = Bcsr::from_coo(&coo, 2).unwrap().to_coo().compress();
        assert_eq!(coo, back);
    }

    #[test]
    fn round_trips_with_non_dividing_omega() {
        let mut coo = Coo::new(5, 5);
        coo.push(4, 4, 7.0);
        coo.push(0, 4, 1.0);
        let coo = coo.compress();
        let back = Bcsr::from_coo(&coo, 2).unwrap().to_coo().compress();
        assert_eq!(coo, back);
    }

    #[test]
    fn rejects_zero_omega() {
        assert!(matches!(
            Bcsr::from_coo(&sample(), 0),
            Err(Error::InvalidBlockWidth { omega: 0 })
        ));
    }

    #[test]
    fn mean_block_fill() {
        let a = Bcsr::from_coo(&sample(), 2).unwrap();
        // fills: 2/4, 1/4, 2/4 -> mean 5/12.
        assert!((a.mean_block_fill() - 5.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn meta_is_per_block_not_per_nnz() {
        let a = Bcsr::from_coo(&sample(), 2).unwrap();
        assert_eq!(a.meta_bytes(), 3 * 4 + 3 * 4);
        assert_eq!(a.payload_bytes(), 3 * 4 * 8);
    }
}
