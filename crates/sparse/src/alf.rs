//! The ALRESCHA locally-dense storage format (§4.5 of the paper).
//!
//! The format adapts BCSR so that the order of stored values *equals* the
//! order of computation, letting the accelerator stream payload from memory
//! with no runtime meta-data:
//!
//! * **Block order** — within a block row, all non-diagonal non-zero blocks
//!   are stored first, followed by the diagonal block. This realizes the
//!   GEMV-before-D-SymGS reordering of Algorithm 1 directly in memory layout.
//! * **Value order** — blocks in the strict upper triangle store each row's
//!   values right-to-left (`r2l`), matching the operand rotation of the
//!   D-SymGS data path (Figure 10); lower-triangle blocks keep the natural
//!   left-to-right order.
//! * **Diagonal extraction** — for SymGS the main diagonal of `A` is removed
//!   from the payload and kept in a separate vector that the accelerator
//!   loads into its local cache, so memory bandwidth carries only dot-product
//!   operands.
//! * **Meta-data** — block indices (`Inx_in`/`Inx_out`) are not streamed;
//!   they live in the one-time configuration table
//!   (see [`config_entry_bits`]).

use std::borrow::Cow;

use crate::{Coo, Error, MetaData, Result};

/// Bits per configuration-table entry for an `n`×`n` matrix blocked at `ω`:
/// `2·ceil(log2(n/ω)) + 3` (§4.1 — two block indices plus one bit each for
/// data-path type, access order, and operand source).
pub fn config_entry_bits(n: usize, omega: usize) -> usize {
    let block_rows = n.div_ceil(omega).max(1);
    let idx_bits = usize::BITS as usize - (block_rows - 1).leading_zeros() as usize;
    // ceil(log2(block_rows)) with log2(1) = 0.
    let idx_bits = if block_rows == 1 { 0 } else { idx_bits };
    2 * idx_bits + 3
}

/// Stored non-zero values in `values`: what [`MetaData::nnz`] counts for an
/// [`Alf`], over its payload and its extracted diagonal.
fn nonzero(values: &[f64]) -> usize {
    values.iter().filter(|v| **v != 0.0).count()
}

/// Role of a block in the streamed layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Off-diagonal block: executed as a parallel data path (GEMV / D-BFS /
    /// D-SSSP / D-PR).
    OffDiagonal,
    /// Diagonal block: executed as the data-dependent D-SymGS path when the
    /// kernel is SymGS.
    Diagonal,
}

/// Layout flavor: SymGS needs the diagonal extracted and upper-triangle rows
/// reversed; single-data-path kernels (SpMV, BFS, SSSP, PR) stream every
/// block left-to-right with the diagonal kept in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlfLayout {
    /// All blocks ordered `l2r`, diagonal values stay in the payload.
    Streaming,
    /// SymGS layout: diagonal extracted, upper-triangle value order reversed,
    /// diagonal block stored last in its block row.
    SymGs,
}

/// One locally-dense block in streaming order: a borrowed view of one
/// block header and its ω² payload slice in the owning [`Alf`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlfBlock<'a> {
    block_row: usize,
    block_col: usize,
    kind: BlockKind,
    reversed: bool,
    omega: usize,
    /// ω×ω values in *streaming* order: row-major, each row already permuted
    /// to the access order the compute engine consumes (reversed for
    /// upper-triangle blocks under [`AlfLayout::SymGs`]). Extracted diagonal
    /// slots hold `0.0`.
    payload: &'a [f64],
}

impl<'a> AlfBlock<'a> {
    /// Block-row coordinate.
    #[inline]
    pub fn block_row(&self) -> usize {
        self.block_row
    }

    /// Block-column coordinate.
    #[inline]
    pub fn block_col(&self) -> usize {
        self.block_col
    }

    /// Whether this is a diagonal or off-diagonal block.
    #[inline]
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// The ω² payload values in streaming order.
    #[inline]
    pub fn payload(&self) -> &'a [f64] {
        self.payload
    }

    /// True if this block's rows are streamed right-to-left.
    #[inline]
    pub fn reversed(&self) -> bool {
        self.reversed
    }

    /// The reversal flag this block *should* carry under `layout`: SymGS
    /// streams strict-upper-triangle blocks and diagonal blocks
    /// right-to-left (the Figure 10 operand rotation); everything else is
    /// natural order. Verification tooling compares this against
    /// [`AlfBlock::reversed`].
    pub fn expected_reversed(&self, layout: AlfLayout) -> bool {
        layout == AlfLayout::SymGs
            && (self.block_col > self.block_row || self.kind == BlockKind::Diagonal)
    }

    /// Number of non-zero payload slots (padding zeros excluded).
    pub fn fill_count(&self) -> usize {
        self.payload.iter().filter(|v| **v != 0.0).count()
    }

    /// One streamed row of the payload (already in access order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= ω`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.payload[i * self.omega..(i + 1) * self.omega]
    }

    /// Value at logical in-block position `(i, j)` (matrix orientation,
    /// before any streaming reversal).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let jj = if self.reversed { self.omega - 1 - j } else { j };
        self.payload[i * self.omega + jj]
    }
}

/// The blocks of an [`Alf`] in exact streaming order, as borrowed views.
#[derive(Debug, Clone, Copy)]
pub struct Blocks<'a> {
    alf: &'a Alf,
}

impl<'a> Blocks<'a> {
    /// Number of blocks.
    #[inline]
    pub fn len(&self) -> usize {
        self.alf.num_blocks()
    }

    /// True when the matrix stores no block.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th block in stream order, if any.
    #[inline]
    pub fn get(&self, k: usize) -> Option<AlfBlock<'a>> {
        (k < self.len()).then(|| self.alf.block(k))
    }

    /// Iterates the blocks in stream order.
    #[inline]
    pub fn iter(&self) -> BlockIter<'a> {
        BlockIter {
            alf: self.alf,
            range: 0..self.len(),
        }
    }
}

impl<'a> IntoIterator for Blocks<'a> {
    type Item = AlfBlock<'a>;
    type IntoIter = BlockIter<'a>;

    #[inline]
    fn into_iter(self) -> BlockIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Blocks<'a> {
    type Item = AlfBlock<'a>;
    type IntoIter = BlockIter<'a>;

    #[inline]
    fn into_iter(self) -> BlockIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Alf`]'s blocks in stream order.
#[derive(Debug, Clone)]
pub struct BlockIter<'a> {
    alf: &'a Alf,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for BlockIter<'a> {
    type Item = AlfBlock<'a>;

    #[inline]
    fn next(&mut self) -> Option<AlfBlock<'a>> {
        self.range.next().map(|k| self.alf.block(k))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

/// A sparse matrix in the ALRESCHA locally-dense format.
///
/// Storage mirrors the stream (§4.5): one contiguous f64 arena holds every
/// block's ω² payload back to back in streaming order, so block `k` is
/// `arena[k·ω² .. (k+1)·ω²]`, and the per-block headers (coordinates, kind,
/// reversal flag) live in parallel struct-of-arrays vectors indexed by `k`.
/// [`Alf::blocks`] hands out borrowed [`AlfBlock`] views into it.
///
/// # Example
///
/// ```
/// use alrescha_sparse::{alf::AlfLayout, Alf, Coo};
///
/// let mut coo = Coo::new(4, 4);
/// for i in 0..4 { coo.push(i, i, 2.0); }
/// coo.push(0, 3, -1.0);
/// let alf = Alf::from_coo(&coo, 2, AlfLayout::SymGs)?;
/// assert_eq!(alf.diagonal(), &[2.0, 2.0, 2.0, 2.0]);
/// // Block row 0: off-diagonal block (0,1) streams before diagonal block (0,0).
/// let order: Vec<(usize, usize)> = alf.blocks().iter()
///     .map(|b| (b.block_row(), b.block_col())).collect();
/// assert_eq!(order, vec![(0, 1), (0, 0), (1, 1)]);
/// # Ok::<(), alrescha_sparse::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Alf {
    rows: usize,
    cols: usize,
    omega: usize,
    layout: AlfLayout,
    /// Every block's payload, ω² values each, in streaming order.
    arena: Vec<f64>,
    block_row: Vec<usize>,
    block_col: Vec<usize>,
    kind: Vec<BlockKind>,
    reversed: Vec<bool>,
    /// Extracted main diagonal (empty under [`AlfLayout::Streaming`]).
    diagonal: Vec<f64>,
    nnz: usize,
}

impl Alf {
    /// An empty matrix shell with room for `blocks` blocks.
    fn with_capacity(
        rows: usize,
        cols: usize,
        omega: usize,
        layout: AlfLayout,
        blocks: usize,
    ) -> Self {
        Alf {
            rows,
            cols,
            omega,
            layout,
            arena: Vec::with_capacity(blocks * omega * omega),
            block_row: Vec::with_capacity(blocks),
            block_col: Vec::with_capacity(blocks),
            kind: Vec::with_capacity(blocks),
            reversed: Vec::with_capacity(blocks),
            diagonal: Vec::new(),
            nnz: 0,
        }
    }

    /// Appends one block header and returns its zeroed ω² arena slot.
    fn push_header(&mut self, br: usize, bc: usize, kind: BlockKind, reversed: bool) -> &mut [f64] {
        self.block_row.push(br);
        self.block_col.push(bc);
        self.kind.push(kind);
        self.reversed.push(reversed);
        let start = self.arena.len();
        self.arena.resize(start + self.omega * self.omega, 0.0);
        &mut self.arena[start..]
    }

    /// Converts from COO with block width `omega`, straight into the arena.
    ///
    /// Entries are grouped by block row (a stable counting sort unless the
    /// COO is already in that order), the distinct blocks are counted so the
    /// arena is allocated once, and each entry is added into its zeroed
    /// slot at its streaming position, one block row at a time.
    /// Duplicate coordinates therefore sum in COO order, exactly as
    /// [`Coo::compress`] would sum them. Explicit zeros still create their
    /// block but are not counted by [`MetaData::nnz`].
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidBlockWidth`] if `omega == 0`.
    /// * [`Error::MissingDiagonal`] if `layout` is [`AlfLayout::SymGs`] and a
    ///   diagonal entry of a square matrix is structurally zero (Gauss-Seidel
    ///   divides by it).
    pub fn from_coo(coo: &Coo, omega: usize, layout: AlfLayout) -> Result<Self> {
        if omega == 0 {
            return Err(Error::InvalidBlockWidth { omega });
        }
        let (rows, cols) = (coo.rows(), coo.cols());
        let entries = coo.entries();
        let block_rows = rows.div_ceil(omega);
        let symgs = layout == AlfLayout::SymGs;

        // Group the entries by block row: block row `br` is
        // `grouped[row_ptr[br]..row_ptr[br + 1]]`, each row in COO order.
        // Input already grouped (row-major COO, e.g. any compressed one) is
        // used in place; anything else goes through a stable counting sort.
        let mut row_ptr = vec![0usize; block_rows + 1];
        let mut in_order = true;
        let mut prev = 0;
        for &(r, _, _) in entries {
            let br = r / omega;
            in_order &= prev <= br;
            prev = br;
            row_ptr[br + 1] += 1;
        }
        for br in 0..block_rows {
            row_ptr[br + 1] += row_ptr[br];
        }
        let grouped: Cow<'_, [(usize, usize, f64)]> = if in_order {
            Cow::Borrowed(entries)
        } else {
            let mut next = row_ptr.clone();
            let mut sorted = vec![(0, 0, 0.0); entries.len()];
            for &e in entries {
                let at = &mut next[e.0 / omega];
                sorted[*at] = e;
                *at += 1;
            }
            Cow::Owned(sorted)
        };
        let row_entries = |br: usize| &grouped[row_ptr[br]..row_ptr[br + 1]];

        // Count the distinct blocks: `marker[bc] == br + 1` once block
        // (br, bc) has been seen.
        let mut marker = vec![0usize; cols.div_ceil(omega)];
        let mut blocks = 0;
        for br in 0..block_rows {
            for &(_, c, _) in row_entries(br) {
                let bc = c / omega;
                if marker[bc] != br + 1 {
                    marker[bc] = br + 1;
                    blocks += 1;
                }
            }
        }

        let w2 = omega * omega;
        let mut alf = Alf::with_capacity(rows, cols, omega, layout, blocks);
        let mut diagonal = if symgs {
            vec![0.0; rows.min(cols)]
        } else {
            Vec::new()
        };
        // From here on `marker[bc]` is one past the stream index of block
        // column `bc`'s most recent block, so a value above the current
        // row's first index means "already in this row".
        marker.fill(0);
        let mut nnz = 0;
        for br in 0..block_rows {
            let row = row_entries(br);
            let first = alf.block_col.len();
            for &(_, c, _) in row {
                let bc = c / omega;
                if marker[bc] <= first {
                    marker[bc] = first + 1;
                    alf.block_col.push(bc);
                }
            }
            let row_cols = &mut alf.block_col[first..];
            row_cols.sort_unstable();
            // Block order rule: the diagonal block closes its block row.
            let mut diag_block = false;
            if symgs {
                if let Ok(d) = row_cols.binary_search(&br) {
                    row_cols[d..].rotate_left(1);
                    diag_block = true;
                }
            }
            for (k, &bc) in alf.block_col.iter().enumerate().skip(first) {
                marker[bc] = k + 1;
                alf.block_row.push(br);
                alf.kind.push(if symgs && bc == br {
                    BlockKind::Diagonal
                } else {
                    BlockKind::OffDiagonal
                });
                // SymGS streams the upper triangle and the diagonal r2l.
                alf.reversed.push(symgs && bc >= br);
            }

            // The row's slots are zeroed here and counted below while they
            // are in cache, not in separate passes over the whole arena.
            alf.arena.resize(alf.block_col.len() * w2, 0.0);
            for &(r, c, v) in row {
                let slot = marker[c / omega] - 1;
                let (i, j) = (r % omega, c % omega);
                let jj = if alf.reversed[slot] { omega - 1 - j } else { j };
                alf.arena[slot * w2 + i * omega + jj] += v;
            }

            if diag_block {
                let last = alf.block_col.len() - 1;
                let data = &mut alf.arena[last * w2..(last + 1) * w2];
                for i in 0..omega {
                    // The diagonal block is reversed: (i, i) sits at ω-1-i.
                    let t = i * omega + omega - 1 - i;
                    if let Some(d) = diagonal.get_mut(br * omega + i) {
                        *d = data[t];
                    }
                    data[t] = 0.0;
                }
            }
            nnz += nonzero(&alf.arena[first * w2..]);
        }

        if symgs && rows == cols {
            if let Some(row) = diagonal.iter().position(|&d| d == 0.0) {
                return Err(Error::MissingDiagonal { row });
            }
        }
        alf.nnz = nnz + nonzero(&diagonal);
        alf.diagonal = diagonal;
        Ok(alf)
    }

    /// Reconstructs the matrix as COO (inverse of [`Alf::from_coo`]).
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::with_capacity(self.rows, self.cols, self.nnz);
        for block in self.blocks() {
            for i in 0..self.omega {
                for j in 0..self.omega {
                    let v = block.get(i, j);
                    let (r, c) = (
                        block.block_row * self.omega + i,
                        block.block_col * self.omega + j,
                    );
                    if v != 0.0 && r < self.rows && c < self.cols {
                        coo.push(r, c, v);
                    }
                }
            }
        }
        if self.layout == AlfLayout::SymGs {
            for (i, &d) in self.diagonal.iter().enumerate() {
                if d != 0.0 {
                    coo.push(i, i, d);
                }
            }
        }
        coo
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block width ω.
    #[inline]
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// The layout flavor this matrix was built with.
    #[inline]
    pub fn layout(&self) -> AlfLayout {
        self.layout
    }

    /// Blocks in exact streaming order.
    #[inline]
    pub fn blocks(&self) -> Blocks<'_> {
        Blocks { alf: self }
    }

    /// Number of stored blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.block_row.len()
    }

    /// The `k`-th block in stream order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.num_blocks()`.
    // Always inlined: the engine's block loops call it once per block, and
    // left to the inliner it stayed out of line at a cost of about 7% of
    // the engine's SpMV host time.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    pub fn block(&self, k: usize) -> AlfBlock<'_> {
        let w2 = self.omega * self.omega;
        AlfBlock {
            block_row: self.block_row[k],
            block_col: self.block_col[k],
            kind: self.kind[k],
            reversed: self.reversed[k],
            omega: self.omega,
            payload: &self.arena[k * w2..(k + 1) * w2],
        }
    }

    /// Every block's block-row coordinate, in stream order: the header
    /// column [`AlfBlock::block_row`] reads.
    #[inline]
    pub fn block_row_headers(&self) -> &[usize] {
        &self.block_row
    }

    /// Number of block rows.
    #[inline]
    pub fn block_rows(&self) -> usize {
        self.rows.div_ceil(self.omega)
    }

    /// The extracted main diagonal (empty for [`AlfLayout::Streaming`]).
    #[inline]
    pub fn diagonal(&self) -> &[f64] {
        &self.diagonal
    }

    /// Bits per configuration-table entry for this matrix (§4.1).
    pub fn config_entry_bits(&self) -> usize {
        config_entry_bits(self.rows.max(self.cols), self.omega)
    }

    /// Total configuration-table size in bits (one entry per block).
    pub fn config_table_bits(&self) -> usize {
        self.num_blocks() * self.config_entry_bits()
    }

    /// Bytes streamed from memory per full pass over the matrix: the dense
    /// block payloads only — no indices, no pointers (the ALRESCHA headline
    /// property). The extracted diagonal is loaded once into the local cache
    /// and is charged separately by the simulator.
    pub fn streamed_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<f64>()
    }

    /// The padded dimension the streamed layout covers: `⌈rows/ω⌉·ω`.
    /// When this exceeds [`Alf::rows`] the final chunk of every vector
    /// operand is partially padding.
    pub fn padded_dim(&self) -> usize {
        self.block_rows() * self.omega
    }

    /// True when the matrix dimension is not a multiple of ω, i.e. the
    /// final block row carries padding lanes.
    pub fn has_padded_tail(&self) -> bool {
        !self.rows.is_multiple_of(self.omega) || !self.cols.is_multiple_of(self.omega)
    }

    /// Off-diagonal block count of the densest block row — the static peak
    /// occupancy of the RCU link stack is ω times this (one GEMV partial
    /// result per lane per block rides the LIFO until the row's D-SymGS
    /// pops them).
    pub fn max_off_diagonal_blocks_per_row(&self) -> usize {
        let mut per_row = vec![0usize; self.block_rows().max(1)];
        for (&br, &kind) in self.block_row.iter().zip(&self.kind) {
            if kind == BlockKind::OffDiagonal && br < per_row.len() {
                per_row[br] += 1;
            }
        }
        per_row.into_iter().max().unwrap_or(0)
    }

    /// Distinct operand block columns of the densest block row — with the
    /// `b` and diagonal chunks, the per-block-row cache working set in
    /// chunks.
    pub fn max_operand_blocks_per_row(&self) -> usize {
        let rows = self.block_rows().max(1);
        let mut cols: Vec<Vec<usize>> = vec![Vec::new(); rows];
        for (&br, &bc) in self.block_row.iter().zip(&self.block_col) {
            if br < rows && !cols[br].contains(&bc) {
                cols[br].push(bc);
            }
        }
        cols.into_iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// Mutable payload of block `k` for verifier/mutation tests. Breaks the
    /// format invariants by design; never used by the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.num_blocks()`.
    #[doc(hidden)]
    pub fn payload_mut_unchecked(&mut self, k: usize) -> &mut [f64] {
        let w2 = self.omega * self.omega;
        &mut self.arena[k * w2..(k + 1) * w2]
    }

    /// Overrides block `k`'s reversal flag for verifier/mutation tests.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.num_blocks()`.
    #[doc(hidden)]
    pub fn set_reversed_unchecked(&mut self, k: usize, reversed: bool) {
        self.reversed[k] = reversed;
    }

    /// Swaps blocks `a` and `b` (headers and payloads) in the stream, for
    /// verifier/mutation tests. Breaks the format invariants by design.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[doc(hidden)]
    pub fn swap_blocks_unchecked(&mut self, a: usize, b: usize) {
        self.block_row.swap(a, b);
        self.block_col.swap(a, b);
        self.kind.swap(a, b);
        self.reversed.swap(a, b);
        let w2 = self.omega * self.omega;
        for t in 0..w2 {
            self.arena.swap(a * w2 + t, b * w2 + t);
        }
    }

    /// Mutable diagonal access for verifier/mutation tests.
    #[doc(hidden)]
    pub fn diagonal_mut_unchecked(&mut self) -> &mut Vec<f64> {
        &mut self.diagonal
    }

    /// Mean fraction of non-zero slots across stored blocks.
    pub fn mean_block_fill(&self) -> f64 {
        if self.num_blocks() == 0 {
            return 0.0;
        }
        let slots = self.omega * self.omega;
        let fill: f64 = self
            .blocks()
            .iter()
            .map(|b| b.fill_count() as f64 / slots as f64)
            .sum();
        fill / self.num_blocks() as f64
    }
}

/// Assembles an [`Alf`] directly from streamed blocks — the inverse of
/// rendering one as text, used by the assembler and the program container.
/// [`Alf::from_coo`] always re-canonicalizes the block order (off-diagonals
/// first, diagonal last, rows ascending), so an assembler that went through
/// COO could never carry a reordered schedule to the engine; the builder
/// preserves the pushed stream order verbatim. Only geometry is validated
/// here — stream-order and reversal legality are alverify's AL0xx/AL2xx
/// rules, which is exactly what lets verifier tests and the differential
/// fuzzer build non-canonical (but still legal) schedules.
#[derive(Debug, Clone)]
pub struct AlfBuilder {
    alf: Alf,
}

impl AlfBuilder {
    /// Starts an empty `rows`×`cols` matrix at block width `omega`.
    pub fn new(rows: usize, cols: usize, omega: usize, layout: AlfLayout) -> Self {
        AlfBuilder {
            alf: Alf::with_capacity(rows, cols, omega, layout, 0),
        }
    }

    /// Appends one block whose payload is taken verbatim in streaming
    /// order; `reversed` records how logical columns map onto it (see
    /// [`AlfBlock::get`]).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidBlockWidth`] if the builder's `omega == 0`.
    /// * [`Error::DimensionMismatch`] if `payload.len() != ω²`.
    pub fn push_block(
        &mut self,
        block_row: usize,
        block_col: usize,
        kind: BlockKind,
        payload: &[f64],
        reversed: bool,
    ) -> Result<()> {
        let omega = self.alf.omega;
        if omega == 0 {
            return Err(Error::InvalidBlockWidth { omega });
        }
        if payload.len() != omega * omega {
            return Err(Error::DimensionMismatch {
                expected: (omega, omega),
                found: (payload.len(), 1),
            });
        }
        self.alf
            .push_header(block_row, block_col, kind, reversed)
            .copy_from_slice(payload);
        Ok(())
    }

    /// Completes the matrix with its extracted diagonal.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidBlockWidth`] if `omega == 0`.
    /// * [`Error::DimensionMismatch`] if the diagonal length disagrees with
    ///   the layout (`min(rows, cols)` under [`AlfLayout::SymGs`], empty
    ///   under [`AlfLayout::Streaming`]).
    pub fn finish(self, diagonal: Vec<f64>) -> Result<Alf> {
        let mut alf = self.alf;
        if alf.omega == 0 {
            return Err(Error::InvalidBlockWidth { omega: 0 });
        }
        let want_diag = if alf.layout == AlfLayout::SymGs {
            alf.rows.min(alf.cols)
        } else {
            0
        };
        if diagonal.len() != want_diag {
            return Err(Error::DimensionMismatch {
                expected: (want_diag, 1),
                found: (diagonal.len(), 1),
            });
        }
        alf.nnz = nonzero(&alf.arena) + nonzero(&diagonal);
        alf.diagonal = diagonal;
        Ok(alf)
    }
}

impl MetaData for Alf {
    fn meta_bytes(&self) -> usize {
        // "Same meta-data overhead" as BCSR (§4.5): one block index per block
        // plus block-row pointers — except it lives in the configuration
        // table rather than being streamed at runtime.
        self.num_blocks() * 4 + (self.block_rows() + 1) * 4
    }

    fn payload_bytes(&self) -> usize {
        self.streamed_bytes()
    }

    /// Stored non-zero values: payload slots plus the extracted diagonal.
    /// Explicit zeros and duplicates that cancel are not counted, so a
    /// converted matrix and its ALPR round trip agree.
    fn nnz(&self) -> usize {
        self.nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bcsr;

    /// The 9x9, ω=3 example shape of Figure 8/13: blocks on the diagonal
    /// plus off-diagonal blocks (0,2), (1,0)-ish pattern.
    fn paper_like() -> Coo {
        let mut coo = Coo::new(9, 9);
        for i in 0..9 {
            coo.push(i, i, 10.0 + i as f64);
        }
        // Off-diagonal block (0, 2): upper triangle.
        coo.push(0, 6, 1.0);
        coo.push(0, 7, 2.0);
        coo.push(1, 8, 3.0);
        // Off-diagonal block (2, 0): lower triangle.
        coo.push(7, 1, 4.0);
        coo.push(8, 0, 5.0);
        // In-diagonal-block off-diagonal entries.
        coo.push(0, 1, 6.0);
        coo.push(4, 3, 7.0);
        coo
    }

    #[test]
    fn block_order_puts_diagonal_last_per_block_row() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let order: Vec<(usize, usize, BlockKind)> = alf
            .blocks()
            .iter()
            .map(|b| (b.block_row(), b.block_col(), b.kind()))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, 2, BlockKind::OffDiagonal),
                (0, 0, BlockKind::Diagonal),
                (1, 1, BlockKind::Diagonal),
                (2, 0, BlockKind::OffDiagonal),
                (2, 2, BlockKind::Diagonal),
            ]
        );
    }

    #[test]
    fn diagonal_is_extracted_for_symgs() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let expect: Vec<f64> = (0..9).map(|i| 10.0 + f64::from(i)).collect();
        assert_eq!(alf.diagonal(), expect.as_slice());
        // Diagonal block payloads must not contain the diagonal values.
        for b in alf
            .blocks()
            .iter()
            .filter(|b| b.kind() == BlockKind::Diagonal)
        {
            for i in 0..3 {
                assert_eq!(b.get(i, i), 0.0);
            }
        }
    }

    #[test]
    fn upper_triangle_rows_are_reversed_in_stream() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let upper = alf.block(0);
        assert_eq!((upper.block_row(), upper.block_col()), (0, 2));
        assert!(upper.reversed());
        // Logical row 0 of block (0,2) is [1.0, 2.0, 0.0] (cols 6,7,8);
        // streamed right-to-left it must read [0.0, 2.0, 1.0].
        assert_eq!(upper.row(0), &[0.0, 2.0, 1.0]);
        // Logical accessor undoes the reversal.
        assert_eq!(upper.get(0, 0), 1.0);
        assert_eq!(upper.get(0, 1), 2.0);
    }

    #[test]
    fn lower_triangle_rows_keep_natural_order() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let lower = alf
            .blocks()
            .iter()
            .find(|b| (b.block_row(), b.block_col()) == (2, 0))
            .unwrap();
        assert!(!lower.reversed());
        // Row 1 of block (2,0) holds A[7][1] = 4.0 at logical col 1.
        assert_eq!(lower.row(1), &[0.0, 4.0, 0.0]);
    }

    #[test]
    fn symgs_round_trips_through_coo() {
        let coo = paper_like().compress();
        let alf = Alf::from_coo(&coo, 3, AlfLayout::SymGs).unwrap();
        assert_eq!(alf.to_coo().compress(), coo);
    }

    #[test]
    fn streaming_round_trips_through_coo() {
        let coo = paper_like().compress();
        let alf = Alf::from_coo(&coo, 3, AlfLayout::Streaming).unwrap();
        assert_eq!(alf.to_coo().compress(), coo);
        assert!(alf.diagonal().is_empty());
    }

    #[test]
    fn streaming_layout_keeps_value_order() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::Streaming).unwrap();
        for b in alf.blocks() {
            assert_eq!(b.kind(), BlockKind::OffDiagonal);
        }
        let first = alf.block(0);
        // Under Streaming, block (0,0) comes first and keeps l2r order:
        assert_eq!((first.block_row(), first.block_col()), (0, 0));
        assert_eq!(first.row(0), &[10.0, 6.0, 0.0]);
    }

    #[test]
    fn missing_diagonal_rejected_for_symgs() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(3, 3, 1.0); // row 2 diagonal missing
        coo.push(2, 0, 5.0);
        let err = Alf::from_coo(&coo, 2, AlfLayout::SymGs).unwrap_err();
        assert_eq!(err, Error::MissingDiagonal { row: 2 });
    }

    #[test]
    fn config_entry_bits_formula() {
        // n = 9, ω = 3 -> 3 block rows -> ceil(log2 3) = 2 -> 2*2 + 3 = 7.
        assert_eq!(config_entry_bits(9, 3), 7);
        // n = 64, ω = 8 -> 8 block rows -> 3 bits -> 9.
        assert_eq!(config_entry_bits(64, 8), 9);
        // Single block row: only the 3 flag bits remain.
        assert_eq!(config_entry_bits(8, 8), 3);
    }

    #[test]
    fn meta_matches_bcsr_accounting() {
        let coo = paper_like();
        let alf = Alf::from_coo(&coo, 3, AlfLayout::SymGs).unwrap();
        let bcsr = Bcsr::from_coo(&coo, 3).unwrap();
        assert_eq!(alf.meta_bytes(), bcsr.meta_bytes());
    }

    #[test]
    fn streamed_bytes_counts_dense_blocks_only() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        assert_eq!(alf.streamed_bytes(), 5 * 9 * 8);
    }

    #[test]
    fn rejects_zero_omega() {
        assert!(Alf::from_coo(&paper_like(), 0, AlfLayout::SymGs).is_err());
    }

    /// Rebuilds `alf` through the builder, pushing blocks in `order`.
    fn rebuild(alf: &Alf, order: &[usize]) -> Alf {
        let mut builder = AlfBuilder::new(alf.rows(), alf.cols(), alf.omega(), alf.layout());
        for &k in order {
            let b = alf.block(k);
            builder
                .push_block(
                    b.block_row(),
                    b.block_col(),
                    b.kind(),
                    b.payload(),
                    b.reversed(),
                )
                .unwrap();
        }
        builder.finish(alf.diagonal().to_vec()).unwrap()
    }

    #[test]
    fn builder_preserves_non_canonical_stream_order() {
        // Rebuild a converted format with one block row's off-diagonal and
        // diagonal swapped: from_coo would re-canonicalize, the builder must
        // not.
        let canonical = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        assert_eq!(rebuild(&canonical, &[0, 1, 2, 3, 4]), canonical);
        let rebuilt = rebuild(&canonical, &[1, 0, 2, 3, 4]);
        assert_eq!(rebuilt.block(0), canonical.block(1));
        assert_eq!(rebuilt.block(1), canonical.block(0));
        assert_eq!(rebuilt.nnz(), canonical.nnz());
        assert_eq!(rebuilt.diagonal(), canonical.diagonal());
        // The unchecked swap hook yields the same stream.
        let mut swapped = canonical.clone();
        swapped.swap_blocks_unchecked(0, 1);
        assert_eq!(swapped, rebuilt);
    }

    #[test]
    fn mutation_hooks_edit_one_block_in_place() {
        let mut alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let before = alf.clone();
        alf.set_reversed_unchecked(0, false);
        alf.payload_mut_unchecked(2)[0] = 99.0;
        assert!(!alf.block(0).reversed());
        assert_eq!(alf.block(0).payload(), before.block(0).payload());
        assert_eq!(alf.block(2).payload()[0], 99.0);
        for k in [1, 3, 4] {
            assert_eq!(alf.block(k), before.block(k));
        }
    }

    #[test]
    fn builder_rejects_bad_geometry() {
        let mut ok = AlfBuilder::new(6, 6, 3, AlfLayout::Streaming);
        ok.push_block(0, 0, BlockKind::OffDiagonal, &[1.0; 9], false)
            .unwrap();
        let alf = ok.clone().finish(vec![]).unwrap();
        assert_eq!(alf.block(0).payload(), &[1.0; 9]);
        assert_eq!(alf.nnz(), 9);
        // Payload must be ω².
        assert!(ok
            .push_block(0, 0, BlockKind::OffDiagonal, &[1.0; 8], false)
            .is_err());
        let mut zero = AlfBuilder::new(6, 6, 0, AlfLayout::Streaming);
        assert!(zero
            .push_block(0, 0, BlockKind::OffDiagonal, &[], false)
            .is_err());
        assert!(zero.finish(vec![]).is_err());
        // Diagonal length must match the layout.
        assert!(AlfBuilder::new(6, 6, 3, AlfLayout::SymGs)
            .finish(vec![])
            .is_err());
        assert!(ok.finish(vec![1.0; 6]).is_err());
        // A payload built at a different ω is refused.
        let mut narrow = AlfBuilder::new(6, 6, 2, AlfLayout::Streaming);
        assert!(narrow
            .push_block(0, 0, BlockKind::OffDiagonal, &[1.0; 9], false)
            .is_err());
    }

    #[test]
    fn blocks_view_indexes_the_arena_in_stream_order() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        let blocks = alf.blocks();
        assert_eq!(blocks.len(), 5);
        assert!(!blocks.is_empty());
        assert!(blocks.get(5).is_none());
        let flat: Vec<f64> = blocks.iter().flat_map(|b| b.payload().to_vec()).collect();
        assert_eq!(flat.len() * 8, alf.streamed_bytes());
        assert_eq!(blocks.iter().last(), Some(alf.block(4)));
        assert_eq!(blocks.get(2), Some(alf.block(2)));
    }

    #[test]
    fn invariant_views_expose_padding_and_row_densities() {
        let alf = Alf::from_coo(&paper_like(), 3, AlfLayout::SymGs).unwrap();
        assert_eq!(alf.padded_dim(), 9);
        assert!(!alf.has_padded_tail());
        // Each block row holds at most one off-diagonal block here.
        assert_eq!(alf.max_off_diagonal_blocks_per_row(), 1);
        // Densest row touches two distinct block columns (own + remote).
        assert_eq!(alf.max_operand_blocks_per_row(), 2);
        for b in alf.blocks() {
            assert_eq!(b.reversed(), b.expected_reversed(AlfLayout::SymGs));
            assert!(b.fill_count() <= 9);
        }
        // A 4x4 at ω=3 pads its tail.
        let mut coo = Coo::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0);
        }
        let padded = Alf::from_coo(&coo, 3, AlfLayout::SymGs).unwrap();
        assert!(padded.has_padded_tail());
        assert_eq!(padded.padded_dim(), 6);
    }

    #[test]
    fn non_power_of_two_block_width_works_end_to_end() {
        let mut coo = Coo::new(13, 13);
        for i in 0..13 {
            coo.push(i, i, 3.0);
            if i + 2 < 13 {
                coo.push(i, i + 2, -0.5);
                coo.push(i + 2, i, -0.5);
            }
        }
        let coo = coo.compress();
        for omega in [3usize, 5, 6, 7] {
            let alf = Alf::from_coo(&coo, omega, AlfLayout::SymGs).unwrap();
            assert_eq!(alf.to_coo().compress(), coo, "omega {omega}");
        }
    }
}
