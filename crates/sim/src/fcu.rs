//! The fixed compute unit (FCU): an ω-wide ALU array feeding a pipelined
//! reduction tree of reduce engines (§4.3, Figure 9).
//!
//! The FCU's interconnect never changes between data paths — only what the
//! tree reduces with (`sum` for GEMV/D-SymGS/D-PR, `min` for D-BFS/D-SSSP)
//! and where its inputs come from (the RCU). It is fully pipelined: one
//! ω-element row enters per cycle, so throughput tracks the memory stream
//! and only the first row of a data path pays the fill latency. The model
//! likewise takes a whole ω×ω block per call ([`Fcu::gemv_block`],
//! [`Fcu::pagerank_block`], [`Fcu::min_plus_block`]); the row kernels
//! serve the paths that must go one row at a time.
//!
//! On an x86-64 host whose CPU has AVX2, the GEMV and D-PR block kernels
//! at ω ∈ {4, 8, 16, 32} walk four rows at a time, one per lane of a
//! 256-bit accumulator; every other host and width takes the scalar walk.
//! Each lane performs exactly its row's scalar chain of IEEE operations,
//! so the walk never moves a bit of a result.

use crate::config::SimConfig;
use crate::energy::EnergyCounters;
use crate::fault::{self, FaultInjector};

/// Reduction operation performed by the reduce engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduce {
    /// Tree of adders (GEMV, D-SymGS, D-PR).
    Sum,
    /// Tree of comparators (D-BFS, D-SSSP).
    Min,
}

/// The fixed compute unit.
#[derive(Debug, Clone)]
pub struct Fcu {
    omega: usize,
    alu_latency: u64,
    re_sum_latency: u64,
    re_min_latency: u64,
    tree_depth: u32,
    counters: EnergyCounters,
    faults: Option<FaultInjector>,
    walk: ValueWalk,
}

impl Fcu {
    /// Builds the FCU from a configuration.
    pub fn new(config: &SimConfig) -> Self {
        Fcu {
            omega: config.omega,
            alu_latency: config.alu_latency,
            re_sum_latency: config.re_sum_latency,
            re_min_latency: config.re_min_latency,
            tree_depth: config.tree_depth(),
            counters: EnergyCounters::new(),
            faults: None,
            walk: ValueWalk::detect(config.omega),
        }
    }

    /// Attaches (or detaches) a fault injector. Lane and tree faults fire
    /// only while the injector is armed for the FCU, which the engine does
    /// around checksum-protected GEMV blocks.
    pub fn attach_injector(&mut self, injector: Option<FaultInjector>) {
        self.faults = injector;
    }

    /// Returns the unit to its just-built state: energy counters zeroed and
    /// injector detached (the interconnect itself is fixed by design, so
    /// there is no wiring to reset).
    pub fn reset(&mut self) {
        self.counters = EnergyCounters::new();
        self.faults = None;
    }

    /// Number of parallel lanes (ω).
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// The host walk the GEMV and D-PR block kernels take.
    pub fn value_walk(&self) -> ValueWalk {
        self.walk
    }

    /// Pipeline fill latency for a given reduction.
    pub fn fill_latency(&self, reduce: Reduce) -> u64 {
        let re = match reduce {
            Reduce::Sum => self.re_sum_latency,
            Reduce::Min => self.re_min_latency,
        };
        self.alu_latency + u64::from(self.tree_depth) * re
    }

    /// One pipelined pass: multiplies `row` by `operand` element-wise and
    /// reduces with `Sum`. Counts ω ALU ops and ω−1 reduce ops.
    ///
    /// This row kernel, the fault injector's target, serves the checked
    /// GEMV attempt, the D-SymGS recurrence and CSR streaming; the block
    /// kernels ([`Fcu::gemv_block`] and its kin) serve everything else.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not ω long.
    pub fn mac_row(&mut self, row: &[f64], operand: &[f64]) -> f64 {
        self.mac(row, operand, Lanes::Logical)
    }

    /// [`Fcu::mac_row`] over a row streamed right-to-left: lane `j`
    /// multiplies `row[ω−1−j]` by `operand[j]`. The products are summed in
    /// the same logical lane order, so the result is bit-identical to
    /// `mac_row` on the un-reversed row.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not ω long.
    pub fn mac_row_reversed(&mut self, row: &[f64], operand: &[f64]) -> f64 {
        self.mac(row, operand, Lanes::Reversed)
    }

    /// Step `step` of the forward D-SymGS recurrence (Figure 10) over a
    /// right-to-left row and the block row's `x` chunk, read in place.
    /// The multipliers see the chunk through the operand shift register,
    /// whose lane `k` holds column `c = (step − 1 − k) mod ω`: the columns
    /// this step's predecessors produced, newest first, then the older
    /// ones from the last down. Lane `k` multiplies `row[ω−1−c]` by
    /// `operand[c]`, and the products are summed in that lane order.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not ω long or `step` is not below ω.
    pub fn mac_row_shifted(&mut self, row: &[f64], operand: &[f64], step: usize) -> f64 {
        assert!(step < self.omega, "a recurrence has omega steps");
        self.mac(row, operand, Lanes::Shifted(step))
    }

    fn mac(&mut self, row: &[f64], operand: &[f64], lanes: Lanes) -> f64 {
        let w = self.omega;
        assert_eq!(row.len(), w, "row width must be omega");
        assert_eq!(operand.len(), w, "operand width must be omega");
        self.count(1);
        let mut sum: f64 = match lanes {
            Lanes::Logical => row.iter().zip(operand).map(|(a, b)| a * b).sum(),
            Lanes::Reversed => row.iter().rev().zip(operand).map(|(a, b)| a * b).sum(),
            Lanes::Shifted(step) => {
                let (fresh, stale) = operand.split_at(step);
                let (stale_row, fresh_row) = row.split_at(w - step);
                fresh_row
                    .iter()
                    .zip(fresh.iter().rev())
                    .chain(stale_row.iter().zip(stale.iter().rev()))
                    .map(|(a, b)| a * b)
                    .sum()
            }
        };
        if let Some(inj) = &self.faults {
            if let Some((lane, bit)) = inj.lane_fault(w) {
                // A single lane product is upset before it enters the tree.
                let (r, c) = lanes.entries(lane, w);
                let clean = row[r] * operand[c];
                sum = sum - clean + fault::flip_bit(clean, bit);
            }
            if let Some(bit) = inj.tree_fault() {
                sum = fault::flip_bit(sum, bit);
            }
        }
        sum
    }

    /// One GEMV block (§4.3): the ω rows of the ω×ω `payload`, streamed
    /// right-to-left when `reversed`, each dotted with `operand` into
    /// `dots`. Bit-identical, counters included, to ω calls of
    /// [`Fcu::mac_row`] (or [`Fcu::mac_row_reversed`]): rows run side by
    /// side, each in its own accumulator that adds its lanes in lane order
    /// from `-0.0`, the seed of `mac_row`'s `Sum`. Block kernels never
    /// consult the fault injector.
    ///
    /// # Panics
    ///
    /// Panics unless `payload` is ω² long and `operand` and `dots` are ω
    /// long.
    #[allow(clippy::inline_always)]
    #[inline(always)]
    pub fn gemv_block(
        &mut self,
        payload: &[f64],
        reversed: bool,
        operand: &[f64],
        dots: &mut [f64],
    ) {
        assert_eq!(dots.len(), self.omega, "a GEMV block has omega dots");
        self.begin_block(payload, operand, dots.len());
        #[cfg(target_arch = "x86_64")]
        if self.walk.avx2 {
            // SAFETY: a `ValueWalk` has `avx2` set only where
            // `is_x86_feature_detected!` found AVX2 on this host.
            unsafe { avx2::block::<false>(payload, reversed, operand, dots) };
            return;
        }
        reduce_rows(
            payload,
            reversed,
            operand,
            dots.len(),
            -0.0,
            mac,
            |i, dot| dots[i] = dot,
        );
    }

    /// One D-PR block: PageRank's structure-only gather. Each of the first
    /// `next.len()` rows of `payload` — the block's valid destinations —
    /// adds its lane-order dot of edge indicators (`[a ≠ 0]`) with
    /// `operand` into its slot of `next`. Padded rows are skipped and
    /// count no ALU or reduce events. Bit-identical to [`Fcu::mac_row`] on
    /// each valid row's indicators, then `+=`.
    ///
    /// # Panics
    ///
    /// Panics unless `payload` is ω² long, `operand` ω long and `next` at
    /// most ω long.
    pub fn pagerank_block(
        &mut self,
        payload: &[f64],
        reversed: bool,
        operand: &[f64],
        next: &mut [f64],
    ) {
        self.begin_block(payload, operand, next.len());
        #[cfg(target_arch = "x86_64")]
        if self.walk.avx2 {
            // SAFETY: a `ValueWalk` has `avx2` set only where
            // `is_x86_feature_detected!` found AVX2 on this host.
            unsafe { avx2::block::<true>(payload, reversed, operand, next) };
            return;
        }
        reduce_rows(
            payload,
            reversed,
            operand,
            next.len(),
            -0.0,
            indicator_mac,
            |i, dot| next[i] += dot,
        );
    }

    /// One min-plus block (the D-BFS/D-SSSP shape of Table 1: operation
    /// `op`, reduce `min`). Each of the first `cands.len()` rows of
    /// `payload` — the block's valid destinations — gets the `min`, in
    /// lane order, of `op(a, operand[j])` over its active lanes: lanes
    /// whose matrix value `a` is exactly zero carry no edge. A row with no
    /// active lane gets `f64::INFINITY`. Padded rows are skipped and count
    /// no ALU or reduce events.
    ///
    /// # Panics
    ///
    /// Panics unless `payload` is ω² long, `operand` ω long and `cands` at
    /// most ω long.
    pub fn min_plus_block(
        &mut self,
        payload: &[f64],
        reversed: bool,
        operand: &[f64],
        op: impl Fn(f64, f64) -> f64,
        cands: &mut [f64],
    ) {
        self.begin_block(payload, operand, cands.len());
        reduce_rows(
            payload,
            reversed,
            operand,
            cands.len(),
            f64::INFINITY,
            |acc, a, b| if a == 0.0 { acc } else { acc.min(op(a, b)) },
            |i, cand| cands[i] = cand,
        );
    }

    /// Checks a block kernel's widths and counts ω ALU and ω−1 reduce
    /// events for each of the `rows` rows it reduces.
    fn begin_block(&mut self, payload: &[f64], operand: &[f64], rows: usize) {
        let w = self.omega;
        assert_eq!(payload.len(), w * w, "payload must be omega x omega");
        assert_eq!(operand.len(), w, "operand width must be omega");
        assert!(rows <= w, "a block has at most omega rows");
        self.count(rows);
    }

    /// Counts ω ALU and ω−1 reduce events for each of `rows` rows.
    fn count(&mut self, rows: usize) {
        self.counters.alu_ops += (rows * self.omega) as u64;
        self.counters.re_ops += (rows * (self.omega - 1)) as u64;
    }

    /// Drains the pipeline — the window during which the RCU switch is
    /// reconfigured for the next data path (§4.4). Returns the drain cycles.
    pub fn drain(&self, reduce: Reduce) -> u64 {
        self.fill_latency(reduce)
    }

    /// Energy-event counters accumulated so far.
    pub fn counters(&self) -> &EnergyCounters {
        &self.counters
    }

    /// Takes and resets the counters.
    pub fn take_counters(&mut self) -> EnergyCounters {
        std::mem::take(&mut self.counters)
    }
}

/// Which row and operand entries meet in each multiplier lane of a row
/// kernel.
#[derive(Debug, Clone, Copy)]
enum Lanes {
    /// Lane `j` multiplies `row[j]` by `operand[j]`.
    Logical,
    /// Lane `j` multiplies `row[ω−1−j]` by `operand[j]`.
    Reversed,
    /// D-SymGS step `s` ([`Fcu::mac_row_shifted`]): lane `k` multiplies
    /// `row[ω−1−c]` by `operand[c]`, with `c = (s − 1 − k) mod ω`.
    Shifted(usize),
}

impl Lanes {
    /// The `(row, operand)` indices lane `lane` multiplies at width `w`.
    fn entries(self, lane: usize, w: usize) -> (usize, usize) {
        match self {
            Lanes::Logical => (lane, lane),
            Lanes::Reversed => (w - 1 - lane, lane),
            Lanes::Shifted(step) => {
                let c = (step + w - 1 - lane) % w;
                (w - 1 - c, c)
            }
        }
    }
}

/// GEMV's lane step: the lane's product added to the row's sum.
fn mac(acc: f64, a: f64, b: f64) -> f64 {
    acc + a * b
}

/// D-PR's lane step: the edge indicator `[a ≠ 0]` times `b`, added to the
/// row's sum.
fn indicator_mac(acc: f64, a: f64, b: f64) -> f64 {
    acc + if a == 0.0 { 0.0 } else { 1.0 } * b
}

/// The host walk of the GEMV and D-PR block kernels: the AVX2 walk, four
/// rows per instruction, on an x86-64 host whose CPU has AVX2, at
/// ω ∈ {4, 8, 16, 32}; the scalar walk everywhere else. Both give the
/// same bits (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueWalk {
    /// Set only by [`ValueWalk::detect`], and only where
    /// `is_x86_feature_detected!` found AVX2: the AVX2 calls rely on it.
    avx2: bool,
}

impl ValueWalk {
    /// The walk of the block kernels at width `omega` on this host.
    fn detect(omega: usize) -> Self {
        #[cfg(target_arch = "x86_64")]
        let avx2 = avx2::WIDTHS.contains(&omega) && std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = {
            let _ = omega;
            false
        };
        ValueWalk { avx2 }
    }

    /// Rows the walk reduces per host instruction: 4 on the AVX2 walk, 1
    /// on the scalar one.
    pub fn lanes(self) -> u32 {
        if self.avx2 {
            4
        } else {
            1
        }
    }

    /// Whether this is the AVX2 walk. It is only on a host where
    /// `is_x86_feature_detected!` found AVX2, so code compiled for AVX2
    /// may run whenever this holds.
    pub(crate) fn is_avx2(self) -> bool {
        self.avx2
    }
}

/// Rows a block kernel reduces side by side, each in its own accumulator:
/// independent chains the host overlaps, while each row keeps its lane order.
const ROWS_IN_FLIGHT: usize = 4;

/// The block kernels' walk: folds each of the first `rows` rows of the ω×ω
/// `payload` (ω = `operand.len()`, rows streamed right-to-left when
/// `reversed`) with `step(acc, a, b)` over its lanes `(a, b)` in lane
/// order, starting from `seed`, and hands row `i`'s result to `emit(i, _)`.
///
/// The power-of-two widths run a walk compiled for their ω, whose lane
/// loops unroll; any other width takes the runtime-width walk. Both fold
/// every row in the same order, so the width never moves a bit.
#[inline]
fn reduce_rows(
    payload: &[f64],
    reversed: bool,
    operand: &[f64],
    rows: usize,
    seed: f64,
    step: impl Fn(f64, f64, f64) -> f64,
    emit: impl FnMut(usize, f64),
) {
    match operand.len() {
        4 => reduce_rows_fixed::<4, 4>(payload, reversed, operand, rows, seed, step, emit),
        8 => reduce_rows_fixed::<8, 8>(payload, reversed, operand, rows, seed, step, emit),
        16 => reduce_rows_fixed::<16, 8>(payload, reversed, operand, rows, seed, step, emit),
        32 => reduce_rows_fixed::<32, 8>(payload, reversed, operand, rows, seed, step, emit),
        _ => reduce_rows_any(payload, reversed, operand, rows, seed, step, emit),
    }
}

/// [`reduce_rows`] at a compile-time width `W`: the payload is viewed as
/// `W`-wide rows and the operand as one `W`-array.
#[inline]
fn reduce_rows_fixed<const W: usize, const R: usize>(
    payload: &[f64],
    reversed: bool,
    operand: &[f64],
    rows: usize,
    seed: f64,
    step: impl Fn(f64, f64, f64) -> f64,
    mut emit: impl FnMut(usize, f64),
) {
    let (block, _) = payload.as_chunks::<W>();
    let (operand, _) = operand.as_chunks::<W>();
    let operand = &operand[0];
    let (groups, tail) = block[..rows].as_chunks::<R>();
    for (g, group) in groups.iter().enumerate() {
        let acc = fold(
            group.each_ref().map(|row| &row[..]),
            reversed,
            operand,
            seed,
            &step,
        );
        for (r, value) in acc.into_iter().enumerate() {
            emit(g * R + r, value);
        }
    }
    let done = rows - tail.len();
    for (r, row) in tail.iter().enumerate() {
        let [value] = fold([&row[..]], reversed, operand, seed, &step);
        emit(done + r, value);
    }
}

/// [`reduce_rows`] at a runtime width, for the widths without a walk of
/// their own.
fn reduce_rows_any(
    payload: &[f64],
    reversed: bool,
    operand: &[f64],
    rows: usize,
    seed: f64,
    step: impl Fn(f64, f64, f64) -> f64,
    mut emit: impl FnMut(usize, f64),
) {
    let w = operand.len();
    let grouped = rows - rows % ROWS_IN_FLIGHT;
    for (g, group) in payload[..grouped * w]
        .chunks_exact(ROWS_IN_FLIGHT * w)
        .enumerate()
    {
        let rows = std::array::from_fn(|r| &group[r * w..(r + 1) * w]);
        let acc: [f64; ROWS_IN_FLIGHT] = fold(rows, reversed, operand, seed, &step);
        for (r, value) in acc.into_iter().enumerate() {
            emit(g * ROWS_IN_FLIGHT + r, value);
        }
    }
    for i in grouped..rows {
        let [value] = fold(
            [&payload[i * w..(i + 1) * w]],
            reversed,
            operand,
            seed,
            &step,
        );
        emit(i, value);
    }
}

/// Folds the `R` ω-wide `rows` against `operand`, one accumulator per row,
/// each over its lanes in lane order (see [`reduce_rows`]). Inlined into
/// each walk, so the fixed-width walks see ω as a constant; left to the
/// inliner's choice it stays out of line and the block kernels run about
/// 1.5× slower.
#[allow(clippy::inline_always)]
#[inline(always)]
fn fold<const R: usize>(
    rows: [&[f64]; R],
    reversed: bool,
    operand: &[f64],
    seed: f64,
    step: &impl Fn(f64, f64, f64) -> f64,
) -> [f64; R] {
    let w = operand.len();
    let mut acc = [seed; R];
    if reversed {
        for (j, &b) in operand.iter().enumerate() {
            for (acc, row) in acc.iter_mut().zip(&rows) {
                *acc = step(*acc, row[w - 1 - j], b);
            }
        }
    } else {
        for (j, &b) in operand.iter().enumerate() {
            for (acc, row) in acc.iter_mut().zip(&rows) {
                *acc = step(*acc, row[j], b);
            }
        }
    }
    acc
}

/// The GEMV and D-PR block kernels' AVX2 walk.
///
/// Four rows go side by side, one per lane of a 256-bit accumulator seeded
/// with `-0.0`. Each 4×4 tile of their payload is transposed in registers,
/// so that one vector holds the four rows' entries of one lane; then
/// `acc = acc + col_j · x_j` runs for the lanes `j` in lane order, with a
/// separate multiply and add. Each accumulator lane therefore performs
/// exactly its row's scalar chain of IEEE operations ([`mac`] or
/// [`indicator_mac`] from `-0.0`): no fused multiply-add, no
/// reassociation. A reversed block walks each tile's transposed columns
/// last first. D-PR's last valid rows past a multiple of four take the
/// scalar [`fold`].
///
/// Every function here is compiled for AVX2 and safe to call from another
/// one; only the entry, [`block`], needs its caller to have checked the
/// host (see [`ValueWalk`]).
///
/// A loop over these kernels may itself be compiled for AVX2, as the
/// engine's memo-hit value walks are: the kernels then inline into its
/// block loop instead of being called once per block.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_castpd256_pd128, _mm256_cmp_pd,
        _mm256_extractf128_pd, _mm256_mul_pd, _mm256_permute2f128_pd, _mm256_set1_pd,
        _mm256_setr_pd, _mm256_setzero_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd, _mm_cvtsd_f64,
        _mm_unpackhi_pd, _CMP_NEQ_UQ,
    };

    /// The widths with a vector walk.
    pub(super) const WIDTHS: [usize; 4] = [4, 8, 16, 32];

    /// One GEMV (`PAGERANK = false`: `out[i] = dot`) or D-PR
    /// (`PAGERANK = true`: `out[i] += dot` over the edge indicators) block
    /// over the first `out.len()` rows of the ω×ω `payload`, ω =
    /// `operand.len()` one of [`WIDTHS`]. The caller has checked the
    /// widths (`Fcu::begin_block`).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) fn block<const PAGERANK: bool>(
        payload: &[f64],
        reversed: bool,
        operand: &[f64],
        out: &mut [f64],
    ) {
        match (operand.len(), reversed) {
            (4, false) => walk::<4, PAGERANK, false>(payload, operand, out),
            (4, true) => walk::<4, PAGERANK, true>(payload, operand, out),
            (8, false) => walk::<8, PAGERANK, false>(payload, operand, out),
            (8, true) => walk::<8, PAGERANK, true>(payload, operand, out),
            (16, false) => walk::<16, PAGERANK, false>(payload, operand, out),
            (16, true) => walk::<16, PAGERANK, true>(payload, operand, out),
            (32, false) => walk::<32, PAGERANK, false>(payload, operand, out),
            (32, true) => walk::<32, PAGERANK, true>(payload, operand, out),
            (w, _) => unreachable!("no AVX2 walk at omega {w}"),
        }
    }

    /// [`block`] at the compile-time width `W`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn walk<const W: usize, const PAGERANK: bool, const REVERSED: bool>(
        payload: &[f64],
        operand: &[f64],
        out: &mut [f64],
    ) {
        let (rows, _) = payload.as_chunks::<W>();
        let (operand, _) = operand.as_chunks::<W>();
        let x = &operand[0];
        let (groups, _) = rows.as_chunks::<4>();
        let done = out.len() - out.len() % 4;
        let (quads, tail) = out.as_chunks_mut::<4>();
        for (group, quad) in groups.iter().zip(quads) {
            let acc = fold4::<W, PAGERANK, REVERSED>(group, x);
            *quad = lanes(if PAGERANK {
                _mm256_add_pd(load(quad), acc)
            } else {
                acc
            });
        }
        let step = if PAGERANK {
            super::indicator_mac
        } else {
            super::mac
        };
        for (row, slot) in rows[done..].iter().zip(tail) {
            let [dot] = super::fold([&row[..]], REVERSED, x, -0.0, &step);
            *slot = if PAGERANK { *slot + dot } else { dot };
        }
    }

    /// The four `rows`' sums, one per lane, each over its lanes in lane
    /// order from `-0.0`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn fold4<const W: usize, const PAGERANK: bool, const REVERSED: bool>(
        rows: &[[f64; W]; 4],
        x: &[f64; W],
    ) -> __m256d {
        let (zero, one) = (_mm256_setzero_pd(), _mm256_set1_pd(1.0));
        let mut acc = _mm256_set1_pd(-0.0);
        for t in 0..W / 4 {
            // Lanes 4t..4t + 4, which a reversed row streams last first
            // in its tile W/4 − 1 − t.
            let tile = if REVERSED { W / 4 - 1 - t } else { t };
            let cols = transpose(
                quarter(&rows[0], tile),
                quarter(&rows[1], tile),
                quarter(&rows[2], tile),
                quarter(&rows[3], tile),
            );
            for (k, &xj) in x[4 * t..4 * t + 4].iter().enumerate() {
                let mut a = cols[if REVERSED { 3 - k } else { k }];
                if PAGERANK {
                    // All ones where a ≠ 0 or a is NaN, as `a == 0.0` is
                    // false for NaN; ANDed with 1.0 that is the indicator.
                    a = _mm256_and_pd(_mm256_cmp_pd::<_CMP_NEQ_UQ>(a, zero), one);
                }
                acc = _mm256_add_pd(acc, _mm256_mul_pd(a, _mm256_set1_pd(xj)));
            }
        }
        acc
    }

    /// Entries `4·tile..4·tile + 4` of `row`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn quarter<const W: usize>(row: &[f64; W], tile: usize) -> __m256d {
        let (quarters, _) = row.as_chunks::<4>();
        load(&quarters[tile])
    }

    /// `q` as a vector, `q[0]` in the lowest lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(q: &[f64; 4]) -> __m256d {
        _mm256_setr_pd(q[0], q[1], q[2], q[3])
    }

    /// The lanes of `v`, lowest first.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn lanes(v: __m256d) -> [f64; 4] {
        let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
        [
            _mm_cvtsd_f64(lo),
            _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo)),
            _mm_cvtsd_f64(hi),
            _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi)),
        ]
    }

    /// The columns of the 4×4 tile whose rows are `r0..r3`: column `k`
    /// holds entry `k` of each row, row 0 in the lowest lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose(r0: __m256d, r1: __m256d, r2: __m256d, r3: __m256d) -> [__m256d; 4] {
        let (even01, odd01) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
        let (even23, odd23) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
        [
            _mm256_permute2f128_pd::<0x20>(even01, even23),
            _mm256_permute2f128_pd::<0x20>(odd01, odd23),
            _mm256_permute2f128_pd::<0x31>(even01, even23),
            _mm256_permute2f128_pd::<0x31>(odd01, odd23),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::ShiftRegister;
    use proptest::prelude::*;

    fn fcu() -> Fcu {
        Fcu::new(&SimConfig::paper())
    }

    impl Fcu {
        /// The min-plus row kernel [`Fcu::min_plus_block`] replaced, kept
        /// as its reference: `min` over the active lanes of `op(a, b)`.
        fn min_reduce_row(
            &mut self,
            row: &[f64],
            operand: &[f64],
            op: impl Fn(f64, f64) -> f64,
        ) -> f64 {
            assert_eq!(row.len(), self.omega, "row width must be omega");
            assert_eq!(operand.len(), self.omega, "operand width must be omega");
            self.count(1);
            row.iter()
                .zip(operand)
                .filter(|(a, _)| **a != 0.0)
                .map(|(a, b)| op(*a, *b))
                .fold(f64::INFINITY, f64::min)
        }
    }

    #[test]
    fn mac_row_computes_dot_product() {
        let mut f = fcu();
        let row = [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let x = [1.0; 8];
        assert_eq!(f.mac_row(&row, &x), 6.0);
        assert_eq!(f.counters().alu_ops, 8);
        assert_eq!(f.counters().re_ops, 7);
    }

    #[test]
    fn min_plus_ignores_structural_zeros() {
        let mut f = fcu();
        let mut payload = [0.0; 64];
        payload[..8].copy_from_slice(&[0.0, 2.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]);
        let dist = [0.0, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0];
        // Row 0's active lanes: 2.0+1.0 = 3.0 and 5.0+0.5 = 5.5 -> min 3.0;
        // row 1 has none.
        let mut cands = [0.0; 2];
        f.min_plus_block(&payload, false, &dist, |w, d| w + d, &mut cands);
        assert_eq!(cands, [3.0, f64::INFINITY]);
        assert_eq!(f.counters().alu_ops, 16);
    }

    #[test]
    fn reversed_rows_reduce_in_logical_order() {
        let mut f = fcu();
        let row = [0.1, 0.2, 0.3, 1e16, -1e16, 0.7, 0.0, 3.0];
        let x = [1.5, -2.0, 0.25, 1.0, 1.0, 4.0, 9.0, 0.5];
        let mut streamed = row;
        streamed.reverse();
        let plain = f.mac_row(&row, &x);
        assert_eq!(f.mac_row_reversed(&streamed, &x).to_bits(), plain.to_bits());
        assert_eq!(f.counters().alu_ops, 16);
    }

    #[test]
    fn shifted_rows_sum_in_the_shift_register_lane_order() {
        // Figure 10's register, stepped literally: it starts with the
        // chunk's old values in reverse, and step i has pushed the i fresh
        // ones. Lane k multiplies streamed slot (k + ω − i) mod ω.
        for omega in [1, 3, 5, 8] {
            let mut f = Fcu::new(&SimConfig::paper().with_omega(omega));
            let w = omega as f64;
            let streamed: Vec<f64> = (0..omega).map(|j| (j as f64 + 0.5).powi(3) / w).collect();
            let old: Vec<f64> = (0..omega).map(|j| 1e8 - (j as f64) * 1e8 / w).collect();
            let fresh: Vec<f64> = (0..omega).map(|j| -0.1 * (j as f64 + 1.0)).collect();
            let mut reg = ShiftRegister::load(&old.iter().rev().copied().collect::<Vec<_>>());
            let mut chunk = old.clone();
            for i in 0..omega {
                let rotated: Vec<f64> = (0..omega)
                    .map(|k| streamed[(k + omega - i) % omega])
                    .collect();
                let expected = f.mac_row(&rotated, reg.lanes());
                assert_eq!(
                    f.mac_row_shifted(&streamed, &chunk, i).to_bits(),
                    expected.to_bits(),
                    "omega {omega}, step {i}"
                );
                reg.push(fresh[i]);
                chunk[i] = fresh[i];
            }
            assert_eq!(f.counters().alu_ops, (2 * omega * omega) as u64);
        }
    }

    #[test]
    fn fill_latency_matches_table5() {
        let f = fcu();
        assert_eq!(f.fill_latency(Reduce::Sum), 12);
        assert_eq!(f.fill_latency(Reduce::Min), 6);
        assert_eq!(f.drain(Reduce::Sum), 12);
    }

    #[test]
    #[should_panic(expected = "row width must be omega")]
    fn wrong_width_panics() {
        fcu().mac_row(&[1.0; 4], &[1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "payload must be omega x omega")]
    fn wrong_payload_panics() {
        fcu().gemv_block(&[1.0; 8], false, &[1.0; 8], &mut [0.0; 8]);
    }

    #[test]
    fn armed_injector_perturbs_mac_row() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut f = fcu();
        let row = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let x = [1.0; 8];
        let clean = f.mac_row(&row, &x);
        let inj = FaultInjector::new(FaultPlan::inert(3).with_fcu_tree_rate(1.0));
        f.attach_injector(Some(inj.clone()));
        // Disarmed: identical result.
        assert_eq!(f.mac_row(&row, &x).to_bits(), clean.to_bits());
        inj.set_fcu_armed(true);
        assert_ne!(f.mac_row(&row, &x).to_bits(), clean.to_bits());
        assert_eq!(inj.counters().injected, 1);
    }

    #[test]
    fn take_counters_resets() {
        let mut f = fcu();
        f.mac_row(&[0.0; 8], &[0.0; 8]);
        let c = f.take_counters();
        assert_eq!(c.alu_ops, 8);
        assert_eq!(f.counters().alu_ops, 0);
    }

    /// The block widths the equivalence properties cover.
    const OMEGAS: [usize; 6] = [1, 3, 4, 8, 16, 32];

    /// Special payload and operand values: ±0.0 (twice each, as zeros
    /// decide D-PR's indicators), ±1, subnormals, ±inf, NaN, and very
    /// large and very small normal magnitudes.
    const SPECIAL: [f64; 16] = [
        0.0,
        -0.0,
        0.0,
        -0.0,
        1.0,
        -1.0,
        5e-324,
        -2.2e-310,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.7e308,
        -1e300,
        2.3e-308,
        -1e-300,
        3e-200,
    ];

    /// A payload or operand value: half the time one of [`SPECIAL`], else
    /// uniform in ±1e3.
    fn value() -> impl Strategy<Value = f64> {
        (0..2 * SPECIAL.len(), -1e3f64..1e3).prop_map(|(k, x)| SPECIAL.get(k).copied().unwrap_or(x))
    }

    /// A block case: ω, the reversal flag, the valid-row count (1..=ω), the
    /// streamed ω×ω payload and the ω-wide operand.
    fn block_case() -> impl Strategy<Value = (usize, bool, usize, Vec<f64>, Vec<f64>)> {
        (0..OMEGAS.len(), 0u8..2).prop_flat_map(|(k, rev)| {
            let w = OMEGAS[k];
            (
                Just(w),
                Just(rev == 1),
                1..=w,
                proptest::collection::vec(value(), w * w),
                proptest::collection::vec(value(), w),
            )
        })
    }

    /// Row `i` of a streamed payload in logical lane order.
    fn logical_row(payload: &[f64], w: usize, i: usize, reversed: bool) -> Vec<f64> {
        let mut row = payload[i * w..(i + 1) * w].to_vec();
        if reversed {
            row.reverse();
        }
        row
    }

    /// Each value's bits, with every NaN mapped to one canonical NaN. Rust
    /// leaves the sign and payload of an arithmetic NaN unspecified, and
    /// they do differ between debug and release builds of the same sum
    /// (x86 propagates whichever NaN operand the compiler put first), so
    /// only NaN-ness is comparable; every other value, ±0.0 and ±inf
    /// included, is compared bit for bit.
    fn bits(values: &[f64]) -> Vec<u64> {
        values
            .iter()
            .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
            .collect()
    }

    fn counts(f: &Fcu) -> (u64, u64) {
        (f.counters().alu_ops, f.counters().re_ops)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn gemv_block_equals_omega_mac_rows(case in block_case()) {
            let (w, reversed, _, payload, operand) = case;
            let config = SimConfig::paper().with_omega(w);
            let (mut block, mut rows) = (Fcu::new(&config), Fcu::new(&config));
            let mut dots = vec![0.0; w];
            block.gemv_block(&payload, reversed, &operand, &mut dots);
            let want: Vec<f64> = (0..w)
                .map(|i| {
                    let row = &payload[i * w..(i + 1) * w];
                    if reversed {
                        rows.mac_row_reversed(row, &operand)
                    } else {
                        rows.mac_row(row, &operand)
                    }
                })
                .collect();
            prop_assert_eq!(bits(&dots), bits(&want));
            prop_assert_eq!(counts(&block), counts(&rows));
        }

        #[test]
        fn pagerank_block_equals_indicator_mac_rows(case in block_case()) {
            let (w, reversed, valid, payload, operand) = case;
            let config = SimConfig::paper().with_omega(w);
            let (mut block, mut rows) = (Fcu::new(&config), Fcu::new(&config));
            let seed: Vec<f64> = (0..valid).map(|i| [-0.0, 0.0, 0.5][i % 3]).collect();
            let mut next = seed.clone();
            block.pagerank_block(&payload, reversed, &operand, &mut next);
            let mut want = seed;
            for (i, slot) in want.iter_mut().enumerate() {
                let lanes: Vec<f64> = logical_row(&payload, w, i, reversed)
                    .iter()
                    .map(|&a| if a == 0.0 { 0.0 } else { 1.0 })
                    .collect();
                *slot += rows.mac_row(&lanes, &operand);
            }
            prop_assert_eq!(bits(&next), bits(&want));
            prop_assert_eq!(counts(&block), counts(&rows));
        }

        #[test]
        fn min_plus_block_equals_min_reduce_rows(case in block_case()) {
            let (w, reversed, valid, payload, operand) = case;
            let config = SimConfig::paper().with_omega(w);
            let (mut block, mut rows) = (Fcu::new(&config), Fcu::new(&config));
            let op = |a: f64, d: f64| a + d;
            let mut cands = vec![0.0; valid];
            block.min_plus_block(&payload, reversed, &operand, op, &mut cands);
            let want: Vec<f64> = (0..valid)
                .map(|i| rows.min_reduce_row(&logical_row(&payload, w, i, reversed), &operand, op))
                .collect();
            prop_assert_eq!(bits(&cands), bits(&want));
            prop_assert_eq!(counts(&block), counts(&rows));
        }
    }

    /// The widths the walk differential covers: the AVX2 walk's four and
    /// three that take the scalar walk on every host.
    const WALK_OMEGAS: [usize; 7] = [1, 3, 4, 5, 8, 16, 32];

    /// The host's GEMV and D-PR walk against the scalar walk on one case:
    /// ω = `w`, streamed right-to-left when `reversed`, with the payload,
    /// operand and D-PR slots drawn from `seed` (half the time from
    /// [`SPECIAL`], else uniform in ±1e3), and every D-PR row count from 0
    /// to ω. Outputs must match bit for bit, a NaN matching any NaN (see
    /// [`bits`]), and so must the energy counters. A failure names the
    /// call that replays it.
    fn check_walks(w: usize, reversed: bool, seed: u64) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let replay = format!("replay with check_walks({w}, {reversed}, {seed})");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut draw = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|_| {
                    let k = rng.gen_range(0..2 * SPECIAL.len());
                    SPECIAL
                        .get(k)
                        .copied()
                        .unwrap_or_else(|| rng.gen_range(-1e3..1e3))
                })
                .collect()
        };
        let (payload, operand, slots) = (draw(w * w), draw(w), draw(w));
        let config = SimConfig::paper().with_omega(w);
        let mut host = Fcu::new(&config);
        let mut scalar = Fcu {
            walk: ValueWalk { avx2: false },
            ..Fcu::new(&config)
        };
        #[cfg(target_arch = "x86_64")]
        let avx2_host = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2_host = false;
        // Else the host walk could be the scalar one, checked against
        // itself.
        assert_eq!(
            host.value_walk().lanes(),
            if avx2_host && [4, 8, 16, 32].contains(&w) {
                4
            } else {
                1
            },
            "the AVX2 walk runs wherever it can; {replay}"
        );

        let (mut got, mut want) = (vec![0.0; w], vec![0.0; w]);
        host.gemv_block(&payload, reversed, &operand, &mut got);
        scalar.gemv_block(&payload, reversed, &operand, &mut want);
        assert_eq!(bits(&got), bits(&want), "gemv; {replay}");
        for valid in 0..=w {
            let (mut got, mut want) = (slots[..valid].to_vec(), slots[..valid].to_vec());
            host.pagerank_block(&payload, reversed, &operand, &mut got);
            scalar.pagerank_block(&payload, reversed, &operand, &mut want);
            assert_eq!(bits(&got), bits(&want), "d-pr, {valid} rows; {replay}");
        }
        assert_eq!(counts(&host), counts(&scalar), "counters; {replay}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn host_walk_equals_scalar_walk(k in 0..WALK_OMEGAS.len(), rev in 0u8..2, seed in 0u64..u64::MAX) {
            check_walks(WALK_OMEGAS[k], rev == 1, seed);
        }
    }

    /// Rows whose every product is −0.0 sum to −0.0 only from a −0.0 seed,
    /// the seed of `mac_row`'s `Sum`.
    #[test]
    fn negative_zero_rows_keep_their_sign() {
        for w in OMEGAS {
            let mut f = Fcu::new(&SimConfig::paper().with_omega(w));
            let (payload, operand) = (vec![-0.0; w * w], vec![1.0; w]);
            let mut dots = vec![1.0; w];
            f.gemv_block(&payload, false, &operand, &mut dots);
            assert_eq!(
                f.mac_row(&payload[..w], &operand).to_bits(),
                (-0.0f64).to_bits()
            );
            assert_eq!(bits(&dots), bits(&vec![-0.0; w]), "gemv, omega {w}");
            // Indicators of empty lanes are +0.0; a negative operand makes
            // each product −0.0, and −0.0 + −0.0 keeps a −0.0 slot.
            let mut next = vec![-0.0; w];
            f.pagerank_block(&vec![0.0; w * w], true, &vec![-2.0; w], &mut next);
            assert_eq!(bits(&next), bits(&vec![-0.0; w]), "d-pr, omega {w}");
        }
    }
}
