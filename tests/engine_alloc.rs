//! The fault-free engine hot path makes no heap allocation per block, and
//! neither does Algorithm-1 conversion.
//!
//! This binary installs a counting global allocator and runs warmed SpMV,
//! SymGS, SSOR, PageRank, BFS, SSSP, connected components, CSR-streamed
//! SpMV and SpMV under an inert fault plan (the checksum-verified GEMV
//! path) on `stencil27(4)` (8 block rows) and `stencil27(8)` (64 block
//! rows, 8× the blocks). A run may allocate a fixed number of
//! times — its output vector, say — but the count must not depend on how
//! many blocks it streams. The same holds for `Alf::from_coo` in both
//! layouts: it sizes every buffer up front, so it allocates a fixed number
//! of times whatever the block count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use alrescha_sim::{Engine, FaultPlan, PageRankConfig, SimConfig};
use alrescha_sparse::{alf::AlfLayout, gen, Alf, Csr};

/// Counts allocation requests (fresh, zeroed and growing reallocations)
/// made by the current thread; frees are not counted.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

const KERNELS: [&str; 9] = [
    "spmv",
    "symgs",
    "ssor",
    "pagerank",
    "bfs",
    "sssp",
    "cc",
    "spmv-csr",
    "spmv-inert",
];

/// Allocations of the second (warmed) run of each kernel of [`KERNELS`] on
/// `stencil27(side)`, plus the block count.
fn warmed_allocations(side: usize) -> ([u64; 9], usize) {
    let coo = gen::stencil27(side);
    let spmv = Alf::from_coo(&coo, 8, AlfLayout::Streaming).expect("spmv format");
    let symgs = Alf::from_coo(&coo, 8, AlfLayout::SymGs).expect("symgs format");
    let at = Alf::from_coo(&coo.transpose(), 8, AlfLayout::Streaming).expect("graph format");
    let csr = Csr::from_coo(&coo);
    let out_deg: Vec<usize> = (0..csr.rows()).map(|u| csr.row_nnz(u)).collect();
    let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
    let b = vec![1.0; coo.rows()];
    let mut xs = vec![0.0; coo.cols()];
    let opts = PageRankConfig::default();

    let mut engine = Engine::new(SimConfig::paper());
    let mut checked = Engine::new(SimConfig::paper());
    checked.set_fault_plan(Some(FaultPlan::inert(7)));
    let mut counts = [0; 9];
    for _warm in 0..2 {
        counts = [
            allocations(|| engine.run_spmv(&spmv, &x).expect("spmv")),
            allocations(|| engine.run_symgs(&symgs, &b, &mut xs).expect("symgs")),
            allocations(|| engine.run_ssor(&symgs, &b, &mut xs, 1.3).expect("ssor")),
            allocations(|| engine.run_pagerank(&at, &out_deg, &opts).expect("pagerank")),
            allocations(|| engine.run_bfs(&at, 0).expect("bfs")),
            allocations(|| engine.run_sssp(&at, 0).expect("sssp")),
            // The stencil is symmetric, so its transpose is already the
            // symmetrized adjacency label propagation needs.
            allocations(|| engine.run_connected_components(&at).expect("cc")),
            allocations(|| engine.run_spmv_csr(&csr, &x).expect("spmv-csr")),
            allocations(|| checked.run_spmv(&spmv, &x).expect("spmv-inert")),
        ];
    }
    (counts, spmv.num_blocks())
}

#[test]
fn fault_free_runs_allocate_independently_of_block_count() {
    let (small, small_blocks) = warmed_allocations(4);
    let (large, large_blocks) = warmed_allocations(8);
    assert!(large_blocks >= 8 * small_blocks);
    for (kernel, (s, l)) in KERNELS.iter().zip(small.iter().zip(&large)) {
        assert_eq!(
            s, l,
            "{kernel}: {s} allocations over {small_blocks} blocks but {l} over \
             {large_blocks} blocks — the hot path allocates per block"
        );
    }
}

/// Allocations of one `Alf::from_coo` call on `stencil27(side)` in each
/// layout, as `[streaming, symgs]`.
fn conversion_allocations(side: usize) -> [u64; 2] {
    let coo = gen::stencil27(side);
    [AlfLayout::Streaming, AlfLayout::SymGs]
        .map(|layout| allocations(|| Alf::from_coo(&coo, 8, layout).expect("format")))
}

#[test]
fn conversion_allocates_independently_of_block_count() {
    let small = conversion_allocations(4);
    let large = conversion_allocations(8);
    assert_eq!(
        small, large,
        "Alf::from_coo allocates {small:?} times on stencil27(4) but {large:?} on \
         stencil27(8) — conversion allocates per block"
    );
}
