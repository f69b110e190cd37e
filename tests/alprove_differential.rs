//! Differential correctness for the alprove abstract interpreter: on
//! every generator class and kernel, the static bounds must *dominate*
//! the engine's fault-free dynamic counts (soundness) while staying
//! within a pinned tightness ratio (usefulness), and injected violations
//! — an overdeep link-stack schedule, a reordered sweep — must always be
//! caught.

use alrescha::convert::{ConfigTable, DataPath};
use alrescha::{Alrescha, KernelType};
use alrescha_lint::{analyze_programmed, analyze_table, Analysis};
use alrescha_sim::{ExecutionReport, PageRankConfig, SimConfig};
use alrescha_sparse::gen;
use proptest::prelude::*;

/// The pinned tightness ratio: the AL404 bound may not exceed twice the
/// engine's dynamic count on any fault-free run (at the paper
/// configuration the bound is exact, so this has slack for future cost
/// remodeling without ever letting the bound drift into uselessness).
const TIGHTNESS: u64 = 2;

fn assert_dominates(analysis: &Analysis, report: &ExecutionReport, what: &str) {
    let rounds = report.datapaths.iterations.max(1);
    let bound = analysis.cycle_bound.total_bound(rounds);
    assert!(
        bound >= report.cycles,
        "{what}: AL404 bound {bound} under-approximates engine cycles {}",
        report.cycles
    );
    assert!(
        bound <= TIGHTNESS * report.cycles,
        "{what}: AL404 bound {bound} exceeds {TIGHTNESS}x engine cycles {}",
        report.cycles
    );
    assert!(
        analysis.link_stack_bound >= report.datapaths.link_stack_peak,
        "{what}: AL401 bound {} under-approximates link-stack peak {}",
        analysis.link_stack_bound,
        report.datapaths.link_stack_peak
    );
    assert!(
        analysis.operand_fifo_bound >= report.datapaths.operand_fifo_peak,
        "{what}: AL402 bound {} under-approximates operand-FIFO peak {}",
        analysis.operand_fifo_bound,
        report.datapaths.operand_fifo_peak
    );
}

#[test]
fn spmv_bound_dominates_engine_on_every_class() {
    let mut acc = Alrescha::with_paper_config();
    for class in gen::ScienceClass::ALL {
        let coo = class.generate(300, 11);
        let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        let prog = acc.program(KernelType::SpMv, &coo).expect("program");
        let analysis = analyze_programmed(&prog, acc.config());
        let (_, report) = acc.spmv(&prog, &x).expect("run");
        assert_dominates(&analysis, &report, class.name());
        acc.reset();
    }
}

#[test]
fn symgs_bound_dominates_engine_on_every_class() {
    let mut acc = Alrescha::with_paper_config();
    for class in gen::ScienceClass::ALL {
        let coo = class.generate(300, 13);
        let b: Vec<f64> = (0..coo.rows()).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let prog = acc.program(KernelType::SymGs, &coo).expect("program");
        let analysis = analyze_programmed(&prog, acc.config());
        let mut x = vec![0.0; coo.cols()];
        let report = acc.symgs(&prog, &b, &mut x).expect("run");
        // The merged forward+backward report keeps iterations = 1; the
        // bound's runs_per_application = 2 covers both sweeps.
        assert_dominates(&analysis, &report, class.name());
        acc.reset();
    }
}

#[test]
fn graph_bounds_dominate_engine_on_every_class() {
    let mut acc = Alrescha::with_paper_config();
    for class in gen::GraphClass::ALL {
        let coo = class.generate(256, 11);

        let prog = acc.program(KernelType::Bfs, &coo).expect("program bfs");
        let analysis = analyze_programmed(&prog, acc.config());
        let (_, report) = acc.bfs(&prog, 0).expect("bfs");
        assert_dominates(&analysis, &report, &format!("bfs/{}", class.name()));
        acc.reset();

        let prog = acc.program(KernelType::Sssp, &coo).expect("program sssp");
        let analysis = analyze_programmed(&prog, acc.config());
        let (_, report) = acc.sssp(&prog, 0).expect("sssp");
        assert_dominates(&analysis, &report, &format!("sssp/{}", class.name()));
        acc.reset();

        let prog = acc
            .program(KernelType::ConnectedComponents, &coo)
            .expect("program cc");
        let analysis = analyze_programmed(&prog, acc.config());
        let (_, report) = acc.connected_components(&prog).expect("cc");
        assert_dominates(&analysis, &report, &format!("cc/{}", class.name()));
        acc.reset();
    }
}

#[test]
fn pagerank_bound_dominates_engine() {
    let mut acc = Alrescha::with_paper_config();
    for class in gen::GraphClass::ALL {
        let coo = class.generate(256, 17);
        let prog = acc.program(KernelType::PageRank, &coo).expect("program");
        let analysis = analyze_programmed(&prog, acc.config());
        // PageRank's round count lives in runtime options, not the
        // program, so the bound is per-iteration (rounds_cap = None).
        assert_eq!(analysis.cycle_bound.rounds_cap, None);
        let opts = PageRankConfig {
            max_iters: 200,
            ..PageRankConfig::default()
        };
        let (_, report) = acc.pagerank(&prog, &opts).expect("pagerank");
        assert_dominates(&analysis, &report, class.name());
        acc.reset();
    }
}

/// The static round cap for the min-plus kernels must dominate the
/// engine's worst observed round count (the engine breaks once `rounds`
/// passes n, so the cap is n + 1).
#[test]
fn graph_round_caps_dominate_observed_rounds() {
    let mut acc = Alrescha::with_paper_config();
    // A path graph maximizes BFS rounds: the frontier advances one hop
    // per round.
    let coo = gen::road_grid(16);
    let prog = acc.program(KernelType::Bfs, &coo).expect("program");
    let analysis = analyze_programmed(&prog, acc.config());
    let (_, report) = acc.bfs(&prog, 0).expect("bfs");
    let cap = analysis.cycle_bound.rounds_cap.expect("bfs cap is static");
    assert!(cap >= report.datapaths.iterations);
    assert!(
        analysis.cycle_bound.static_total().expect("static") >= report.cycles,
        "fully static bound must dominate even without knowing the rounds"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Injected violation: any non-identity permutation of the D-SymGS
    /// entries breaks the strictly-ascending sweep order, and the
    /// analyzer must always catch it (AL403 — or AL405 when the swap
    /// lands two entries on the same produced row).
    #[test]
    fn reordered_sweeps_are_always_caught(side in 3usize..6, a in 0usize..16, b in 0usize..16) {
        let coo = gen::stencil27(side);
        let (alf, table) = alrescha::convert::convert(KernelType::SymGs, &coo, 8).expect("convert");
        let mut entries = table.entries().to_vec();
        let diag_idx: Vec<usize> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.data_path == DataPath::DSymGs)
            .map(|(i, _)| i)
            .collect();
        let (i, j) = (diag_idx[a % diag_idx.len()], diag_idx[b % diag_idx.len()]);
        prop_assume!(i != j);
        entries.swap(i, j);
        let doctored = ConfigTable::from_entries(entries, table.entry_bits());
        let out = analyze_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
        prop_assert!(
            out.diagnostics.iter().any(|d| d.code == "AL403" || d.code == "AL405"),
            "swap ({i}, {j}) must be caught"
        );
    }

    /// Injected violation: random scattered matrices — the analyzer's
    /// AL401 verdict must agree with the exact schedule shape, and the
    /// over-capacity ones must always be errors.
    #[test]
    fn overdeep_stacks_are_always_caught(n in 64usize..320, per_row in 40usize..120, seed in 0u64..64) {
        let coo = gen::scattered(n, per_row, seed);
        let cfg = SimConfig::paper();
        let (alf, table) = alrescha::convert::convert(KernelType::SymGs, &coo, cfg.omega).expect("convert");
        let out = analyze_table(KernelType::SymGs, &table, &alf, &cfg);
        let peak = (cfg.omega as u64) * alf.max_off_diagonal_blocks_per_row() as u64;
        prop_assert_eq!(out.link_stack_bound, peak);
        prop_assert_eq!(
            out.diagnostics.iter().any(|d| d.code == "AL401"),
            peak > cfg.link_stack_capacity() as u64,
            "AL401 must fire exactly when the proved peak exceeds capacity"
        );
    }
}
