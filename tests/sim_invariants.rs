//! Property-based tests on simulator invariants: timing and accounting hold
//! for arbitrary diagonally dominant inputs and block widths, and, over a
//! seed matrix, under seeded fault plans with retries.
//!
//! The fault-plan matrix follows the house seed style:
//!
//! * `SIM_INVARIANT_SEED=<n>` runs exactly that seed — the repro knob
//!   printed when a seed fails;
//! * `SIM_INVARIANT_SEEDS=<count>` sets the matrix width;
//! * unset, 64 seeds run.

use std::panic::{self, AssertUnwindSafe};

use proptest::prelude::*;

use alrescha::{Alrescha, KernelType};
use alrescha_obs::rng::SplitMix64;
use alrescha_sim::{Engine, ExecutionReport, FaultPlan, PageRankConfig, RecoveryPolicy, SimConfig};
use alrescha_sparse::{alf::AlfLayout, Alf, Coo};

fn arb_dd_matrix() -> impl Strategy<Value = Coo> {
    (2usize..32).prop_flat_map(|n| {
        let entry = (0..n, 0..n, 1i32..50);
        proptest::collection::vec(entry, 0..80).prop_map(move |entries| {
            let mut coo = Coo::new(n, n);
            let mut row_sum = vec![0.0; n];
            for (r, c, v) in entries {
                if r != c {
                    let v = -f64::from(v) / 60.0;
                    coo.push(r, c, v);
                    row_sum[r] += v.abs();
                }
            }
            for (i, s) in row_sum.iter().enumerate() {
                coo.push(i, i, s + 1.0);
            }
            coo.compress()
        })
    })
}

/// Regression pin for the shrunk case committed in
/// `sim_invariants.proptest-regressions`: a 9×9 diagonally dominant system
/// whose off-diagonals couple both ω=8 block rows in both directions, with
/// three pure-diagonal rows (2, 4, 5) interleaved.
///
/// **Root cause:** this shape maximizes data-path alternation in SymGS.
/// Each of the two block rows switches GEMV→D-SymGS→… within *each* sweep,
/// and symmetric Gauss–Seidel runs **two** sweeps (forward + backward), so
/// the simulator performs 8 switches where the configuration table's
/// straight-line count predicts only 3. A switch bound that counts one
/// sweep — `2·block_rows + 1 = 5` — is violated (8 > 5); the property's
/// bound must carry the outer factor two for the backward sweep:
/// `2·(2·block_rows + 1) = 10`. The committed seed keeps this
/// maximal-alternation shape exercised deterministically.
#[test]
fn committed_seed_needs_the_two_sweep_switch_bound() {
    let mut coo = Coo::new(9, 9);
    for (r, c, v) in [
        (0usize, 0usize, 1.5333333333333332f64),
        (0, 4, -0.5),
        (0, 5, -0.03333333333333333),
        (1, 1, 1.4666666666666668),
        (1, 2, -0.05),
        (1, 6, -0.4166666666666667),
        (2, 2, 1.0),
        (3, 1, -0.016666666666666666),
        (3, 2, -0.6333333333333333),
        (3, 3, 1.9333333333333333),
        (3, 8, -0.2833333333333333),
        (4, 4, 1.0),
        (5, 5, 1.0),
        (6, 0, -0.08333333333333333),
        (6, 6, 1.0833333333333333),
        (7, 3, -1.2333333333333334),
        (7, 5, -0.75),
        (7, 7, 3.7),
        (7, 8, -0.7166666666666668),
        (8, 1, -0.8166666666666668),
        (8, 8, 1.8166666666666669),
    ] {
        coo.push(r, c, v);
    }
    let coo = coo.compress();

    let mut acc = Alrescha::with_paper_config();
    let prog = acc.program(KernelType::SymGs, &coo).expect("programs");
    let b = vec![1.0; 9];
    let mut x = vec![0.0; 9];
    let report = acc.symgs(&prog, &b, &mut x).expect("runs");

    let block_rows = prog.matrix().block_rows() as u64;
    let table_switches = prog.table().switch_count() as u64;
    assert_eq!(block_rows, 2, "seed spans two ω=8 block rows");
    assert_eq!(table_switches, 3, "straight-line table undercounts sweeps");
    assert_eq!(report.reconfig.switches, 8, "deterministic switch count");
    // The single-sweep bound this seed originally broke…
    assert!(report.reconfig.switches > 2 * block_rows + 1);
    // …and the two-sweep bound the property asserts today.
    assert!(report.reconfig.switches <= 2 * (2 * block_rows + 1));
    // Alternation is still fully hidden under reduction-tree drains.
    assert_eq!(report.reconfig.exposed_cycles, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spmv_report_invariants(coo in arb_dd_matrix(), omega_pow in 1usize..6) {
        let omega = 1 << omega_pow;
        let config = SimConfig::paper().with_omega(omega);
        let mut acc = Alrescha::new(config);
        let prog = acc.program(KernelType::SpMv, &coo).expect("programs");
        let x = vec![1.0; coo.cols()];
        let (_, report) = acc.spmv(&prog, &x).expect("runs");

        prop_assert!(report.cycles > 0);
        prop_assert!(report.seconds > 0.0);
        prop_assert!((0.0..=1.0).contains(&report.bandwidth_utilization));
        prop_assert!((0.0..=1.0).contains(&report.cache_time_fraction));
        // Payload streamed is at least the dense blocks of the matrix.
        let expected_payload = prog.matrix().streamed_bytes() as u64;
        prop_assert!(report.bytes_streamed >= expected_payload);
        // ALU work: one omega-wide MAC row per block row.
        let block_count = prog.matrix().blocks().len() as u64;
        prop_assert_eq!(
            report.energy.alu_ops,
            block_count * (omega * omega) as u64
        );
    }

    #[test]
    fn symgs_reconfiguration_is_always_hidden(coo in arb_dd_matrix()) {
        let mut acc = Alrescha::with_paper_config();
        let prog = acc.program(KernelType::SymGs, &coo).expect("programs");
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let report = acc.symgs(&prog, &b, &mut x).expect("runs");
        // Table 5's latencies guarantee the switch fits under the drain.
        prop_assert_eq!(report.reconfig.exposed_cycles, 0);
        prop_assert!(report.reconfig.switches >= 1);
        prop_assert!(report.datapaths.dsymgs_blocks >= 1);
    }

    #[test]
    fn wider_blocks_never_reduce_streamed_bytes(coo in arb_dd_matrix()) {
        // Padding grows (weakly) with block width for a fixed matrix.
        let bytes: Vec<u64> = [4usize, 8, 16]
            .iter()
            .map(|&omega| {
                let mut acc = Alrescha::new(SimConfig::paper().with_omega(omega));
                let prog = acc.program(KernelType::SpMv, &coo).expect("programs");
                let x = vec![1.0; coo.cols()];
                acc.spmv(&prog, &x).expect("runs").1.bytes_streamed
            })
            .collect();
        prop_assert!(bytes[0] <= bytes[1] * 2, "4 -> 8: {} vs {}", bytes[0], bytes[1]);
        // Monotone within rounding: an omega-doubling cannot shrink the
        // dense-block footprint below the finer blocking's footprint.
        prop_assert!(bytes[1] <= bytes[2] * 2);
    }

    #[test]
    fn config_table_switches_bound_simulator_switches(coo in arb_dd_matrix()) {
        let mut acc = Alrescha::with_paper_config();
        let prog = acc.program(KernelType::SymGs, &coo).expect("programs");
        let table_switches = prog.table().switch_count() as u64;
        let block_rows = prog.matrix().block_rows() as u64;
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let report = acc.symgs(&prog, &b, &mut x).expect("runs");
        // Two sweeps; each block row switches at most twice per sweep
        // (into GEMV, into D-SymGS), plus the initial configuration. The
        // table's straight-line switch count is a lower-bound witness.
        prop_assert!(report.reconfig.switches >= table_switches.min(1));
        prop_assert!(
            report.reconfig.switches <= 2 * (2 * block_rows + 1),
            "sim {} block rows {}",
            report.reconfig.switches,
            block_rows
        );
    }
}

/// Base offset so fault-plan seeds are recognizable in logs.
const SEED_BASE: u64 = 0x51A1_0000;

/// The seed matrix: `SIM_INVARIANT_SEED` pins one seed,
/// `SIM_INVARIANT_SEEDS` sets the width, otherwise 64 seeds run.
fn seed_matrix() -> Vec<u64> {
    if let Ok(pinned) = std::env::var("SIM_INVARIANT_SEED") {
        let seed = pinned
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("SIM_INVARIANT_SEED must be a u64, got {pinned:?}"));
        return vec![seed];
    }
    let count = std::env::var("SIM_INVARIANT_SEEDS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(64);
    (0..count).map(|i| SEED_BASE + i).collect()
}

/// A diagonally dominant `n`×`n` system drawn from `rng`: SymGS-safe, and
/// with its absolute values a weighted graph.
fn seeded_dd_matrix(rng: &mut SplitMix64, n: usize) -> Coo {
    let mut coo = Coo::new(n, n);
    let mut row_sum = vec![0.0; n];
    for _ in 0..rng.next_u64() % (4 * n as u64 + 1) {
        let (r, c) = (rng.next_u64() as usize % n, rng.next_u64() as usize % n);
        if r != c {
            let v = -((rng.next_u64() % 49 + 1) as f64) / 60.0;
            coo.push(r, c, v);
            row_sum[r] += v.abs();
        }
    }
    for (i, s) in row_sum.iter().enumerate() {
        coo.push(i, i, s + 1.0);
    }
    coo.compress()
}

/// A transient fault plan drawn from `rng`: FCU lane and tree upsets,
/// cache parity errors, and link-stack and operand-FIFO drops. Permanent
/// stuck-at faults are left out: no retry can recover them.
fn seeded_plan(rng: &mut SplitMix64, seed: u64) -> FaultPlan {
    let mut rate = |max: f64| alrescha_obs::rng::unit_f64(rng.next_u64()) * max;
    FaultPlan::inert(seed)
        .with_fcu_lane_rate(rate(0.1))
        .with_fcu_tree_rate(rate(0.1))
        .with_cache_fault_rate(rate(0.1))
        .with_lifo_drop_rate(rate(0.05))
        .with_fifo_drop_rate(rate(0.05))
}

/// Every kernel of the engine on one seed's system and plan; each run
/// that completes returns its report under the kernel's name.
fn faulted_reports(seed: u64) -> Vec<(&'static str, ExecutionReport)> {
    let mut rng = SplitMix64::new(seed);
    let omega = [3, 4, 8][(rng.next_u64() % 3) as usize];
    let n = 2 + (rng.next_u64() % 40) as usize;
    let coo = seeded_dd_matrix(&mut rng, n);
    let plan = seeded_plan(&mut rng, seed);
    let policy = RecoveryPolicy::Retry {
        max_retries: 6,
        backoff_cycles: rng.next_u64() % 16,
    };

    let streaming = Alf::from_coo(&coo, omega, AlfLayout::Streaming).expect("streaming format");
    let symgs = Alf::from_coo(&coo, omega, AlfLayout::SymGs).expect("symgs format");
    let mut graph = coo.clone();
    for &(u, v, w) in coo.entries() {
        graph.push(v, u, w.abs());
    }
    let graph = graph.compress();
    let at = Alf::from_coo(&graph.transpose(), omega, AlfLayout::Streaming).expect("graph format");
    let mut out_degrees = vec![0; n];
    for &(u, _, _) in graph.entries() {
        out_degrees[u] += 1;
    }
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
    let b = vec![1.0; n];
    let source = (seed % n as u64) as usize;

    let mut engine = Engine::new(SimConfig::paper().with_omega(omega));
    engine.set_fault_plan(Some(plan));
    engine.set_recovery_policy(policy);
    let mut xs = x.clone();
    let runs = [
        ("spmv", engine.run_spmv(&streaming, &x).map(|(_, r)| r)),
        (
            "symgs-forward",
            engine.run_symgs_forward(&symgs, &b, &mut xs),
        ),
        (
            "symgs-backward",
            engine.run_symgs_backward(&symgs, &b, &mut xs),
        ),
        ("ssor", engine.run_ssor(&symgs, &b, &mut xs, 1.3)),
        ("bfs", engine.run_bfs(&at, source).map(|(_, r)| r)),
        ("sssp", engine.run_sssp(&at, source).map(|(_, r)| r)),
        (
            "pagerank",
            engine
                .run_pagerank(&at, &out_degrees, &PageRankConfig::default())
                .map(|(_, r)| r),
        ),
        ("cc", engine.run_connected_components(&at).map(|(_, r)| r)),
    ];
    runs.into_iter()
        .filter_map(|(kernel, run)| run.ok().map(|report| (kernel, report)))
        .collect()
}

/// Under seeded fault plans with retries, every kernel's cycle breakdown,
/// recovery included, sums to its total cycles. A failing seed prints a
/// copy-pasteable repro line.
#[test]
fn breakdown_sums_to_cycles_under_fault_plans() {
    let seeds = seed_matrix();
    let (mut completed, mut recovered) = (0usize, 0usize);
    for &seed in &seeds {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let reports = faulted_reports(seed);
            for (kernel, report) in &reports {
                assert_eq!(
                    report.breakdown.total(),
                    report.cycles,
                    "{kernel}: breakdown {:?} does not sum to {} cycles",
                    report.breakdown,
                    report.cycles
                );
            }
            reports
        }));
        match outcome {
            Ok(reports) => {
                completed += reports.len();
                recovered += reports
                    .iter()
                    .filter(|(_, r)| r.breakdown.recovery_cycles > 0)
                    .count();
            }
            Err(payload) => {
                eprintln!(
                    "\nfault-plan seed {seed} failed; reproduce with:\n  \
                     SIM_INVARIANT_SEED={seed} cargo test --release --test sim_invariants \
                     breakdown_sums_to_cycles_under_fault_plans -- --nocapture\n"
                );
                panic::resume_unwind(payload);
            }
        }
    }
    if seeds.len() >= 16 {
        // The matrix must exercise what it pins: most runs complete, and
        // many of them recover from faults on the way.
        assert!(
            completed * 2 >= seeds.len() * 8,
            "{completed} runs completed"
        );
        assert!(
            recovered * 8 >= completed,
            "{recovered} of {completed} runs recovered"
        );
    }
}
