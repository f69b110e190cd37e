//! Pins real engine behaviour: every kernel the cycle-level engine runs, on
//! three inputs each, down to the last output bit and report counter.
//!
//! The report goldens in `golden_reports.rs` pin the JSON *schema* with
//! synthetic values; this file pins the *numbers* — cycles, cache hits and
//! misses, energy events, link-stack and FIFO peaks, fault counters — plus
//! an FNV-1a hash of every output value's IEEE-754 bits. Any change to the
//! engine's data paths, timing model or cache accounting shows up here.
//!
//! Inputs per kernel: `stencil27(4)` (n = 64, a multiple of ω), one science
//! class whose n is not a multiple of ω (padded tail), and one generated
//! graph. Two extra SymGS runs cover the ABFT machinery: an inert fault plan
//! and a seeded active plan under `RecoveryPolicy::Retry`.
//!
//! The recovery paths are pinned too. An SpMV under an active FCU-lane plan
//! with retries, and one run per fault site (FCU lane, memory stuck-at via
//! SpMV, RCU link stack, RCU operand FIFO) under `FailFast` and under a
//! retry budget the plan exhausts. Every faulted run pins its outcome
//! (the `SimError` with its site and cycle, or the output and report), the
//! injector's fault counters and an FNV-1a hash of its trace-event
//! sequence. Last come the `Alrescha` facade's failover paths: `spmv`,
//! `symgs` and `symgs_forward` pinned to the CPU, under
//! `RecoveryPolicy::DegradeToCpu`, and behind an armed circuit breaker over
//! a sequence of operations (full report, breaker stats and recovery
//! cycles included, plus the output hash).
//!
//! To regenerate after an intentional engine change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test engine_runs
//! ```

use std::path::PathBuf;

use alrescha::{Alrescha, BreakerConfig, KernelType};
use alrescha_sim::trace::TraceEvent;
use alrescha_sim::{
    Engine, ExecutionReport, FaultPlan, FaultSite, PageRankConfig, RecoveryPolicy, SimConfig,
    SimError,
};
use alrescha_sparse::{alf::AlfLayout, gen, Alf, Coo, Csr};

const OMEGA: usize = 8;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/engine_runs.json")
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in bits {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn hash_f64(values: &[f64]) -> u64 {
    fnv(values.iter().map(|v| v.to_bits()))
}

/// A generated graph turned into an SPD system: the symmetrized adjacency
/// with a dominant diagonal (SymGS divides by it, so it must be present).
fn graph_system(adj: &Coo) -> Coo {
    let n = adj.rows();
    let mut sys = Coo::new(n, n);
    let mut row_abs = vec![0.0; n];
    for &(u, v, w) in adj.entries() {
        if u != v {
            sys.push(u, v, -w.abs());
            sys.push(v, u, -w.abs());
            row_abs[u] += w.abs();
            row_abs[v] += w.abs();
        }
    }
    for (i, s) in row_abs.into_iter().enumerate() {
        sys.push(i, i, 1.0 + s);
    }
    sys.compress()
}

/// The graph view of a matrix: positive edge weights, same structure.
fn as_graph(coo: &Coo) -> Coo {
    let mut g = Coo::new(coo.rows(), coo.cols());
    for &(u, v, w) in coo.entries() {
        g.push(u, v, w.abs());
    }
    g
}

fn symmetrized(adj: &Coo) -> Coo {
    let mut sym = adj.clone();
    for &(u, v, w) in adj.entries() {
        sym.push(v, u, w);
    }
    sym.compress()
}

struct Inputs {
    name: &'static str,
    /// Matrix for SpMV.
    spmv: Coo,
    /// SPD system for the SymGS/SOR sweeps.
    system: Coo,
    /// Adjacency for the graph kernels.
    graph: Coo,
}

fn inputs() -> Vec<Inputs> {
    let stencil = gen::stencil27(4);
    let science = gen::ScienceClass::Electromagnetic.generate(100, 3);
    assert_ne!(science.rows() % OMEGA, 0, "science input must pad its tail");
    let graph = gen::GraphClass::Kronecker.generate(90, 7);
    vec![
        Inputs {
            name: "stencil27_4",
            spmv: stencil.clone(),
            system: stencil.clone(),
            graph: as_graph(&stencil),
        },
        Inputs {
            name: "electromag_100",
            spmv: science.clone(),
            system: science.clone(),
            graph: as_graph(&science),
        },
        Inputs {
            name: "kronecker_90",
            spmv: graph.clone(),
            system: graph_system(&graph),
            graph,
        },
    ]
}

fn engine() -> Engine {
    Engine::new(SimConfig::paper())
}

fn line(run: &str, output_fnv: u64, report: &ExecutionReport) -> String {
    format!(
        "{{\"run\":{run:?},\"output_fnv\":\"{output_fnv:016x}\",\"report\":{}}}",
        report.to_json()
    )
}

fn sweep_start(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.11).sin()).collect()
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.7).cos()).collect()
}

/// One SymGS-family sweep from a given start vector.
type Sweep = fn(&mut Engine, &Alf, &[f64], &mut [f64]) -> ExecutionReport;

/// Runs every pinned configuration and renders one JSON line per run.
fn run_all() -> Vec<String> {
    let mut lines = Vec::new();
    for inp in inputs() {
        let name = inp.name;

        let a = Alf::from_coo(&inp.spmv, OMEGA, AlfLayout::Streaming).expect("spmv format");
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let (y, r) = engine().run_spmv(&a, &x).expect("spmv");
        lines.push(line(&format!("spmv/{name}"), hash_f64(&y), &r));

        let s = Alf::from_coo(&inp.system, OMEGA, AlfLayout::SymGs).expect("symgs format");
        let b = rhs(s.rows());
        let sweeps: [(&str, Sweep); 4] = [
            ("symgs_forward", |e, a, b, x| {
                e.run_symgs_forward(a, b, x).expect("forward")
            }),
            ("symgs_backward", |e, a, b, x| {
                e.run_symgs_backward(a, b, x).expect("backward")
            }),
            ("symgs", |e, a, b, x| e.run_symgs(a, b, x).expect("symgs")),
            ("ssor_1.3", |e, a, b, x| {
                e.run_ssor(a, b, x, 1.3).expect("ssor")
            }),
        ];
        for (kernel, sweep) in sweeps {
            let mut xs = sweep_start(s.cols());
            let r = sweep(&mut engine(), &s, &b, &mut xs);
            lines.push(line(&format!("{kernel}/{name}"), hash_f64(&xs), &r));
        }

        let at = Alf::from_coo(&inp.graph.transpose(), OMEGA, AlfLayout::Streaming)
            .expect("graph format");
        let (levels, r) = engine().run_bfs(&at, 0).expect("bfs");
        lines.push(line(&format!("bfs/{name}"), hash_f64(&levels), &r));
        let (dist, r) = engine().run_sssp(&at, 0).expect("sssp");
        lines.push(line(&format!("sssp/{name}"), hash_f64(&dist), &r));

        let csr = Csr::from_coo(&inp.graph);
        let out_deg: Vec<usize> = (0..csr.rows()).map(|u| csr.row_nnz(u)).collect();
        let (ranks, r) = engine()
            .run_pagerank(&at, &out_deg, &PageRankConfig::default())
            .expect("pagerank");
        lines.push(line(&format!("pagerank/{name}"), hash_f64(&ranks), &r));

        let sym = Alf::from_coo(
            &symmetrized(&inp.graph).transpose(),
            OMEGA,
            AlfLayout::Streaming,
        )
        .expect("cc format");
        let (labels, r) = engine().run_connected_components(&sym).expect("cc");
        let label_hash = fnv(labels.iter().map(|&l| l as u64));
        lines.push(line(&format!("cc/{name}"), label_hash, &r));
    }

    // The ABFT machinery: an inert plan (checks on, nothing fires) and a
    // seeded active plan recovered by retries.
    let coo = gen::stencil27(4);
    let s = Alf::from_coo(&coo, OMEGA, AlfLayout::SymGs).expect("symgs format");
    let b = rhs(s.rows());
    let plans = [
        (
            "symgs_inert_plan",
            FaultPlan::inert(11),
            RecoveryPolicy::FailFast,
        ),
        (
            "symgs_active_plan_retry",
            FaultPlan::inert(0x5EED_0014)
                .with_fcu_lane_rate(0.05)
                .with_fcu_tree_rate(0.02)
                .with_lifo_drop_rate(0.01)
                .with_fifo_drop_rate(0.02)
                .with_cache_fault_rate(0.02),
            RecoveryPolicy::Retry {
                max_retries: 8,
                backoff_cycles: 16,
            },
        ),
    ];
    for (run, plan, policy) in plans {
        let mut e = faulted_engine(plan, policy);
        let mut xs = sweep_start(s.cols());
        let out = e.run_symgs(&s, &b, &mut xs).map(|r| (hash_f64(&xs), r));
        lines.push(faulted_line(&format!("{run}/stencil27_4"), &mut e, out));
    }

    let a = Alf::from_coo(&coo, OMEGA, AlfLayout::Streaming).expect("spmv format");
    let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
    let mut e = faulted_engine(
        FaultPlan::inert(0x5EED_0018).with_fcu_lane_rate(0.05),
        RecoveryPolicy::Retry {
            max_retries: 8,
            backoff_cycles: 16,
        },
    );
    let out = e.run_spmv(&a, &x).map(|(y, r)| (hash_f64(&y), r));
    lines.push(faulted_line("spmv_fcu_lane_retry/stencil27_4", &mut e, out));

    // One plan per fault site, each run under FailFast (the first detection
    // surfaces at that site) and under a small retry budget.
    let sites = [
        (
            "fcu_lane",
            FaultSite::FcuLane,
            FaultPlan::inert(0x5EED_0019).with_fcu_lane_rate(0.05),
        ),
        (
            "memory_stuck",
            FaultSite::Memory,
            FaultPlan::inert(0x5EED_001A).with_memory_stuck_rate(1.0),
        ),
        (
            "rcu_lifo",
            FaultSite::RcuLifo,
            FaultPlan::inert(0x5EED_001B).with_lifo_drop_rate(0.05),
        ),
        (
            "rcu_fifo",
            FaultSite::RcuFifo,
            FaultPlan::inert(0x5EED_001C).with_fifo_drop_rate(0.05),
        ),
    ];
    let policies = [
        ("failfast", RecoveryPolicy::FailFast),
        (
            "retry2",
            RecoveryPolicy::Retry {
                max_retries: 2,
                backoff_cycles: 8,
            },
        ),
    ];
    for (site_name, site, plan) in sites {
        for (policy_name, policy) in policies {
            let mut e = faulted_engine(plan.clone(), policy);
            let out = if matches!(site, FaultSite::FcuLane | FaultSite::Memory) {
                e.run_spmv(&a, &x).map(|(y, r)| (hash_f64(&y), r))
            } else {
                let mut xs = sweep_start(s.cols());
                e.run_symgs(&s, &b, &mut xs).map(|r| (hash_f64(&xs), r))
            };
            if policy == RecoveryPolicy::FailFast {
                assert!(
                    matches!(out, Err(SimError::FaultDetected { site: got, .. }) if got == site),
                    "{site_name}: {out:?}"
                );
            }
            let run = format!("{site_name}_{policy_name}/stencil27_4");
            lines.push(faulted_line(&run, &mut e, out));
        }
    }

    lines.extend(facade_runs(&coo));
    lines
}

fn faulted_engine(plan: FaultPlan, policy: RecoveryPolicy) -> Engine {
    let mut e = engine();
    e.enable_tracing();
    e.set_fault_plan(Some(plan));
    e.set_recovery_policy(policy);
    e
}

/// FNV-1a over the debug rendering of every trace event, in order.
fn trace_hash(events: &[TraceEvent]) -> u64 {
    fnv(events
        .iter()
        .flat_map(|e| format!("{e:?};").into_bytes())
        .map(u64::from))
}

/// Pins a faulted run: its outcome (output hash and report, or the error
/// with its site and cycle), the injector's counters, and the trace hash.
fn faulted_line(
    run: &str,
    e: &mut Engine,
    outcome: Result<(u64, ExecutionReport), SimError>,
) -> String {
    let faults = format!("{:?}", e.fault_injector().expect("plan armed").counters());
    let trace = trace_hash(&e.take_trace());
    match outcome {
        Ok((output_fnv, report)) => format!(
            "{{\"run\":{run:?},\"output_fnv\":\"{output_fnv:016x}\",\"trace_fnv\":\"{trace:016x}\",\"faults\":{faults:?},\"report\":{}}}",
            report.to_json()
        ),
        Err(err) => format!(
            "{{\"run\":{run:?},\"error\":{:?},\"trace_fnv\":\"{trace:016x}\",\"faults\":{faults:?}}}",
            format!("{err:?}")
        ),
    }
}

/// One facade configuration: its fault plan, recovery policy, optional
/// breaker, and how many operations run in sequence on one accelerator.
struct FacadeSetup {
    name: &'static str,
    plan: FaultPlan,
    policy: RecoveryPolicy,
    breaker: Option<BreakerConfig>,
    ops: usize,
}

/// The facade's failover paths on `coo`: each guarded operation pinned to
/// the CPU, degraded under `DegradeToCpu`, and behind a circuit breaker.
fn facade_runs(coo: &Coo) -> Vec<String> {
    type Op =
        fn(&mut Alrescha, &alrescha::ProgrammedKernel, &[f64], &mut Vec<f64>) -> ExecutionReport;
    let ops: [(&str, KernelType, Op); 3] = [
        ("spmv", KernelType::SpMv, |acc, prog, x, out| {
            let (y, r) = acc.spmv(prog, x).expect("facade spmv");
            *out = y;
            r
        }),
        ("symgs", KernelType::SymGs, |acc, prog, b, out| {
            acc.symgs(prog, b, out).expect("facade symgs")
        }),
        ("symgs_forward", KernelType::SymGs, |acc, prog, b, out| {
            acc.symgs_forward(prog, b, out)
                .expect("facade symgs_forward")
        }),
    ];
    let stuck = FaultPlan::inert(0x5EED_001D).with_memory_stuck_rate(1.0);
    let flaky = FaultPlan::inert(0x5EED_001E).with_fcu_lane_rate(0.002);
    let degrade = |max_retries, backoff_cycles| RecoveryPolicy::DegradeToCpu {
        max_retries,
        backoff_cycles,
    };
    let tight_breaker = BreakerConfig {
        failure_threshold: 2,
        cooldown_ops: 2,
        max_attempts: 2,
        ..BreakerConfig::default()
    };
    let setups = [
        FacadeSetup {
            name: "cpu_only",
            plan: stuck.clone(),
            policy: RecoveryPolicy::FailFast,
            breaker: None,
            ops: 1,
        },
        FacadeSetup {
            name: "degrade_stuck",
            plan: stuck.clone(),
            policy: degrade(2, 8),
            breaker: None,
            ops: 1,
        },
        FacadeSetup {
            name: "degrade_absorbed",
            plan: FaultPlan::inert(0x5EED_001F).with_fcu_lane_rate(0.05),
            policy: degrade(8, 16),
            breaker: None,
            ops: 1,
        },
        FacadeSetup {
            name: "breaker_stuck",
            plan: stuck,
            policy: RecoveryPolicy::FailFast,
            breaker: Some(tight_breaker),
            ops: 6,
        },
        FacadeSetup {
            name: "breaker_flaky",
            plan: flaky,
            policy: RecoveryPolicy::FailFast,
            breaker: Some(BreakerConfig::default()),
            ops: 8,
        },
    ];
    let mut lines = Vec::new();
    for (kernel, kind, op) in ops {
        for setup in &setups {
            let mut acc = Alrescha::with_paper_config();
            let prog = acc.program(kind, coo).expect("program");
            acc.set_fault_plan(Some(setup.plan.clone()));
            acc.set_recovery_policy(setup.policy);
            acc.set_circuit_breaker(setup.breaker);
            acc.set_cpu_only(setup.name == "cpu_only");
            for k in 0..setup.ops {
                let (input, mut out) = if kind == KernelType::SpMv {
                    let x = (0..coo.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
                    (x, Vec::new())
                } else {
                    (rhs(coo.rows()), sweep_start(coo.cols()))
                };
                let r = op(&mut acc, &prog, &input, &mut out);
                lines.push(line(
                    &format!("facade/{kernel}/{}/op{k}", setup.name),
                    hash_f64(&out),
                    &r,
                ));
            }
        }
    }
    lines
}

#[test]
fn engine_runs_match_golden() {
    let actual = run_all();
    // The pinned active-plan run is only meaningful if faults really fired
    // and were retried.
    let active = actual
        .iter()
        .find(|l| l.contains("symgs_active_plan_retry"))
        .expect("active plan run");
    assert!(!active.contains("\"injected\":0,"), "{active}");
    assert!(!active.contains("\"retries\":0,"), "{active}");
    let rendered = format!("[\n{}\n]\n", actual.join(",\n"));
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, rendered).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    let expected: Vec<&str> = expected
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| l.trim_end_matches(','))
        .collect();
    assert_eq!(expected.len(), actual.len(), "pinned run count changed");
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(
            *want, got,
            "engine run drifted from tests/golden/engine_runs.json; if the \
             change is intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
}
