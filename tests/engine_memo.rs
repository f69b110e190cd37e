//! The engine's timing memo against the full walk it stands in for.
//!
//! A fault-free SpMV call or SOR sweep whose program structure, call and
//! entry data path the engine has timed before runs only its value walk
//! and takes its report from the memo. Each test here runs one script of
//! calls (SpMV, forward, backward and symmetric sweeps, SSOR at 1.3, from
//! the entry data paths those leave) on an engine whose memo can hit and
//! on an oracle engine armed with a wall-clock limit no run reaches, which
//! keeps the memo out of every call. Values must match bit for bit,
//! reports field for field, and traces by hash; a reset engine with a warm
//! memo must still match a fresh one. The matrices cover every generator
//! class at ω ∈ {1, 3, 4, 8, 16}, with a padded last block row wherever ω
//! allows one.

use std::sync::Arc;
use std::time::Duration;

use alrescha_obs::{SpanEvent, Telemetry};
use alrescha_sim::trace::TraceEvent;
use alrescha_sim::{Engine, ExecBudget, ExecutionReport, SimConfig, SimError};
use alrescha_sparse::gen::{self, GraphClass, ScienceClass};
use alrescha_sparse::{alf::AlfLayout, Alf, Coo};

const WIDTHS: [usize; 5] = [1, 3, 4, 8, 16];

/// Rows of the generated matrices: not a multiple of any width above 1.
const N: usize = 77;

/// One call of the script.
#[derive(Debug, Clone, Copy)]
enum Call {
    Spmv,
    Forward,
    Backward,
    Symgs,
    Ssor,
}

/// SpMV from unwired, GEMV and D-SymGS; the forward sweep from GEMV and
/// D-SymGS; the backward sweep, and SSOR at 1.3, from D-SymGS. That is
/// eight distinct timings, as many as the memo holds, so a second pass
/// over the script hits on every call.
const SCRIPT: [Call; 8] = [
    Call::Spmv,
    Call::Spmv,
    Call::Forward,
    Call::Backward,
    Call::Forward,
    Call::Ssor,
    Call::Spmv,
    Call::Symgs,
];

/// What one call left: its output bits, its report, and its trace hash.
#[derive(Debug, PartialEq)]
struct Outcome {
    bits: Vec<u64>,
    report: ExecutionReport,
    trace: u64,
}

struct Case {
    name: String,
    omega: usize,
    spmv: Alf,
    /// The SymGS format, for matrices with a full diagonal.
    symgs: Option<Alf>,
}

impl Case {
    fn new(name: String, coo: &Coo, omega: usize, sweeps: bool) -> Self {
        Case {
            name,
            omega,
            spmv: Alf::from_coo(coo, omega, AlfLayout::Streaming).unwrap(),
            symgs: sweeps.then(|| Alf::from_coo(coo, omega, AlfLayout::SymGs).unwrap()),
        }
    }

    fn config(&self) -> SimConfig {
        SimConfig::paper().with_omega(self.omega)
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for omega in WIDTHS {
        for class in ScienceClass::ALL {
            let coo = class.generate(N, 5);
            cases.push(Case::new(
                format!("{} ω={omega}", class.name()),
                &coo,
                omega,
                true,
            ));
        }
        for class in GraphClass::ALL {
            let coo = class.generate(N, 7);
            cases.push(Case::new(
                format!("{} ω={omega}", class.name()),
                &coo,
                omega,
                false,
            ));
        }
        let coo = gen::stencil27(3);
        cases.push(Case::new(
            format!("stencil27(3) ω={omega}"),
            &coo,
            omega,
            true,
        ));
    }
    cases
}

/// Keeps the memo out of every call on `engine`: a wall-clock limit can
/// trip anywhere, so every call takes the full walk, and no run here comes
/// near an hour.
fn keep_memo_out(engine: &mut Engine) {
    engine.set_budget(ExecBudget::none().with_wall(Duration::from_hours(1)));
}

/// An engine that never uses the memo.
fn oracle(config: SimConfig) -> Engine {
    let mut engine = Engine::new(config);
    keep_memo_out(&mut engine);
    engine
}

/// FNV-1a over the events' debug rendering.
fn trace_hash(events: &[TraceEvent]) -> u64 {
    format!("{events:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs the script on `engine`; sweeps carry `x` from call to call.
fn run_script(engine: &mut Engine, case: &Case) -> Vec<Outcome> {
    let n = case.spmv.cols();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i % 11) as f64).mul_add(-0.625, 2.5))
        .collect();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i % 13) as f64).mul_add(0.375, -1.5))
        .collect();
    let mut xs = x.clone();
    let mut out = Vec::new();
    for call in SCRIPT {
        let (values, report) = match (call, &case.symgs) {
            (Call::Spmv, _) => engine.run_spmv(&case.spmv, &x).unwrap(),
            (_, None) => continue,
            (Call::Forward, Some(a)) => {
                let r = engine.run_symgs_forward(a, &b, &mut xs).unwrap();
                (xs.clone(), r)
            }
            (Call::Backward, Some(a)) => {
                let r = engine.run_symgs_backward(a, &b, &mut xs).unwrap();
                (xs.clone(), r)
            }
            (Call::Symgs, Some(a)) => {
                let r = engine.run_symgs(a, &b, &mut xs).unwrap();
                (xs.clone(), r)
            }
            (Call::Ssor, Some(a)) => {
                let r = engine.run_ssor(a, &b, &mut xs, 1.3).unwrap();
                (xs.clone(), r)
            }
        };
        out.push(Outcome {
            bits: bits(&values),
            report,
            trace: trace_hash(&engine.take_trace()),
        });
    }
    out
}

fn assert_same(case: &Case, what: &str, got: &[Outcome], want: &[Outcome]) {
    assert_eq!(got.len(), want.len(), "{}: {what}", case.name);
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.bits, w.bits, "{}: {what}: call {k} values", case.name);
        assert_eq!(g.report, w.report, "{}: {what}: call {k} report", case.name);
        assert_eq!(g.trace, w.trace, "{}: {what}: call {k} trace", case.name);
    }
}

/// Untraced: a cold engine, then the same engine reset with its memo warm
/// (every call a hit), against the oracle.
#[test]
fn memo_hits_match_the_full_walk() {
    for case in cases() {
        let want = run_script(&mut oracle(case.config()), &case);
        let mut engine = Engine::new(case.config());
        let cold = run_script(&mut engine, &case);
        assert_same(&case, "cold", &cold, &want);
        for pass in ["warm", "warm again"] {
            engine.reset();
            assert_same(&case, pass, &run_script(&mut engine, &case), &want);
        }
    }
}

/// Traced: a hit appends the events its timing was recorded with. The
/// oracle and the memo engine trace every call; an engine whose memo was
/// warmed untraced records the events on its first traced call.
#[test]
fn traced_hits_replay_the_recorded_events() {
    for case in cases() {
        let mut reference = oracle(case.config());
        reference.enable_tracing();
        let want = run_script(&mut reference, &case);

        let mut engine = Engine::new(case.config());
        run_script(&mut engine, &case);
        for pass in ["first traced", "traced hit"] {
            engine.reset();
            engine.enable_tracing();
            assert_same(&case, pass, &run_script(&mut engine, &case), &want);
        }
    }
}

/// Telemetry on: device timelines, the cycles-per-block histogram and
/// every deterministic metric match the oracle's, and the memo counters
/// say what hit.
#[test]
fn telemetry_sees_the_same_device_activity() {
    let device = |tele: &Telemetry| -> Vec<(String, u64, String)> {
        tele.snapshot_threads()
            .into_iter()
            .flat_map(|t| t.events)
            .filter_map(|e| match e {
                SpanEvent::Device(d) => Some((d.kernel, d.cycles, format!("{:?}", d.events))),
                _ => None,
            })
            .collect()
    };
    let counter = |tele: &Telemetry, name: &str| tele.metrics().counter(name, false, "").value();
    for case in cases().into_iter().filter(|c| c.omega == 8) {
        let reference_tele = Telemetry::new();
        let mut reference = oracle(case.config());
        reference.set_telemetry(Some(Arc::clone(&reference_tele)));
        run_script(&mut reference, &case);
        reference.reset();
        keep_memo_out(&mut reference);
        run_script(&mut reference, &case);

        let tele = Telemetry::new();
        let mut engine = Engine::new(case.config());
        engine.set_telemetry(Some(Arc::clone(&tele)));
        run_script(&mut engine, &case);
        let misses = counter(&tele, "alrescha_engine_timing_memo_misses_total");
        engine.reset();
        run_script(&mut engine, &case);

        assert_eq!(device(&tele), device(&reference_tele), "{}", case.name);
        assert_eq!(
            tele.metrics().deterministic_json(),
            reference_tele.metrics().deterministic_json(),
            "{}",
            case.name
        );
        let sweeps = if case.symgs.is_some() { 7 } else { 0 };
        let calls = 3 + sweeps;
        assert_eq!(
            counter(&tele, "alrescha_engine_timing_memo_hits_total"),
            (calls - misses) + calls,
            "{}: the second pass hits on every call",
            case.name
        );
        assert_eq!(
            counter(&tele, "alrescha_engine_timing_memo_misses_total"),
            misses,
            "{}",
            case.name
        );
        assert_eq!(
            counter(&reference_tele, "alrescha_engine_timing_memo_hits_total")
                + counter(&reference_tele, "alrescha_engine_timing_memo_misses_total"),
            0,
            "{}: the oracle never uses the memo",
            case.name
        );
    }
}

/// A warm memo does not hide a failure: a cycle budget the call's timing
/// exceeds trips where the full walk trips it, and a zero diagonal entry
/// stops the sweep at the same row, with the same partial update and the
/// same leftover accounting in the next report.
#[test]
fn failures_take_the_full_walk() {
    let coo = gen::stencil27(3);
    let case = Case::new("stencil27(3)".into(), &coo, 8, true);
    let mut engine = Engine::new(case.config());
    let mut reference = oracle(case.config());
    run_script(&mut engine, &case);

    let x = vec![1.0; case.spmv.cols()];
    for eng in [&mut engine, &mut reference] {
        eng.set_budget(ExecBudget::cycles(50));
    }
    let tripped = engine.run_spmv(&case.spmv, &x).unwrap_err();
    assert!(matches!(tripped, SimError::DeadlineExceeded { .. }));
    assert_eq!(tripped, reference.run_spmv(&case.spmv, &x).unwrap_err());
    engine.set_budget(ExecBudget::cycles(u64::MAX));
    keep_memo_out(&mut reference);
    let after = |eng: &mut Engine| eng.run_spmv(&case.spmv, &x).unwrap().1;
    assert_eq!(after(&mut engine), after(&mut reference));

    let mut zero = case.symgs.clone().unwrap();
    zero.diagonal_mut_unchecked()[13] = 0.0;
    let b = vec![1.0; zero.rows()];
    let sweep = |eng: &mut Engine| {
        let mut xs = vec![0.5; zero.cols()];
        let err = eng.run_symgs_forward(&zero, &b, &mut xs).unwrap_err();
        (err, bits(&xs), after(eng))
    };
    let (err, xs, next) = sweep(&mut engine);
    assert!(matches!(err, SimError::Structure(_)), "{err:?}");
    assert_eq!((err, xs, next), sweep(&mut reference));
}
