//! Telemetry acceptance: the Chrome/Perfetto export of an instrumented
//! fleet batch is schema-valid with one track per worker and one job span
//! per executed job; the engine's trace keeps its event-pairing invariants
//! under armed fault plans; and the deterministic slice of the metrics
//! registry is bit-identical across identical runs.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobSpec};
use alrescha::{FaultPlan, RecoveryPolicy};
use alrescha_obs::json::Value;
use alrescha_obs::{
    count_spans_named, export_chrome_trace, validate_chrome_trace, Telemetry,
};
use alrescha_sim::trace::{to_device_events, TraceEvent};
use alrescha_obs::DeviceEvent;
use alrescha_sim::{Engine, SimConfig};

fn spmv_jobs(n: usize, n_jobs: usize) -> Vec<JobSpec> {
    let grid = (n as f64).cbrt().ceil().max(2.0) as usize;
    let a = alrescha_sparse::gen::stencil27(grid);
    (0..n_jobs)
        .map(|j| {
            let x: Vec<f64> = (0..a.cols())
                .map(|i| 1.0 + ((i + j) % 5) as f64 / 3.0)
                .collect();
            JobSpec::new(a.clone(), JobKernel::SpMv { x })
        })
        .collect()
}

fn instrumented_fleet(workers: usize, tele: &Arc<Telemetry>) -> Fleet {
    Fleet::new(FleetConfig::default().with_workers(workers))
        .with_preflight(alrescha_lint::fleet_preflight_hook(Some(Arc::clone(tele))))
        .with_telemetry(Arc::clone(tele))
}

/// The exported fleet timeline passes schema validation, carries one
/// `worker-*` track per worker that actually ran a job, and holds exactly
/// one `job:` span per executed job, with the engine's device events
/// present as `X` slices.
#[test]
fn fleet_trace_has_one_track_per_worker_and_one_span_per_job() {
    let tele = Telemetry::new();
    let fleet = instrumented_fleet(3, &tele);
    let batch = fleet.run(spmv_jobs(216, 12));
    assert_eq!(batch.stats.failed, 0);
    assert_eq!(batch.stats.rejected, 0);

    let text = export_chrome_trace(&tele);
    let doc = Value::parse(&text).expect("exporter emits valid JSON");
    let summary = validate_chrome_trace(&doc).expect("schema-valid trace");

    let workers_used: BTreeSet<usize> = batch.jobs.iter().map(|r| r.worker).collect();
    assert_eq!(
        summary.tracks_named("worker-").len(),
        workers_used.len(),
        "one track per worker that executed a job"
    );
    assert_eq!(
        count_spans_named(&doc, "job:"),
        batch.jobs.len(),
        "one job span per executed job"
    );
    assert_eq!(count_spans_named(&doc, "fleet:batch:"), 1);

    let device_slices = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .map_or(0, |events| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
                .count()
        });
    assert!(
        device_slices > 0,
        "engine block timelines must appear as X slices"
    );
}

/// Under an armed fault plan the engine trace keeps its invariants: every
/// `BlockBegin` has a `BlockEnd`, recovery begin/end events balance, the
/// injected faults are visible, and the kernel bracket survives.
#[test]
fn engine_trace_invariants_hold_under_faults() {
    let a = alrescha_sparse::Alf::from_coo(
        &alrescha_sparse::gen::banded(256, 6, 11),
        8,
        alrescha_sparse::alf::AlfLayout::Streaming,
    )
    .expect("layout");
    let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64 / 4.0).collect();

    let mut engine = Engine::new(SimConfig::paper());
    engine.enable_tracing();
    engine.set_fault_plan(Some(FaultPlan::inert(7).with_fcu_tree_rate(0.05)));
    engine.set_recovery_policy(RecoveryPolicy::Retry {
        max_retries: 16,
        backoff_cycles: 8,
    });
    let (_, report) = engine.run_spmv(&a, &x).expect("retries absorb the plan");
    assert!(report.faults.detected > 0, "plan must actually fire");

    let trace = engine.take_trace();
    let count = |f: &dyn Fn(&TraceEvent) -> bool| trace.iter().filter(|e| f(e)).count();
    let begins = count(&|e| matches!(e, TraceEvent::BlockBegin { .. }));
    let ends = count(&|e| matches!(e, TraceEvent::BlockEnd { .. }));
    assert_eq!(begins, ends, "every BlockBegin needs a BlockEnd");
    assert!(begins > 0);
    let rec_begins = count(&|e| matches!(e, TraceEvent::RecoveryBegin { .. }));
    let rec_ends = count(&|e| matches!(e, TraceEvent::RecoveryEnd { .. }));
    assert_eq!(rec_begins, rec_ends, "recovery events must balance");
    assert!(
        count(&|e| matches!(e, TraceEvent::FaultInjected { .. })) > 0,
        "detected faults must be visible in the trace"
    );
    assert!(matches!(trace.first(), Some(TraceEvent::KernelBegin { .. })));
    assert!(matches!(trace.last(), Some(TraceEvent::KernelEnd { .. })));

    // The cycle-cursor walk converts every block to a span and never
    // produces a slice that ends before it starts.
    let device = to_device_events(&trace);
    let spans = device
        .iter()
        .filter(|e| match e {
            DeviceEvent::Span {
                start_cycle,
                end_cycle,
                ..
            } => {
                assert!(end_cycle >= start_cycle);
                true
            }
            DeviceEvent::Point { .. } => false,
        })
        .count();
    assert_eq!(spans, ends + rec_ends);
}

/// A run with telemetry attached consumes its own trace at `finish()`:
/// `take_trace` afterwards only returns what was recorded outside runs.
#[test]
fn telemetry_attached_runs_consume_their_trace() {
    let a = alrescha_sparse::Alf::from_coo(
        &alrescha_sparse::gen::stencil27(3),
        8,
        alrescha_sparse::alf::AlfLayout::Streaming,
    )
    .expect("layout");
    let x = vec![1.0; a.cols()];

    let tele = Telemetry::new();
    let mut engine = Engine::new(SimConfig::paper());
    engine.set_telemetry(Some(Arc::clone(&tele)));
    engine.run_spmv(&a, &x).expect("clean run");
    assert!(
        engine.take_trace().is_empty(),
        "the run's events belong to the device timeline, not take_trace"
    );
    let text = export_chrome_trace(&tele);
    let doc = Value::parse(&text).expect("valid JSON");
    validate_chrome_trace(&doc).expect("schema-valid trace");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The deterministic metrics slice is bit-identical across two
    /// identical runs, whatever the workload shape or worker count.
    #[test]
    fn deterministic_metrics_are_bit_identical(
        n in 27usize..200,
        n_jobs in 1usize..6,
        workers in 1usize..4,
    ) {
        let snapshot = || {
            let tele = Telemetry::new();
            let fleet = instrumented_fleet(workers, &tele);
            let batch = fleet.run(spmv_jobs(n, n_jobs));
            prop_assert_eq!(batch.stats.failed, 0);
            Ok(tele.metrics().deterministic_json())
        };
        let first = snapshot()?;
        let second = snapshot()?;
        prop_assert_eq!(first, second);
    }
}
