//! engine_mix: the in-process simulator user. A fixed seeded suite is
//! programmed and preflighted once (the set-up), then one thread runs a
//! closed loop over a fixed list of SpMV, SymGS and PageRank calls. Each
//! output is checked against the `alrescha_kernels` CPU references
//! outside the timed call.

use std::time::{Duration, Instant};

use alrescha::{Alrescha, KernelType, ProgrammedKernel};
use alrescha_kernels::graph::PageRankOptions;
use alrescha_lint::Preflight;
use alrescha_serve::JobPayload;
use alrescha_sim::{ExecutionReport, PageRankConfig};
use alrescha_sparse::{approx_eq, Csr};

use crate::calib::{Probe, SpeedLog};
use crate::inputs::{self, Suite};
use crate::stats::{self, DeviceCounts, Samples};
use crate::trace::{Span, Tracer};
use crate::{layers, sample_cap, serve, Args, Metric, Outcome, ScratchDir, MIN_SAMPLES};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Relative tolerance of SpMV and SymGS against the CPU kernels (the
/// device reduces each block row in stream order, so the last bits may
/// differ from the CSR reference).
const LINEAR_TOL: f64 = 1e-9;
/// Tolerance of device PageRank against the CPU power iteration.
const PAGERANK_TOL: f64 = 1e-6;

/// One entry of the fixed call list.
#[derive(Debug, Clone, Copy)]
enum Call {
    SpmvStencil,
    SymgsStencil,
    SpmvEcon,
    SymgsEcon,
    PageRank,
}

const CALLS: [Call; 5] = [
    Call::SpmvStencil,
    Call::SymgsStencil,
    Call::SpmvEcon,
    Call::SymgsEcon,
    Call::PageRank,
];

impl Call {
    fn span(self) -> &'static str {
        match self {
            Call::SpmvStencil | Call::SpmvEcon => "sim.spmv",
            Call::SymgsStencil | Call::SymgsEcon => "sim.symgs",
            Call::PageRank => "sim.pagerank",
        }
    }
}

struct Programs {
    acc: Alrescha,
    spmv_stencil: ProgrammedKernel,
    symgs_stencil: ProgrammedKernel,
    spmv_econ: ProgrammedKernel,
    symgs_econ: ProgrammedKernel,
    pagerank: ProgrammedKernel,
}

/// The program's one-time work: Algorithm-1 conversion of every suite
/// program followed by the alverify preflight of each.
fn program_suite(s: &Suite) -> Result<Programs, String> {
    let mut acc = Alrescha::with_paper_config();
    let mut program = |k: KernelType, a| {
        let p = acc
            .program(k, a)
            .map_err(|e| format!("program {k:?}: {e}"))?;
        Ok::<_, String>(p)
    };
    let spmv_stencil = program(KernelType::SpMv, &s.stencil)?;
    let symgs_stencil = program(KernelType::SymGs, &s.stencil)?;
    let spmv_econ = program(KernelType::SpMv, &s.econ)?;
    let symgs_econ = program(KernelType::SymGs, &s.econ)?;
    let pagerank = program(KernelType::PageRank, &s.graph)?;
    for p in [
        &spmv_stencil,
        &symgs_stencil,
        &spmv_econ,
        &symgs_econ,
        &pagerank,
    ] {
        acc.preflight(p)
            .map_err(|e| format!("preflight {:?}: {e}", p.kernel()))?;
    }
    Ok(Programs {
        acc,
        spmv_stencil,
        symgs_stencil,
        spmv_econ,
        symgs_econ,
        pagerank,
    })
}

/// CPU reference outputs of the call list, in call-list order.
fn references(s: &Suite) -> Result<Vec<Vec<f64>>, String> {
    let st = Csr::from_coo(&s.stencil);
    let ec = Csr::from_coo(&s.econ);
    let symgs = |a: &Csr, b: &[f64], x0: &[f64]| {
        let mut x = x0.to_vec();
        alrescha_kernels::symgs::symgs(a, b, &mut x).map(|()| x)
    };
    let pr = PageRankConfig::default();
    let (ranks, _) = alrescha_kernels::graph::pagerank(
        &Csr::from_coo(&s.graph),
        &PageRankOptions {
            damping: pr.damping,
            tol: pr.tol,
            max_iters: pr.max_iters,
        },
    )
    .map_err(|e| format!("cpu pagerank: {e}"))?;
    Ok(vec![
        alrescha_kernels::spmv::spmv(&st, &s.x_stencil),
        symgs(&st, &s.b_stencil, &s.x_stencil).map_err(|e| format!("cpu symgs: {e}"))?,
        alrescha_kernels::spmv::spmv(&ec, &s.x_econ),
        symgs(&ec, &s.b_econ, &s.x_econ).map_err(|e| format!("cpu symgs: {e}"))?,
        ranks,
    ])
}

/// Runs one call; returns its output, report and host time inside it.
fn call(
    p: &mut Programs,
    s: &Suite,
    c: Call,
    x: &mut Vec<f64>,
) -> Result<(ExecutionReport, Duration), String> {
    let pr = PageRankConfig::default();
    // Operands are staged before the clock starts.
    match c {
        Call::SymgsStencil => x.clone_from(&s.x_stencil),
        Call::SymgsEcon => x.clone_from(&s.x_econ),
        _ => {}
    }
    let t = Instant::now();
    let out = match c {
        Call::SpmvStencil => p.acc.spmv(&p.spmv_stencil, &s.x_stencil).map(|(y, r)| {
            *x = y;
            r
        }),
        Call::SpmvEcon => p.acc.spmv(&p.spmv_econ, &s.x_econ).map(|(y, r)| {
            *x = y;
            r
        }),
        Call::SymgsStencil => p.acc.symgs(&p.symgs_stencil, &s.b_stencil, x),
        Call::SymgsEcon => p.acc.symgs(&p.symgs_econ, &s.b_econ, x),
        Call::PageRank => p.acc.pagerank(&p.pagerank, &pr).map(|(ranks, r)| {
            *x = ranks;
            r
        }),
    };
    let dt = t.elapsed();
    out.map(|r| (r, dt)).map_err(|e| format!("{c:?}: {e}"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let suite = inputs::engine_suite(args.seed);
    let refs = references(&suite)?;
    let tracer = Tracer::new(args.trace);
    let speed = SpeedLog::new();
    let mut probe = Probe::new();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut programs = None;
    for _ in 0..SETUP_REPS {
        speed.probe(&mut probe);
        let t = Instant::now();
        let p = program_suite(&suite)?;
        setup.push((t, Instant::now()));
        speed.probe(&mut probe);
        programs = Some(p);
    }
    let mut p = programs.expect("SETUP_REPS > 0");

    // One untimed round lets the modelled cache and the host settle; the
    // device counts of every timed round must then equal the first's.
    let mut x = Vec::new();
    for c in CALLS {
        speed.probe(&mut probe);
        call(&mut p, &suite, c, &mut x)?;
    }

    let mut expected: Option<Vec<DeviceCounts>> = None;
    // Per round: start, end, and the host time of each call.
    let mut rounds: Vec<(Instant, Instant, Vec<Duration>)> = Vec::new();
    let mut blocks = 0u64;
    let seconds = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    while started.elapsed() < seconds || rounds.len() < MIN_SAMPLES {
        if started.elapsed() > sample_cap(seconds) {
            return Err(format!(
                "only {} rounds in {:?}; p90 needs {MIN_SAMPLES}",
                rounds.len(),
                started.elapsed()
            ));
        }
        let round = rounds.len() as u64;
        let begun = Instant::now();
        let mut counts = Vec::with_capacity(CALLS.len());
        let mut dts = Vec::with_capacity(CALLS.len());
        for (i, c) in CALLS.into_iter().enumerate() {
            out.attempted += 1;
            let (report, dt) = match call(&mut p, &suite, c, &mut x) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("albench: engine_mix: {e}");
                    out.failed += 1;
                    dts.push(Duration::ZERO);
                    continue;
                }
            };
            let tol = if matches!(c, Call::PageRank) {
                PAGERANK_TOL
            } else {
                LINEAR_TOL
            };
            if !approx_eq(&x, &refs[i], tol) {
                eprintln!("albench: engine_mix: {c:?} output differs from the CPU reference");
                out.failed += 1;
            }
            let dc = DeviceCounts::of(&report);
            tracer.record(Span {
                name: c.span(),
                job: round,
                start_ns: tracer.start_ns(Instant::now() - dt),
                dur_ns: dt.as_nanos() as u64,
                work: dc.blocks(),
            });
            blocks += dc.blocks();
            dts.push(dt);
            counts.push(dc);
            speed.probe(&mut probe);
        }
        rounds.push((begun, Instant::now(), dts));
        match &expected {
            None => expected = Some(counts),
            Some(e) if *e != counts => {
                eprintln!("albench: engine_mix: round {round} device counts differ from round 0");
                out.correct = false;
            }
            Some(_) => {}
        }
    }
    let ended = Instant::now();
    let rss = stats::peak_rss_mb()?;
    let mut device = DeviceCounts::default();
    for c in expected.iter().flatten() {
        device.add(c);
    }

    // Host samples, raw and scaled to the reference host speed.
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut raw = Samples::default();
    let mut norm = Samples::default();
    for (a, b) in &setup {
        let f = speed.factor(*a, *b);
        raw.setup.push((*b - *a).as_secs_f64());
        norm.setup.push((*b - *a).as_secs_f64() * f);
    }
    let mut call_ms: Vec<Vec<f64>> = vec![Vec::new(); CALLS.len()];
    let (mut engine_ms, mut engine_norm_ms) = (0.0, 0.0);
    for (a, b, dts) in &rounds {
        let f = speed.factor(*a, *b);
        let total: f64 = dts.iter().map(|d| ms(*d)).sum();
        raw.e2e.push(total);
        norm.e2e.push(total * f);
        raw.ack.push(ms(dts[0]));
        norm.ack.push(ms(dts[0]) * f);
        engine_ms += total;
        engine_norm_ms += total * f;
        for (i, d) in dts.iter().enumerate() {
            call_ms[i].push(ms(*d));
        }
    }
    // Closed-loop rate: each round's wall time runs to the next round's
    // start (output checks and probes included), scaled like its latency.
    let (mut wall, mut norm_wall) = (0.0, 0.0);
    for (k, (a, _, _)) in rounds.iter().enumerate() {
        let b = rounds.get(k + 1).map_or(ended, |r| r.0);
        wall += (b - *a).as_secs_f64();
        norm_wall += (b - *a).as_secs_f64() * speed.factor(*a, b);
    }
    raw.jobs_per_s = rounds.len() as f64 / wall;
    norm.jobs_per_s = rounds.len() as f64 / norm_wall;
    raw.blocks_per_s = blocks as f64 / (engine_ms / 1e3);
    norm.blocks_per_s = blocks as f64 / (engine_norm_ms / 1e3);

    out.notes.push(format!(
        "job = one pass over the {}-call list; ack = its first call's reply",
        CALLS.len()
    ));
    out.notes.push(raw.describe("raw host (unscaled)", &speed));
    out.e2e = norm.metrics(rss, out.ok_ratio(), device.cycles)?;

    if tracer.on() {
        out.layers = traced_layers(args, &suite, &tracer, &device, &raw, &norm, &call_ms)?;
        out.notes.push(tracer.summary());
        out.trace = Some(tracer);
    }
    Ok(out)
}

/// Per-layer metrics of a traced run: the sim spans come from the timed
/// loop above; the other layers are replayed on the suite's two SPD
/// systems as 8-iteration PCG jobs.
fn traced_layers(
    args: &Args,
    s: &Suite,
    tracer: &Tracer,
    device: &DeviceCounts,
    raw: &Samples,
    norm: &Samples,
    call_ms: &[Vec<f64>],
) -> Result<Vec<Metric>, String> {
    let dir = ScratchDir::new("engine_mix")?;
    let jobs: Vec<JobPayload> = [(&s.stencil, &s.b_stencil), (&s.econ, &s.b_econ)]
        .into_iter()
        .map(|(a, b)| JobPayload {
            matrix: a.clone(),
            b: b.clone(),
            tol: 1e-10,
            max_iters: 8,
            priority: 0,
        })
        .collect();
    layers::codec_journal_flight(tracer, &jobs, dir.path())?;
    let solve = layers::solve(tracer, &jobs, dir.path(), false)?;
    let refs = serve::references(&jobs)?;
    let station = serve::station_pass(&jobs, &crate::calib::SpeedLog::new())?;
    let rejected = layers::server_round_trip(tracer, &jobs, &refs, dir.path(), args.seed)?;

    let mut m = layers::common_metrics(
        tracer,
        &solve,
        serve::hit_ratio(&station.first),
        station.cached_programs,
    )?;
    m.push(Metric::new(
        "solver.iterations",
        solve.iterations as f64,
        "iterations",
    ));
    m.push(Metric::new("server.rejected_per_job", rejected, "ratio"));
    device.metrics(&mut m);
    for (name, span) in [
        ("sim.spmv_ns_per_block", "sim.spmv"),
        ("sim.symgs_ns_per_block", "sim.symgs"),
        ("sim.pagerank_ns_per_block", "sim.pagerank"),
    ] {
        m.push(Metric::new(name, tracer.ns_per_work(span)?, "ns/block"));
    }
    // No serve path here: the residual is the gap between the median
    // round and the sum of the median calls.
    let calls: f64 = call_ms.iter().map(|v| stats::median(v)).sum();
    m.push(Metric::new(
        "serve.unattributed_ms",
        stats::median(&raw.e2e) - calls,
        "ms",
    ));
    m.push(Metric::new(
        "traced.e2e_p50_ms",
        stats::median(&norm.e2e),
        "ms",
    ));
    m.push(Metric::new("traced.jobs_per_s", norm.jobs_per_s, "1/s"));
    Ok(m)
}
