//! The traced run's layer replay. Each call below goes into one layer's
//! public function and is wrapped in a span by this crate; nothing inside
//! the program is instrumented. Workloads whose timed loop does not pass
//! through a layer replay that layer on their own generated inputs, so a
//! traced run of any workload reports every per-layer metric.

use std::path::Path;

use alrescha::fleet::matrix_fingerprint;
use alrescha::{AcceleratedPcg, Alrescha, KernelType, ProgrammedKernel, SolverOptions};
use alrescha_lint::Preflight;
use alrescha_obs::flight::{self, FlightRecorder};
use alrescha_serve::{Frame, JobPayload, Journal, JournalRecord, TraceContext};
use alrescha_sim::PageRankConfig;
use alrescha_sparse::Coo;

use crate::serve::{self, Reference, RejectCounter};
use crate::trace::Tracer;
use crate::Metric;

/// Times each codec, journal and flight-recorder call is replayed per job.
const CODEC_REPS: usize = 4;
/// SpMV and SymGS calls replayed per job on a serve workload's system.
const SIM_REPS: usize = 10;
/// Device PageRank runs replayed on a serve workload's matrix.
const PAGERANK_REPS: usize = 3;

fn blocks(p: &ProgrammedKernel) -> u64 {
    p.matrix().blocks().len() as u64
}

/// Replays the per-job serve-path work outside the server: the matrix
/// fingerprint the conversion cache keys on, the submit frame codec, the
/// fsync'd journal accept and terminal appends, and flight-recorder syncs
/// (capacity 1024, as alserve's).
pub fn codec_journal_flight(
    tracer: &Tracer,
    jobs: &[JobPayload],
    dir: &Path,
) -> Result<(), String> {
    let mut journal =
        Journal::open(dir.join("replay.aljl")).map_err(|e| format!("open journal: {e}"))?;
    let recorder = FlightRecorder::new(1024);
    let flight_path = dir.join("replay.alfr");
    let mut id = 0u64;
    for _ in 0..CODEC_REPS {
        for job in jobs {
            id += 1;
            tracer.span(
                "fleet.fingerprint",
                id,
                || std::hint::black_box(matrix_fingerprint(&job.matrix)),
                |_| 0,
            );
            let frame = Frame::Submit {
                tenant: "replay".to_owned(),
                job: job.clone(),
                trace: TraceContext::default(),
            };
            let bytes = tracer.span(
                "protocol.submit_encode",
                id,
                || frame.encode(),
                |b| b.len() as u64,
            );
            let back = tracer
                .span(
                    "protocol.submit_decode",
                    id,
                    || Frame::decode(&bytes),
                    |_| 0,
                )
                .map_err(|e| format!("decode submit: {e}"))?;
            if back != frame {
                return Err("submit frame changed in an encode/decode round trip".to_owned());
            }
            tracer
                .span(
                    "journal.accept",
                    id,
                    || journal.accept(id, "replay", job),
                    |_| 0,
                )
                .map_err(|e| format!("journal accept: {e}"))?;
            recorder.record(flight::EV_JOURNAL_ACCEPT, 0, id, "replay");
            tracer
                .span("flight.sync", id, || recorder.sync_to(&flight_path), |_| 0)
                .map_err(|e| format!("flight sync: {e}"))?;
            let done = JournalRecord::Completed {
                job_id: id,
                fingerprint: id,
                iterations: 0,
                residual: 0.0,
                converged: true,
            };
            tracer
                .span("journal.terminal", id, || journal.terminal(&done), |_| 0)
                .map_err(|e| format!("journal terminal: {e}"))?;
            recorder.record(flight::EV_JOURNAL_TERMINAL, 0, id, "replay");
            tracer
                .span("flight.sync", id, || recorder.sync_to(&flight_path), |_| 0)
                .map_err(|e| format!("flight sync: {e}"))?;
        }
    }
    Ok(())
}

pub struct Solve {
    /// Blocks produced by every conversion of the replay.
    pub convert_blocks: u64,
    /// PCG iterations of every replayed solve.
    pub iterations: u64,
}

/// Replays each job through conversion, preflight, a checkpointing PCG
/// solve, and checkpoint writes; with `sim`, also one SpMV and one SymGS
/// on the job's system.
pub fn solve(tracer: &Tracer, jobs: &[JobPayload], dir: &Path, sim: bool) -> Result<Solve, String> {
    let mut acc = Alrescha::with_paper_config();
    let mut s = Solve {
        convert_blocks: 0,
        iterations: 0,
    };
    for (k, job) in jobs.iter().enumerate() {
        let id = k as u64;
        let mut programs = Vec::with_capacity(2);
        for kernel in [KernelType::SpMv, KernelType::SymGs] {
            let p = tracer
                .span(
                    "convert",
                    id,
                    || acc.program(kernel, &job.matrix),
                    |r| r.as_ref().map_or(0, blocks),
                )
                .map_err(|e| format!("convert {kernel:?}: {e}"))?;
            s.convert_blocks += blocks(&p);
            tracer
                .span("lint.preflight", id, || acc.preflight(&p), |_| blocks(&p))
                .map_err(|e| format!("preflight {kernel:?}: {e}"))?;
            programs.push(p);
        }
        let symgs = programs.pop().expect("two programs");
        let spmv = programs.pop().expect("two programs");
        let pcg = AcceleratedPcg::from_programs(spmv.clone(), symgs.clone())
            .map_err(|e| format!("pcg: {e}"))?;
        let opts = SolverOptions {
            tol: job.tol,
            max_iters: job.max_iters as usize,
        };
        // Checkpoint at alserve's cadence, or once per solve when the
        // job's iteration cap is below it, so every workload writes some.
        let every = (job.max_iters as usize).clamp(1, 8);
        let mut ckpts = Vec::new();
        let outcome = tracer
            .span(
                "solver.pcg_solve",
                id,
                || {
                    pcg.solve_with_checkpoints(&mut acc, &job.b, &opts, every, &mut |c| {
                        ckpts.push(c)
                    })
                },
                |_| 0,
            )
            .map_err(|e| format!("pcg solve: {e}"))?;
        s.iterations += outcome.iterations as u64;
        let path = dir.join(format!("replay-{id}.ckpt"));
        for c in &ckpts {
            tracer
                .span("checkpoint.write", id, || c.write_to_path(&path), |_| 0)
                .map_err(|e| format!("checkpoint write: {e}"))?;
        }
        if sim {
            for _ in 0..SIM_REPS {
                tracer
                    .span(
                        "sim.spmv",
                        id,
                        || acc.spmv(&spmv, &job.b),
                        |r| r.as_ref().map_or(0, |(_, rep)| rep.datapaths.gemv_blocks),
                    )
                    .map_err(|e| format!("spmv: {e}"))?;
                let mut x = vec![0.0; job.b.len()];
                tracer
                    .span(
                        "sim.symgs",
                        id,
                        || acc.symgs(&symgs, &job.b, &mut x),
                        |r| {
                            r.as_ref().map_or(0, |rep| {
                                rep.datapaths.gemv_blocks + rep.datapaths.dsymgs_blocks
                            })
                        },
                    )
                    .map_err(|e| format!("symgs: {e}"))?;
            }
        }
    }
    Ok(s)
}

/// The matrix's off-diagonal pattern as a weighted graph.
pub fn graph_of(a: &Coo) -> Coo {
    let mut g = Coo::new(a.rows(), a.cols());
    for &(r, c, v) in a.entries() {
        if r != c {
            g.push(r, c, v.abs());
        }
    }
    g
}

/// Device PageRank on `graph`.
pub fn pagerank(tracer: &Tracer, graph: &Coo) -> Result<(), String> {
    let mut acc = Alrescha::with_paper_config();
    let prog = acc
        .program(KernelType::PageRank, graph)
        .map_err(|e| format!("program pagerank: {e}"))?;
    for r in 0..PAGERANK_REPS {
        tracer
            .span(
                "sim.pagerank",
                r as u64,
                || acc.pagerank(&prog, &PageRankConfig::default()),
                |res| {
                    res.as_ref()
                        .map_or(0, |(_, rep)| rep.datapaths.graph_blocks)
                },
            )
            .map_err(|e| format!("pagerank: {e}"))?;
    }
    Ok(())
}

/// Submits each job once to a fresh in-process server and waits for it,
/// checking its fingerprint against `refs`. Returns rejections per job.
pub fn server_round_trip(
    tracer: &Tracer,
    jobs: &[JobPayload],
    refs: &[Reference],
    dir: &Path,
    seed: u64,
) -> Result<f64, String> {
    let srv = serve::start_server(&dir.join("server"))?;
    let rejects = RejectCounter::default();
    let mut c = serve::client(&srv.addr, seed);
    for (k, (job, want)) in jobs.iter().zip(refs).enumerate() {
        let id = tracer
            .span("client.submit", k as u64, || c.submit("replay", job), |_| 0)
            .map_err(|e| format!("submit: {e}"))?;
        let got = tracer
            .span("client.wait", k as u64, || c.wait(id), |_| 0)
            .map_err(|e| format!("wait: {e}"))?;
        if got.solution_fingerprint != want.fingerprint {
            return Err(format!(
                "served job {k} does not match Fleet::run_sequential"
            ));
        }
        rejects.poll(&srv.flight);
    }
    drop(c);
    srv.handle.stop();
    rejects.per_job(jobs.len())
}

/// Per-layer metrics every workload derives the same way from its spans.
pub fn common_metrics(
    tracer: &Tracer,
    solve: &Solve,
    fleet_hit_ratio: f64,
    fleet_cached: usize,
) -> Result<Vec<Metric>, String> {
    let ms = |n: &str| tracer.median_ms(n);
    Ok(vec![
        Metric::new(
            "convert.ns_per_block",
            tracer.ns_per_work("convert")?,
            "ns/block",
        ),
        Metric::new("convert.blocks", solve.convert_blocks as f64, "blocks"),
        Metric::new(
            "lint.preflight_ns_per_block",
            tracer.ns_per_work("lint.preflight")?,
            "ns/block",
        ),
        Metric::new("solver.pcg_solve_ms", ms("solver.pcg_solve")?, "ms"),
        Metric::new("fleet.fingerprint_ms", ms("fleet.fingerprint")?, "ms"),
        Metric::new("fleet.cache_hit_ratio", fleet_hit_ratio, "ratio"),
        Metric::new("fleet.cached_programs", fleet_cached as f64, "count"),
        Metric::new(
            "protocol.submit_encode_ms",
            ms("protocol.submit_encode")?,
            "ms",
        ),
        Metric::new(
            "protocol.submit_decode_ms",
            ms("protocol.submit_decode")?,
            "ms",
        ),
        Metric::new(
            "protocol.submit_bytes",
            tracer.median_work("protocol.submit_encode")?,
            "bytes",
        ),
        Metric::new("journal.accept_ms", ms("journal.accept")?, "ms"),
        Metric::new("journal.terminal_ms", ms("journal.terminal")?, "ms"),
        Metric::new("checkpoint.write_ms", ms("checkpoint.write")?, "ms"),
        Metric::new("flight.sync_ms", ms("flight.sync")?, "ms"),
        Metric::new("client.wait_ms", ms("client.wait")?, "ms"),
    ])
}
