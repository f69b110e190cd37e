//! serve_repeat and serve_cold: alserve over loopback TCP with an
//! in-process server (one worker, a fresh data directory on the disk the
//! benchmark runs from) and two closed-loop clients on two connections
//! and two tenants. Each client submits, waits for the result, and only
//! then submits again, as `alserve solve` and `Client::submit`→`wait` do.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobOutput, JobRecord, JobSpec};
use alrescha::SolverOptions;
use alrescha_obs::flight::{self, FlightRecorder};
use alrescha_serve::{
    Bind, Client, JobPayload, RetryPolicy, Server, ServerConfig, ServerHandle, SolveResult,
};

use crate::calib::{Probe, SpeedLog};
use crate::inputs::{self, sub_seed, COLD_JOBS, REPEAT_JOBS};
use crate::stats::{self, DeviceCounts, Samples};
use crate::trace::{Span, Tracer};
use crate::{layers, sample_cap, Args, Metric, Outcome, ScratchDir, MIN_SAMPLES};

/// Closed-loop clients (two connections, two tenants).
const CLIENTS: usize = 2;
/// serve_repeat set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The server's checkpoint cadence (its default), used to count the
/// checkpoint writes on a job's critical path.
const CHECKPOINT_EVERY: u64 = 8;
/// Jobs replayed through each layer in a traced run.
const REPLAY_JOBS: usize = 3;

pub struct Running {
    pub handle: ServerHandle,
    pub flight: Arc<FlightRecorder>,
    pub addr: String,
}

pub fn start_server(dir: &Path) -> Result<Running, String> {
    let flight = Arc::new(FlightRecorder::new(1024));
    let config = ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_owned()),
        data_dir: dir.to_path_buf(),
        workers: 1,
        flight: Arc::clone(&flight),
        ..ServerConfig::default()
    };
    let handle = Server::new(config)
        .start()
        .map_err(|e| format!("start server in {}: {e}", dir.display()))?;
    let addr = handle.addr().to_owned();
    Ok(Running {
        handle,
        flight,
        addr,
    })
}

pub fn client(addr: &str, seed: u64) -> Client {
    Client::tcp(
        addr,
        RetryPolicy {
            deadline: Duration::from_secs(120),
            seed,
            ..RetryPolicy::default()
        },
    )
}

/// Counts the server's rejections (`EV_REJECT_*` flight events) by
/// polling its flight recorder after every job.
#[derive(Default)]
pub struct RejectCounter {
    next_seq: Mutex<u64>,
    count: AtomicU64,
    lost: AtomicBool,
}

impl RejectCounter {
    pub fn poll(&self, flight: &FlightRecorder) {
        let mut next = self.next_seq.lock().expect("reject counter poisoned");
        let snap = flight.snapshot();
        if snap.first().is_some_and(|r| r.seq > *next) {
            self.lost.store(true, Ordering::Relaxed);
        }
        for r in snap.iter().filter(|r| r.seq >= *next) {
            if (flight::EV_REJECT_SANITY..=flight::EV_REJECT_STORAGE).contains(&r.code) {
                self.count.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(last) = snap.last() {
            *next = last.seq + 1;
        }
    }

    pub fn per_job(&self, jobs: usize) -> Result<f64, String> {
        if self.lost.load(Ordering::Relaxed) {
            return Err("flight ring wrapped between polls; rejections uncounted".to_owned());
        }
        Ok(stats::ratio(
            self.count.load(Ordering::Relaxed),
            jobs as u64,
        ))
    }
}

/// One timed job as the client saw it.
pub struct Sample {
    /// Index into the job list.
    pub idx: usize,
    /// Submit call made.
    pub sent: Instant,
    /// `Accepted` received.
    pub acked: Instant,
    /// `Done` (or the failure) received.
    pub done: Instant,
    pub result: Result<SolveResult, String>,
}

/// A closed-loop phase: start, end, and time its clients spent paused.
type Span3 = (Instant, Instant, Duration);

enum Stop {
    /// Run for `secs` and at least `min` jobs; give up at `cap`.
    Deadline {
        secs: Duration,
        min: usize,
        cap: Duration,
    },
    /// Run exactly `n` jobs.
    Count(usize),
}

/// Interval between the closed loop's quiet pauses.
const QUIET_EVERY: Duration = Duration::from_millis(250);
/// Speed probes run in each quiet pause.
const QUIET_PROBES: usize = 3;

/// Pauses the closed loop between jobs so the speed probe runs while the
/// server is idle. A probe timed beside the busy server worker measures
/// how much the worker contends with the probe's vCPU, which changes with
/// where the host places the vCPUs, not the speed the jobs run at.
struct Quiet {
    state: Mutex<QuietState>,
    cv: Condvar,
}

struct QuietState {
    requested: bool,
    paused: usize,
    active: usize,
    generation: u64,
}

impl Quiet {
    fn new(active: usize) -> Self {
        Quiet {
            state: Mutex::new(QuietState {
                requested: false,
                paused: 0,
                active,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QuietState> {
        self.state.lock().expect("quiet state poisoned")
    }

    /// A client between jobs: blocks while a pause is in progress.
    fn between_jobs(&self) {
        let mut s = self.lock();
        if !s.requested {
            return;
        }
        s.paused += 1;
        self.cv.notify_all();
        let generation = s.generation;
        let _resumed = self
            .cv
            .wait_while(s, |s| s.generation == generation)
            .expect("quiet state poisoned");
    }

    /// A client that has finished its share of the loop.
    fn leave(&self) {
        self.lock().active -= 1;
        self.cv.notify_all();
    }

    /// Waits [`QUIET_EVERY`], pauses every active client between jobs,
    /// runs `f`, and resumes them. Returns how long the clients were
    /// paused, or `None` once every client has left.
    fn pause(&self, f: impl FnOnce()) -> Option<Duration> {
        let s = self.lock();
        let (mut s, _) = self
            .cv
            .wait_timeout_while(s, QUIET_EVERY, |s| s.active > 0)
            .expect("quiet state poisoned");
        if s.active == 0 {
            return None;
        }
        s.requested = true;
        s = self
            .cv
            .wait_while(s, |s| s.paused < s.active)
            .expect("quiet state poisoned");
        if s.active == 0 {
            return None;
        }
        let t = Instant::now();
        f();
        let paused = t.elapsed();
        s.requested = false;
        s.paused = 0;
        s.generation += 1;
        self.cv.notify_all();
        Some(paused)
    }
}

/// Submit-and-wait loop of [`CLIENTS`] threads against `srv` over the
/// job list `m.all[1..]`, probing host speed in quiet pauses. When job
/// `rss_at` completes, peak RSS is read into `m.rss`. Returns the samples
/// and the loop's start, end, and time spent paused.
fn closed_loop(
    srv: &Running,
    seed: u64,
    stop: &Stop,
    m: &Measured,
    rss_at: Option<usize>,
) -> (Vec<Sample>, Span3) {
    let (jobs, tracer) = (&m.all[1..], &m.tracer);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let barrier = Barrier::new(CLIENTS + 1);
    let quiet = Quiet::new(CLIENTS);
    let mut begun = None;
    let mut paused = Duration::ZERO;
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let (next, samples, barrier, quiet) = (&next, &samples, &barrier, &quiet);
            scope.spawn(move || {
                let mut c = client(&srv.addr, sub_seed(seed, 50 + t as u64));
                let tenant = format!("tenant-{t}");
                let _ = c.ping();
                barrier.wait();
                let begun = Instant::now();
                let mut mine = Vec::new();
                loop {
                    quiet.between_jobs();
                    let k = next.fetch_add(1, Ordering::SeqCst);
                    let done = match stop {
                        Stop::Count(n) => k >= *n,
                        Stop::Deadline { secs, min, cap } => {
                            let el = begun.elapsed();
                            (el >= *secs && k >= *min) || el >= *cap
                        }
                    };
                    if done {
                        break;
                    }
                    let idx = k % jobs.len();
                    let t0 = Instant::now();
                    let (acked, result) = match c.submit(&tenant, &jobs[idx]) {
                        Ok(id) => {
                            let tw = Instant::now();
                            let ack = tw - t0;
                            let r = c.wait(id).map_err(|e| e.to_string());
                            tracer.record(Span {
                                name: "client.submit",
                                job: k as u64,
                                start_ns: tracer.start_ns(t0),
                                dur_ns: ack.as_nanos() as u64,
                                work: 0,
                            });
                            tracer.record(Span {
                                name: "client.wait",
                                job: k as u64,
                                start_ns: tracer.start_ns(tw),
                                dur_ns: tw.elapsed().as_nanos() as u64,
                                work: 0,
                            });
                            (tw, r)
                        }
                        Err(e) => (Instant::now(), Err(e.to_string())),
                    };
                    let done = Instant::now();
                    if Some(k) == rss_at {
                        *m.rss.lock().expect("rss slot poisoned") = stats::peak_rss_mb().ok();
                    }
                    if tracer.on() {
                        m.rejects.poll(&srv.flight);
                    }
                    mine.push(Sample {
                        idx,
                        sent: t0,
                        acked,
                        done,
                        result,
                    });
                }
                samples.lock().expect("samples poisoned").extend(mine);
                quiet.leave();
            });
        }
        let mut probe = Probe::new();
        barrier.wait();
        begun = Some(Instant::now());
        while let Some(d) = quiet.pause(|| {
            for _ in 0..QUIET_PROBES {
                m.speed.probe(&mut probe);
            }
        }) {
            paused += d;
        }
    });
    let begun = begun.expect("the scope ran");
    (
        samples.into_inner().expect("samples poisoned"),
        (begun, Instant::now(), paused),
    )
}

/// A job's result and device counts from an in-process replay of the
/// job list: the `Fleet::run_sequential` reference or a station pass.
pub struct Reference {
    pub fingerprint: u64,
    pub iterations: u64,
    pub converged: bool,
    pub counts: DeviceCounts,
    pub run_time: Duration,
    /// `run_time` scaled to the reference host speed (station pass only).
    pub norm_run_s: f64,
    pub cache_hit: bool,
}

/// The spec alserve's worker builds for a submitted job.
fn spec_of(p: &JobPayload) -> JobSpec {
    JobSpec::new(
        p.matrix.clone(),
        JobKernel::Pcg {
            b: p.b.clone(),
            opts: SolverOptions {
                tol: p.tol,
                max_iters: usize::try_from(p.max_iters).unwrap_or(usize::MAX),
            },
        },
    )
    .with_checkpoint_every(CHECKPOINT_EVERY as usize)
}

fn reference_of(rec: JobRecord) -> Result<Reference, String> {
    let out = rec
        .result
        .map_err(|e| format!("reference job {}: {e}", rec.job))?;
    let JobOutput::Pcg { outcome } = &out else {
        return Err("reference job did not run PCG".to_owned());
    };
    Ok(Reference {
        fingerprint: out.solution_fingerprint(),
        iterations: outcome.iterations as u64,
        converged: outcome.converged,
        counts: DeviceCounts::of(out.report()),
        run_time: rec.run_time,
        norm_run_s: rec.run_time.as_secs_f64(),
        cache_hit: rec.cache_hit,
    })
}

/// The independent reference: `Fleet::run_sequential`, which converts
/// every job afresh, bypassing the conversion cache.
pub fn references(jobs: &[JobPayload]) -> Result<Vec<Reference>, String> {
    let fleet = Fleet::new(
        FleetConfig::default()
            .with_workers(1)
            .with_queue_capacity(jobs.len().max(1)),
    );
    let report = fleet.run_sequential(jobs.iter().map(spec_of).collect());
    report.jobs.into_iter().map(reference_of).collect()
}

/// The jobs run twice in order on one fleet station through its
/// conversion cache: first as alserve's worker runs them (conversion on
/// a miss), then again with every program cached, so that the second
/// pass times the engine's solve alone. Returns both passes and the
/// programs the cache holds at the end.
pub struct StationPass {
    pub first: Vec<Reference>,
    pub cached: Vec<Reference>,
    pub cached_programs: usize,
}

pub fn station_pass(jobs: &[JobPayload], speed: &SpeedLog) -> Result<StationPass, String> {
    let fleet = Fleet::new(FleetConfig::default().with_workers(1));
    let mut station = fleet.station(0);
    let mut probe = Probe::new();
    let mut pass = || {
        let mut timed = Vec::with_capacity(jobs.len());
        for (i, p) in jobs.iter().enumerate() {
            let spec = spec_of(p);
            speed.probe(&mut probe);
            let begun = Instant::now();
            let rec = fleet.execute_on(&mut station, i, &spec, Duration::ZERO);
            timed.push((begun, Instant::now(), reference_of(rec)?));
        }
        speed.probe(&mut probe);
        Ok::<_, String>(
            timed
                .into_iter()
                .map(|(a, b, mut r)| {
                    r.norm_run_s = r.run_time.as_secs_f64() * speed.factor(a, b);
                    r
                })
                .collect::<Vec<_>>(),
        )
    };
    let first = pass()?;
    let cached = pass()?;
    Ok(StationPass {
        first,
        cached,
        cached_programs: fleet.cached_programs(),
    })
}

/// Share of `refs` whose programs all came from the conversion cache.
pub fn hit_ratio(refs: &[Reference]) -> f64 {
    stats::ratio(
        refs.iter().filter(|r| r.cache_hit).count() as u64,
        refs.len() as u64,
    )
}

fn matches(r: &Result<SolveResult, String>, want: &Reference) -> bool {
    r.as_ref().is_ok_and(|got| {
        got.solution_fingerprint == want.fingerprint
            && got.iterations == want.iterations
            && got.converged == want.converged
    })
}

/// What a serve workload measured before verification.
struct Measured {
    /// Warm-up job followed by the job list; `samples[i].idx` indexes the
    /// list, so its reference is `all[idx + 1]`.
    all: Vec<JobPayload>,
    /// Start and end of each set-up.
    setup: Vec<(Instant, Instant)>,
    warm_results: Vec<Result<SolveResult, String>>,
    samples: Vec<Sample>,
    /// Start, end, and paused time of each closed-loop phase.
    loops: Vec<Span3>,
    /// Peak RSS once a fixed number of jobs has completed, so that it
    /// does not grow with the host speed.
    rss: Mutex<Option<f64>>,
    tracer: Tracer,
    rejects: RejectCounter,
    speed: SpeedLog,
    /// Whether every job converts its matrix on the server (cache miss).
    converts: bool,
    notes: Vec<String>,
}

/// Starts a server on a fresh data directory, connects, and runs the
/// warm-up job `m.all[0]`: the program's one-time work before the timed
/// phase.
fn set_up(dir: &Path, seed: u64, probe: &mut Probe, m: &mut Measured) -> Result<Running, String> {
    m.speed.probe(probe);
    let t = Instant::now();
    let srv = start_server(dir)?;
    let mut c = client(&srv.addr, seed);
    let r = c
        .submit("warmup", &m.all[0])
        .and_then(|id| c.wait(id))
        .map_err(|e| e.to_string());
    m.setup.push((t, Instant::now()));
    m.speed.probe(probe);
    m.warm_results.push(r);
    Ok(srv)
}

fn measured(all: Vec<JobPayload>, args: &Args, converts: bool) -> Measured {
    Measured {
        all,
        setup: Vec::new(),
        warm_results: Vec::new(),
        samples: Vec::new(),
        loops: Vec::new(),
        rss: Mutex::new(None),
        tracer: Tracer::new(args.trace),
        rejects: RejectCounter::default(),
        speed: SpeedLog::new(),
        converts,
        notes: Vec::new(),
    }
}

pub fn run_repeat(args: &Args) -> Result<Outcome, String> {
    let a = inputs::repeat_matrix();
    let mut all = vec![inputs::repeat_job(args.seed, &a, REPEAT_JOBS)];
    all.extend((0..REPEAT_JOBS).map(|i| inputs::repeat_job(args.seed, &a, i)));
    let dir = ScratchDir::new("serve_repeat")?;
    let mut m = measured(all, args, false);
    let mut probe = Probe::new();

    // Set-up: the warm-up job's conversion fills the cache every later
    // job hits. Repeated; the last server serves the timed phase.
    let mut live: Option<Running> = None;
    for rep in 0..SETUP_REPS {
        let dir = dir.path().join(format!("server-{rep}"));
        let srv = set_up(&dir, sub_seed(args.seed, 40), &mut probe, &mut m)?;
        if let Some(old) = live.replace(srv) {
            old.handle.stop();
        }
    }
    let srv = live.expect("SETUP_REPS > 0");
    let secs = Duration::from_secs_f64(args.seconds);
    let stop = Stop::Deadline {
        secs,
        min: MIN_SAMPLES,
        cap: sample_cap(secs),
    };
    let (samples, span) = closed_loop(&srv, args.seed, &stop, &m, Some(MIN_SAMPLES - 1));
    m.samples = samples;
    m.loops.push(span);
    srv.handle.stop();
    finish(&dir, m)
}

pub fn run_cold(args: &Args) -> Result<Outcome, String> {
    let mut all = vec![inputs::cold_job(args.seed, COLD_JOBS)];
    all.extend((0..COLD_JOBS).map(|i| inputs::cold_job(args.seed, i)));
    let dir = ScratchDir::new("serve_cold")?;
    let mut m = measured(all, args, true);
    let mut probe = Probe::new();

    // One server lifetime runs the fixed job list once, so the cache,
    // which never evicts, holds exactly COLD_JOBS + 1 matrices at its
    // peak whatever the host speed. Lifetimes repeat until the run has
    // lasted `--seconds` and collected enough samples; each one's start
    // and warm-up job is a set-up sample.
    let secs = Duration::from_secs_f64(args.seconds);
    let mut busy = Duration::ZERO;
    let mut round = 0u64;
    while busy < secs || m.samples.len() < MIN_SAMPLES {
        if busy > sample_cap(secs) {
            return Err(format!("only {} jobs in {busy:?}", m.samples.len()));
        }
        let round_dir = dir.path().join(format!("server-{round}"));
        let srv = set_up(
            &round_dir,
            sub_seed(args.seed, 40 + round),
            &mut probe,
            &mut m,
        )?;
        let (s, span) = closed_loop(&srv, args.seed ^ round, &Stop::Count(COLD_JOBS), &m, None);
        m.samples.extend(s);
        if round == 0 {
            // One lifetime's peak: the cache holds every distinct matrix.
            *m.rss.lock().expect("rss slot poisoned") = Some(stats::peak_rss_mb()?);
        }
        busy += span.1 - span.0 - span.2;
        m.loops.push(span);
        srv.handle.stop();
        let _ = std::fs::remove_dir_all(&round_dir);
        round += 1;
    }
    m.notes.push(format!(
        "{round} server lifetimes of {COLD_JOBS} distinct jobs each"
    ));
    finish(&dir, m)
}

/// Verifies every served result against its reference, checks that
/// device counts repeat, and computes the metrics.
fn finish(dir: &ScratchDir, m: Measured) -> Result<Outcome, String> {
    let refs = &references(&m.all)?;
    let station = station_pass(&m.all, &m.speed)?;
    let mut out = Outcome {
        correct: true,
        notes: m.notes,
        ..Outcome::default()
    };
    for (i, r) in m.warm_results.iter().enumerate() {
        if !matches(r, &refs[0]) {
            eprintln!(
                "albench: warm-up job {i} does not match its reference: {:?}",
                r.as_ref().err()
            );
            out.correct = false;
        }
    }
    // Device counts are exact: both station passes must reproduce every
    // reference job's counts and result bit for bit.
    for pass in [&station.first, &station.cached] {
        for (i, (a, b)) in pass.iter().zip(refs).enumerate() {
            if a.counts != b.counts || a.fingerprint != b.fingerprint {
                eprintln!("albench: job {i}: device counts differ between in-process runs");
                out.correct = false;
            }
        }
    }

    let speed = &m.speed;
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    let mut raw = Samples::default();
    let mut norm = Samples::default();
    for (a, b) in &m.setup {
        raw.setup.push((*b - *a).as_secs_f64());
        norm.setup
            .push((*b - *a).as_secs_f64() * speed.factor(*a, *b));
    }
    let mut ok = 0u64;
    for s in &m.samples {
        out.attempted += 1;
        if matches(&s.result, &refs[s.idx + 1]) {
            ok += 1;
            raw.e2e.push(ms(s.sent, s.done));
            norm.e2e
                .push(ms(s.sent, s.done) * speed.factor(s.sent, s.done));
            raw.ack.push(ms(s.sent, s.acked));
            norm.ack
                .push(ms(s.sent, s.acked) * speed.factor(s.sent, s.acked));
        } else {
            eprintln!(
                "albench: job {} does not match its reference: {:?}",
                s.idx,
                s.result.as_ref().err()
            );
            out.failed += 1;
        }
    }
    if ok == 0 {
        return Err("no job completed correctly".to_owned());
    }
    let wall: f64 = m
        .loops
        .iter()
        .map(|(a, b, p)| ms(*a, *b) / 1e3 - p.as_secs_f64())
        .sum();
    let norm_wall: f64 = m
        .loops
        .iter()
        .map(|(a, b, p)| (ms(*a, *b) / 1e3 - p.as_secs_f64()) * speed.factor(*a, *b))
        .sum();
    raw.jobs_per_s = ok as f64 / wall;
    norm.jobs_per_s = ok as f64 / norm_wall;

    let list = &refs[1..];
    let mut device = DeviceCounts::default();
    for r in list {
        device.add(&r.counts);
    }
    // The median job's engine rate: its blocks over the host time of its
    // solve, replayed in process on a fleet station with every program
    // cached. A median over the fixed job list is robust to a burst of
    // host noise during the short replay.
    let rate = |secs: fn(&Reference) -> f64| {
        let rates: Vec<f64> = station.cached[1..]
            .iter()
            .map(|r| r.counts.blocks() as f64 / secs(r))
            .collect();
        stats::median(&rates)
    };
    raw.blocks_per_s = rate(|r| r.run_time.as_secs_f64());
    norm.blocks_per_s = rate(|r| r.norm_run_s);

    out.notes.push(raw.describe("raw host (unscaled)", speed));
    let rss = m
        .rss
        .lock()
        .expect("rss slot poisoned")
        .ok_or("peak RSS was not read")?;
    out.e2e = norm.metrics(rss, out.ok_ratio(), device.cycles)?;

    if m.tracer.on() {
        let tracer = &m.tracer;
        let replay = &m.all[1..=REPLAY_JOBS];
        layers::codec_journal_flight(tracer, replay, dir.path())?;
        let solve = layers::solve(tracer, replay, dir.path(), true)?;
        layers::pagerank(tracer, &layers::graph_of(&replay[0].matrix))?;
        let mut l = layers::common_metrics(
            tracer,
            &solve,
            hit_ratio(&station.first),
            station.cached_programs,
        )?;
        let iterations: u64 = list.iter().map(|r| r.iterations).sum();
        l.push(Metric::new(
            "solver.iterations",
            iterations as f64,
            "iterations",
        ));
        l.push(Metric::new(
            "server.rejected_per_job",
            m.rejects.per_job(m.samples.len())?,
            "ratio",
        ));
        device.metrics(&mut l);
        for (name, span) in [
            ("sim.spmv_ns_per_block", "sim.spmv"),
            ("sim.symgs_ns_per_block", "sim.symgs"),
            ("sim.pagerank_ns_per_block", "sim.pagerank"),
        ] {
            l.push(Metric::new(name, tracer.ns_per_work(span)?, "ns/block"));
        }
        // The job's critical path through the layers the replay timed;
        // what remains of the median job is queueing and hand-off.
        let ckpts: Vec<f64> = list
            .iter()
            .map(|r| (r.iterations / CHECKPOINT_EVERY) as f64)
            .collect();
        let med = |n: &str| tracer.median_ms(n);
        let mut path = med("protocol.submit_encode")?
            + med("protocol.submit_decode")?
            + med("journal.accept")?
            + med("journal.terminal")?
            + 2.0 * med("flight.sync")?
            + med("fleet.fingerprint")?
            + med("solver.pcg_solve")?
            + stats::median(&ckpts) * med("checkpoint.write")?;
        if m.converts {
            path += 2.0 * med("convert")?;
        }
        let e2e50 = stats::median(&raw.e2e);
        l.push(Metric::new("serve.unattributed_ms", e2e50 - path, "ms"));
        l.push(Metric::new(
            "traced.e2e_p50_ms",
            stats::median(&norm.e2e),
            "ms",
        ));
        l.push(Metric::new("traced.jobs_per_s", norm.jobs_per_s, "1/s"));
        out.layers = l;
        out.notes.push(tracer.summary());
    }
    if m.tracer.on() {
        out.trace = Some(m.tracer);
    }
    Ok(out)
}
