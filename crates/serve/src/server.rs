//! The `alserve` daemon: durable admission, checkpointed execution,
//! crash recovery, breaker-backed degradation, and graceful drain.
//!
//! # Life of a job
//!
//! ```text
//!  Submit ──► quota? ──► queue room? ──► storage ok? ──► journal.accept (fsync)
//!                                                                  │
//!            Accepted ◄── flight dump covering the accept (waits) ◄┤
//!                                                                  │
//!   worker dequeues ◄── queue ◄────────────────────────────────────┘
//!        │
//!        ├── breaker gate: Device → on-device │ Probe → one probe job
//!        │                 Cpu → pinned to the host backend
//!        ├── checkpoint every N iterations: encode, hand the bytes to the
//!        │   durability writer (latest wins per job), Progress to waiters
//!        └── terminal → journal.terminal (fsync) → cancel the job's
//!            pending checkpoint → unlink job-<id>.ckpt → Done/Failed to
//!            waiters → request a flight dump (does not wait)
//!
//!  durability writer (one thread): flight dumps first, one dump for every
//!  request pending; then checkpoints → data_dir/job-<id>.ckpt
//!  (atomic: temp + fsync + rename)
//! ```
//!
//! The worker's only fsync on a fault-free job is the terminal journal
//! record. Checkpoints and the terminal flight dump are asynchronous: a
//! crash may lose the newest checkpoint (recovery resumes from an older
//! one, or from iteration 0) and the dump may lag the journal by the jobs
//! that settled since the last dump. The accept dump stays synchronous.
//!
//! # Recovery state machine (per job, evaluated at startup)
//!
//! ```text
//!  [no journal record]      → not owed: the client never saw Accepted
//!  [Accepted only]          → owed: re-enqueue; resume from the newest
//!                             intact checkpoint file, else iteration 0
//!  [Accepted + terminal]    → settled: nothing to do
//! ```
//!
//! Resume is bit-identical in the solution fields
//! ([`alrescha::fleet::JobOutput::solution_fingerprint`]), so a client
//! that reconnects after a server crash observes the same answer it would
//! have gotten from an uninterrupted run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alrescha::breaker::{BackendChoice, BreakerConfig, SharedBreaker};
use alrescha::checkpoint::{write_atomic_with, SolverCheckpoint};
use alrescha::convert::{convert, KernelType};
use alrescha::fleet::{
    backpressure_ramp, Fleet, FleetConfig, JobKernel, JobOutput, JobSpec, Station,
};
use alrescha::storage::{RealStorage, StorageIo};
use alrescha::SolverOptions;
use alrescha_lint::analyze_table;
use alrescha_obs::flight::{self, FlightRecorder};
use alrescha_obs::{json, FrameError, Telemetry, MICROS_BUCKETS};
use alrescha_sim::SimConfig;

use crate::journal::{Journal, JournalError, JournalRecord};
use crate::protocol::{Frame, JobPayload, ScrapeKind, SolveResult, TraceContext, WireError};
use crate::quota::{QuotaDecision, QuotaTable};
use crate::slo::SloTable;

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP, e.g. `127.0.0.1:0` (port 0 = ephemeral; the handle reports
    /// the actual address).
    Tcp(String),
    /// A unix domain socket path (removed and re-created on start).
    Unix(PathBuf),
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Directory for the journal and per-job checkpoint files.
    pub data_dir: PathBuf,
    /// Worker threads executing solves.
    pub workers: usize,
    /// Bound on queued (admitted, not yet running) jobs.
    pub queue_capacity: usize,
    /// Per-tenant in-flight cap.
    pub per_tenant_quota: usize,
    /// Checkpoint cadence in solver iterations. `0` disables mid-solve
    /// durability — recovery then restarts owed jobs from iteration 0,
    /// which is still fingerprint-identical, just slower.
    pub checkpoint_every: usize,
    /// Base unit for `retry_after` backpressure hints.
    pub retry_after_hint: Duration,
    /// Device circuit-breaker configuration (service-wide, shared).
    pub breaker: BreakerConfig,
    /// Optional telemetry sink for spans/metrics.
    pub telemetry: Option<Arc<Telemetry>>,
    /// Storage backend for the journal and checkpoint files. The default
    /// is the real filesystem; the chaos harness swaps in a
    /// [`alrescha::ChaosStorage`] to exercise every durability path under
    /// injected faults.
    pub storage: Arc<dyn StorageIo>,
    /// Service-level deadline budget in engine cycles. When set, every
    /// submission is bounded at admission by the alprove AL404 static
    /// analysis: the worst case of a full PCG solve — `max_iters + 1`
    /// iterations of one SpMV plus one SymGS preconditioner application —
    /// is computed from the job's matrix alone, and a job whose bound
    /// already exceeds the budget is rejected in-band before any engine
    /// work or journal write happens. `None` (the default) disables the
    /// gate.
    pub admission_cycle_budget: Option<u64>,
    /// Always-on flight recorder: a fixed-size in-memory ring of
    /// structured events (admission decisions, breaker transitions,
    /// journal/compaction ops) dumped to `data_dir/alserve.alfr` by the
    /// server's durability writer. Every `Accepted` ack waits for a dump
    /// that holds its accept event; terminal edges request a dump without
    /// waiting, so after a SIGKILL the dump holds every acked job and may
    /// lag the journal by the jobs that settled since the last dump.
    /// Sharing one recorder between the daemon and a process-wide panic
    /// hook is the intended use.
    pub flight: Arc<FlightRecorder>,
    /// End-to-end latency target per request for the per-tenant SLO
    /// (accept → terminal). Requests over this burn the tenant's error
    /// budget.
    pub slo_target_e2e: Duration,
    /// Width of the sliding burn-rate window, in whole seconds.
    pub slo_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_owned()),
            data_dir: PathBuf::from("alserve-data"),
            workers: 2,
            queue_capacity: 64,
            per_tenant_quota: 8,
            checkpoint_every: 8,
            retry_after_hint: Duration::from_millis(25),
            breaker: BreakerConfig::default(),
            telemetry: None,
            storage: Arc::new(RealStorage),
            admission_cycle_budget: None,
            flight: Arc::new(FlightRecorder::new(1024)),
            slo_target_e2e: Duration::from_millis(250),
            slo_window: Duration::from_mins(1),
        }
    }
}

/// Errors raised while starting the server.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// Socket or filesystem failure.
    Io(io::Error),
    /// Journal open/replay failure.
    Journal(JournalError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server io: {e}"),
            ServerError::Journal(e) => write!(f, "server journal: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Io(e) => Some(e),
            ServerError::Journal(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<JournalError> for ServerError {
    fn from(e: JournalError) -> Self {
        ServerError::Journal(e)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a job currently stands, as reported to clients.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running { iteration: u64, residual: f64 },
    Done { result: SolveResult },
    Failed { error: String },
    Parked,
}

impl JobState {
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed { .. } | JobState::Parked
        )
    }

    fn to_frame(&self, job_id: u64) -> Frame {
        match self {
            JobState::Queued => Frame::Progress {
                job_id,
                iteration: 0,
                residual: f64::NAN,
            },
            JobState::Running {
                iteration,
                residual,
            } => Frame::Progress {
                job_id,
                iteration: *iteration,
                residual: *residual,
            },
            JobState::Done { result } => Frame::Done {
                job_id,
                result: result.clone(),
            },
            JobState::Failed { error } => Frame::Failed {
                job_id,
                error: error.clone(),
            },
            JobState::Parked => Frame::Parked { job_id },
        }
    }
}

/// The job status map plus its wakeup primitive — shared between workers,
/// connection threads, and the fleet's checkpoint hook, so there is
/// exactly one source of truth for `Status`/`Wait` clients.
struct StatusBoard {
    map: Mutex<StatusMap>,
    cv: Condvar,
}

/// The job states behind [`StatusBoard`]'s lock.
#[derive(Default)]
struct StatusMap {
    jobs: HashMap<u64, JobState>,
    /// Bumped by every [`StatusBoard::set`], so a waiter holding the lock
    /// can tell whether anything changed since it last read the map.
    version: u64,
}

impl StatusBoard {
    fn set(&self, job_id: u64, state: JobState) {
        let mut map = lock(&self.map);
        // Never let a late progress update overwrite a terminal state.
        let settled =
            map.jobs.get(&job_id).is_some_and(JobState::is_terminal) && !state.is_terminal();
        if !settled {
            map.jobs.insert(job_id, state);
        }
        map.version += 1;
        drop(map);
        self.cv.notify_all();
    }

    fn get(&self, job_id: u64) -> Option<JobState> {
        lock(&self.map).jobs.get(&job_id).cloned()
    }
}

struct QueuedJob {
    job_id: u64,
    tenant: String,
    job: JobPayload,
    resume: Option<SolverCheckpoint>,
    enqueued: Instant,
    /// Client-minted distributed-trace id (0 = untraced; recovered jobs
    /// run untraced — the id lives in the Submit frame, not the journal).
    trace_id: u64,
}

/// The admission queue: strict priority levels (higher first), stable
/// FIFO within a level. Keys are `(Reverse(priority), sequence)`, so
/// `BTreeMap::pop_first` yields the highest-priority, oldest job.
#[derive(Default)]
struct JobQueue {
    entries: BTreeMap<(Reverse<u8>, u64), QueuedJob>,
    seq: u64,
}

impl JobQueue {
    fn push(&mut self, job: QueuedJob) {
        let key = (Reverse(job.job.priority), self.seq);
        self.seq += 1;
        self.entries.insert(key, job);
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        self.entries.pop_first().map(|(_, job)| job)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn drain_all(&mut self) -> Vec<QueuedJob> {
        std::mem::take(&mut self.entries)
            .into_values()
            .collect()
    }
}

/// `data_dir/job-<id>.ckpt`, the one checkpoint file a job owns.
fn ckpt_path(data_dir: &Path, job_id: u64) -> PathBuf {
    data_dir.join(format!("job-{job_id}.ckpt"))
}

/// The job id a checkpoint file or an atomic write's leftover temp file
/// (`job-<id>.ckpt`, `job-<id>.ckpt.tmp`) belongs to.
fn ckpt_file_job(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("job-")?;
    let id = stem
        .strip_suffix(".ckpt.tmp")
        .or_else(|| stem.strip_suffix(".ckpt"))?;
    id.parse().ok()
}

/// Work waiting for the durability writer.
#[derive(Default)]
struct DurabilityQueue {
    /// Encoded checkpoints by job id. Latest wins: a newer snapshot
    /// replaces one the writer has not started on.
    checkpoints: BTreeMap<u64, Vec<u8>>,
    /// The job whose checkpoint the writer is writing right now.
    writing: Option<u64>,
    /// Flight events the next dump must cover: the recorder's `total()`
    /// at the newest request.
    flight_wanted: u64,
    /// Flight events the last finished dump covers.
    flight_done: u64,
    /// Set by `stop`: finish the queued work, then exit.
    stop: bool,
    /// Set when the writer thread has returned, so no caller waits on it.
    exited: bool,
    /// Times the writer woke from its wait, to show it never polls.
    #[cfg(test)]
    wakeups: u64,
}

/// The one background thread that writes checkpoints and flight dumps,
/// so solve workers and connection threads never fsync either. Flight
/// dumps go ahead of checkpoints, and one dump serves every request
/// pending when it starts (group commit). Being the only writer of
/// `alserve.alfr` also keeps the dump monotone: a dump is never replaced
/// by one encoded from an older ring.
struct Durability {
    queue: Mutex<DurabilityQueue>,
    /// Wakes the writer.
    work: Condvar,
    /// Wakes callers waiting for a dump or for a checkpoint write to end.
    done: Condvar,
    storage: Arc<dyn StorageIo>,
    flight: Arc<FlightRecorder>,
    data_dir: PathBuf,
    telemetry: Option<Arc<Telemetry>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Durability {
    /// Spawns the writer thread.
    fn start(
        storage: Arc<dyn StorageIo>,
        flight: Arc<FlightRecorder>,
        data_dir: PathBuf,
        telemetry: Option<Arc<Telemetry>>,
    ) -> io::Result<Arc<Durability>> {
        let writer = Arc::new(Durability {
            queue: Mutex::new(DurabilityQueue::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            storage,
            flight,
            data_dir,
            telemetry,
            thread: Mutex::new(None),
        });
        let run = Arc::clone(&writer);
        let handle = std::thread::Builder::new()
            .name("alserve-durability".to_owned())
            .spawn(move || run.run())?;
        *lock(&writer.thread) = Some(handle);
        Ok(writer)
    }

    fn run(&self) {
        /// Marks the writer gone even if a write panics, so no caller
        /// waits for it forever.
        struct Exit<'a>(&'a Durability);
        impl Drop for Exit<'_> {
            fn drop(&mut self) {
                lock(&self.0.queue).exited = true;
                self.0.done.notify_all();
            }
        }
        let _exit = Exit(self);
        if let Some(tele) = &self.telemetry {
            tele.name_thread("alserve-durability");
        }
        let mut queue = lock(&self.queue);
        loop {
            if queue.flight_wanted > queue.flight_done {
                // Read before the dump encodes the ring, so the dump holds
                // at least this many events.
                let covers = self.flight.total();
                drop(queue);
                self.dump_flight();
                queue = lock(&self.queue);
                queue.flight_done = queue.flight_done.max(covers);
                self.done.notify_all();
            } else if let Some((job_id, bytes)) = queue.checkpoints.pop_first() {
                queue.writing = Some(job_id);
                drop(queue);
                self.write_checkpoint(job_id, &bytes);
                queue = lock(&self.queue);
                queue.writing = None;
                self.done.notify_all();
            } else if queue.stop {
                return;
            } else {
                queue = self
                    .work
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                #[cfg(test)]
                {
                    queue.wakeups += 1;
                }
            }
        }
    }

    /// Best-effort atomic dump of the flight ring next to the journal.
    fn dump_flight(&self) {
        let _span = alrescha_obs::span!(self.telemetry, "durability:flight-dump");
        let _ = self.flight.sync_to(&self.data_dir.join("alserve.alfr"));
    }

    /// Atomic checkpoint write through the configured storage. A failed
    /// write degrades durability, not correctness: recovery falls back to
    /// the previous intact checkpoint, or to iteration 0.
    fn write_checkpoint(&self, job_id: u64, bytes: &[u8]) {
        let _span = alrescha_obs::span!(self.telemetry, format!("durability:checkpoint:{job_id}"));
        let _ = write_atomic_with(
            self.storage.as_ref(),
            &ckpt_path(&self.data_dir, job_id),
            bytes,
        );
    }

    /// Queues `bytes` as job `job_id`'s newest checkpoint, replacing any
    /// older one still waiting.
    fn checkpoint(&self, job_id: u64, bytes: Vec<u8>) {
        lock(&self.queue).checkpoints.insert(job_id, bytes);
        self.work.notify_one();
    }

    /// Drops job `job_id`'s waiting checkpoint and waits out a write of
    /// it already under way, so the caller can unlink the file for good.
    fn cancel_checkpoint(&self, job_id: u64) {
        let mut queue = lock(&self.queue);
        queue.checkpoints.remove(&job_id);
        while queue.writing == Some(job_id) {
            queue = self
                .done
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Requests a dump holding every flight event recorded so far and
    /// waits until one is on disk.
    fn sync_flight(&self) {
        self.request_flight(true);
    }

    /// Requests a dump holding every flight event recorded so far, and
    /// returns at once.
    fn queue_flight(&self) {
        self.request_flight(false);
    }

    fn request_flight(&self, wait: bool) {
        let target = self.flight.total();
        let mut queue = lock(&self.queue);
        queue.flight_wanted = queue.flight_wanted.max(target);
        self.work.notify_one();
        while wait && queue.flight_done < target && !queue.exited {
            queue = self
                .done
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Finishes the queued work, then joins the writer thread.
    fn stop(&self) {
        lock(&self.queue).stop = true;
        self.work.notify_one();
        if let Some(handle) = lock(&self.thread).take() {
            let _ = handle.join();
        }
    }
}

/// State shared between the accept loop, connection threads, and workers.
struct Inner {
    config: ServerConfig,
    journal: Mutex<Journal>,
    quota: Mutex<QuotaTable>,
    fleet: Fleet,
    breaker: SharedBreaker,
    /// Storage-pressure breaker: trips on journal append failures
    /// (`ENOSPC`, failed fsync) so a filling disk turns into in-band
    /// `Rejected { retry_after }` backpressure instead of per-request
    /// journal hammering.
    storage_breaker: SharedBreaker,
    queue: Mutex<JobQueue>,
    queue_cv: Condvar,
    status: Arc<StatusBoard>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    draining: AtomicBool,
    conns: Mutex<Vec<Conn>>,
    /// Per-tenant SLO state (burn windows + end-to-end counts).
    slo: Mutex<SloTable>,
    /// job_id → trace_id for in-flight jobs, so the checkpoint hook and
    /// terminal paths can stamp their spans with the submitting client's
    /// trace. Shared with the fleet checkpoint hook.
    trace_ids: Arc<Mutex<HashMap<u64, u64>>>,
    /// Server start instant; burn-window slots are whole seconds since.
    started: Instant,
    /// Last observed breaker states `(device, storage)` as Display
    /// strings, so transitions (and only transitions) hit the flight
    /// recorder.
    breaker_seen: Mutex<(String, String)>,
    /// The checkpoint and flight-dump writer.
    durability: Arc<Durability>,
}

impl Inner {
    fn tele(&self) -> Option<&Arc<Telemetry>> {
        self.config.telemetry.as_ref()
    }

    fn count(&self, name: &str, help: &'static str) {
        if let Some(tele) = self.tele() {
            tele.metrics().counter(name, true, help).inc();
        }
    }

    fn ckpt_path(&self, job_id: u64) -> PathBuf {
        ckpt_path(&self.config.data_dir, job_id)
    }

    /// Records one flight event (always on; the ring is allocation-free).
    fn fr(&self, code: u16, a: u64, b: u64, tag: &str) {
        self.config.flight.record(code, a, b, tag);
    }

    /// Waits for a flight dump holding every event recorded so far, so a
    /// SIGKILL after this call leaves a dump that reaches this point.
    fn flight_sync(&self) {
        self.durability.sync_flight();
    }

    /// Burn-window slot for "now": whole seconds since server start.
    fn slot(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records per-tenant latency into the labelled Prometheus histograms
    /// (when telemetry is attached) — the service's only latency
    /// distributions.
    fn observe_latency(&self, kind: &str, tenant: &str, us: u64) {
        if let Some(tele) = self.tele() {
            tele.metrics()
                .histogram(
                    &format!("alserve_slo_{kind}_us{{tenant=\"{tenant}\"}}"),
                    MICROS_BUCKETS,
                    false,
                    "per-tenant SLO latency (microseconds)",
                )
                .observe(us);
        }
    }

    /// Diffs both breaker states against the last observation and flight-
    /// records any transition.
    fn note_breakers(&self) {
        let device = self.breaker.state().to_string();
        let storage = self.storage_breaker.state().to_string();
        let mut seen = lock(&self.breaker_seen);
        if seen.0 != device {
            self.fr(flight::EV_BREAKER, 0, 0, &format!("device:{device}"));
            seen.0 = device;
        }
        if seen.1 != storage {
            self.fr(flight::EV_BREAKER, 1, 0, &format!("storage:{storage}"));
            seen.1 = storage;
        }
    }

    /// Storage-pressure backpressure, shared by the open-breaker gate and a
    /// failed journal append: frees the tenant's quota slot, counts and
    /// flight-records the rejection as `event`, and hints 4× the base
    /// unit so clients back off a failing disk harder than a full queue.
    fn reject_storage(
        &self,
        tenant: &str,
        event: u16,
        trace_id: u64,
        job_id: u64,
        reason: String,
    ) -> Frame {
        lock(&self.quota).release(tenant);
        self.count(
            "alserve_storage_rejections_total",
            "submissions rejected by storage-pressure admission control",
        );
        self.fr(event, trace_id, job_id, tenant);
        self.note_breakers();
        Frame::Rejected {
            reason,
            retry_after: Some(self.config.retry_after_hint.saturating_mul(4)),
        }
    }

    /// Queued + running jobs (anything non-terminal in the status map).
    fn active_jobs(&self) -> usize {
        lock(&self.status.map)
            .jobs
            .values()
            .filter(|s| !s.is_terminal())
            .count()
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true).ok();
                Ok(Stream::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

/// How long [`ServerHandle::stop`]'s TCP wake connection may take.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Where [`ServerHandle::stop`] connects to wake the accept loop out of
/// its blocking `accept`.
enum WakeAddr {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl WakeAddr {
    /// The listener's own address, with an unspecified bind IP replaced by
    /// the loopback address of its family.
    fn of(listener: &Listener, bind: &Bind) -> io::Result<Self> {
        Ok(match (listener, bind) {
            (Listener::Tcp(l), _) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr.ip() {
                        IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                        IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                    });
                }
                WakeAddr::Tcp(addr)
            }
            (Listener::Unix(_), Bind::Unix(path)) => WakeAddr::Unix(path.clone()),
            (Listener::Unix(_), Bind::Tcp(_)) => {
                return Err(io::Error::other("unix listener on a tcp bind"))
            }
        })
    }

    /// Opens and drops one connection; true when it was accepted. A TCP
    /// connect gives up after [`WAKE_TIMEOUT`]; a Unix connect waits only
    /// while the listener's backlog is full, which it cannot stay while
    /// the loop blocks in `accept`, and a loop past `accept` drops the
    /// listener, which fails the connect.
    fn wake(&self) -> bool {
        match self {
            WakeAddr::Tcp(addr) => TcpStream::connect_timeout(addr, WAKE_TIMEOUT).is_ok(),
            WakeAddr::Unix(path) => UnixStream::connect(path).is_ok(),
        }
    }
}

pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn try_clone(&self) -> io::Result<Self> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(how),
            Stream::Unix(s) => s.shutdown(how),
        };
    }
}

/// An open connection's thread, with a handle on its socket that lets
/// [`ServerHandle::stop`] end the thread's blocking read.
struct Conn {
    stream: Stream,
    thread: JoinHandle<()>,
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The daemon entry point: holds a [`ServerConfig`] and starts the
/// listener, workers, and recovery replay.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
}

impl Server {
    /// A server with the given configuration.
    pub fn new(config: ServerConfig) -> Self {
        Server { config }
    }

    /// Opens the journal (replaying and truncating as needed), re-enqueues
    /// every owed job, binds the listener, and spawns workers plus the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Bind failures, a data directory that cannot be created, or journal
    /// corruption beyond torn-tail truncation.
    pub fn start(self) -> Result<ServerHandle, ServerError> {
        let config = self.config;
        std::fs::create_dir_all(&config.data_dir)?;
        config.flight.record(flight::EV_START, 0, 0, "alserve start");
        let mut journal = Journal::open_with(
            config.data_dir.join("jobs.wal"),
            Arc::clone(&config.storage),
        )?;
        let recovered = journal.recover();
        let settled = journal.settled();
        let next_id = journal.next_job_id();
        // Startup compaction: drop the bulky Accepted records of settled
        // jobs (terminal records and pending jobs are kept), bounding log
        // growth across kill/restart cycles. Best-effort — compaction is
        // an optimization, and its atomic rewrite leaves the journal
        // intact on failure, so a flaky disk at startup must not prevent
        // serving the jobs the journal already guarantees.
        let compaction_failed = journal.compact().is_err();
        config.flight.record(
            flight::EV_JOURNAL_COMPACT,
            u64::from(compaction_failed),
            0,
            if compaction_failed { "failed" } else { "ok" },
        );

        let status = Arc::new(StatusBoard {
            map: Mutex::new(StatusMap::default()),
            cv: Condvar::new(),
        });

        let (listener, local_addr) = match &config.bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let actual = l.local_addr()?.to_string();
                (Listener::Tcp(l), actual)
            }
            Bind::Unix(path) => {
                let _ = std::fs::remove_file(path);
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    path.display().to_string(),
                )
            }
        };
        let wake = WakeAddr::of(&listener, &config.bind)?;

        // Checkpoints and flight dumps are written by one background
        // thread, so the workers only solve.
        let durability = Durability::start(
            Arc::clone(&config.storage),
            Arc::clone(&config.flight),
            config.data_dir.clone(),
            config.telemetry.clone(),
        )?;

        // The fleet's checkpoint hook runs on worker threads between solver
        // iterations: encode the snapshot and hand it to the durability
        // writer, then publish progress to waiters.
        let trace_ids: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        let hook_status = Arc::clone(&status);
        let hook_durability = Arc::clone(&durability);
        let hook_flight = Arc::clone(&config.flight);
        let hook_traces = Arc::clone(&trace_ids);
        let hook_tele = config.telemetry.clone();
        // The daemon queues and admits jobs itself and drives the fleet one
        // job at a time through `execute_on`, so no batch setting applies.
        let fleet = Fleet::new(FleetConfig::default());
        let fleet = fleet.with_checkpoint_hook(Arc::new(move |job_id, ckpt| {
            let iteration = ckpt.iteration as u64;
            // Checkpoint writes are part of the job's distributed trace:
            // stamp an instant with the submitting client's trace id so
            // `alobs stitch` nests it under the same timeline.
            if let Some(tele) = &hook_tele {
                let trace = lock(&hook_traces).get(&job_id).copied().unwrap_or(0);
                if trace != 0 {
                    tele.instant(format!("trace:{trace:016x}:checkpoint:{job_id}:{iteration}"));
                }
            }
            hook_flight.record(flight::EV_CHECKPOINT, job_id, iteration, "ckpt");
            hook_durability.checkpoint(job_id, ckpt.to_bytes());
            hook_status.set(
                job_id,
                JobState::Running {
                    iteration,
                    residual: ckpt.residual_history.last().copied().unwrap_or(f64::NAN),
                },
            );
        }));
        let fleet = match &config.telemetry {
            Some(tele) => fleet.with_telemetry(Arc::clone(tele)),
            None => fleet,
        };

        let quota = QuotaTable::new(config.per_tenant_quota, config.retry_after_hint);
        let breaker = SharedBreaker::new(config.breaker);
        let storage_breaker = SharedBreaker::new(config.breaker);
        let workers = config.workers.max(1);
        let slo = SloTable::new(
            u64::try_from(config.slo_target_e2e.as_micros()).unwrap_or(u64::MAX),
            config.slo_window.as_secs().max(1),
        );
        let breaker_seen = (
            breaker.state().to_string(),
            storage_breaker.state().to_string(),
        );
        let inner = Arc::new(Inner {
            config,
            journal: Mutex::new(journal),
            quota: Mutex::new(quota),
            fleet,
            breaker,
            storage_breaker,
            queue: Mutex::new(JobQueue::default()),
            queue_cv: Condvar::new(),
            status,
            next_id: AtomicU64::new(next_id),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            slo: Mutex::new(slo),
            trace_ids,
            started: Instant::now(),
            breaker_seen: Mutex::new(breaker_seen),
            durability,
        });
        if compaction_failed {
            inner.count(
                "alserve_compaction_failures_total",
                "startup journal compactions that failed and were skipped",
            );
        }

        // Settled replay: jobs that reached a terminal state in a previous
        // run stay queryable, so a client reconnecting across a crash can
        // still fetch its outcome. The journal does not retain the solution
        // vector — only the scalars and the resume-invariant fingerprint.
        for record in settled {
            match record {
                JournalRecord::Completed {
                    job_id,
                    fingerprint,
                    iterations,
                    residual,
                    converged,
                } => inner.status.set(
                    job_id,
                    JobState::Done {
                        result: SolveResult {
                            x: Vec::new(),
                            iterations,
                            residual,
                            converged,
                            solution_fingerprint: fingerprint,
                        },
                    },
                ),
                JournalRecord::Failed { job_id, error } => {
                    inner.status.set(job_id, JobState::Failed { error });
                }
                _ => {}
            }
        }

        // Recovery replay: every owed job goes back on the queue, resuming
        // from its newest intact checkpoint when one exists.
        let mut pending = BTreeSet::new();
        {
            let mut queue = lock(&inner.queue);
            let mut quota = lock(&inner.quota);
            for (job_id, tenant, job) in recovered {
                pending.insert(job_id);
                let resume = SolverCheckpoint::read_from_path_with(
                    inner.config.storage.as_ref(),
                    &inner.ckpt_path(job_id),
                )
                .ok();
                quota.charge(&tenant);
                inner.status.set(job_id, JobState::Queued);
                inner.fr(
                    flight::EV_RECOVERY,
                    job_id,
                    u64::from(resume.is_some()),
                    &tenant,
                );
                queue.push(QueuedJob {
                    job_id,
                    tenant,
                    job,
                    resume,
                    enqueued: Instant::now(),
                    trace_id: 0,
                });
                inner.count(
                    "alserve_jobs_recovered_total",
                    "jobs re-enqueued by journal recovery at startup",
                );
            }
        }
        inner.queue_cv.notify_all();
        remove_orphan_checkpoints(&inner, &pending);
        inner.flight_sync();

        let mut worker_threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            worker_threads.push(std::thread::spawn(move || worker_loop(&inner, w)));
        }

        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&inner, &listener))
        };

        Ok(ServerHandle {
            addr: local_addr,
            inner,
            workers: worker_threads,
            accept: Some(accept),
            wake,
        })
    }
}

/// Deletes the checkpoint files (`job-<id>.ckpt`) and leftover atomic-write
/// temp files (`job-<id>.ckpt.tmp`) of every job recovery does not owe.
/// A crash between a terminal journal record and the unlink, or in the
/// middle of an atomic write, leaves them behind; nothing reads them again.
fn remove_orphan_checkpoints(inner: &Inner, pending: &BTreeSet<u64>) {
    let Ok(entries) = std::fs::read_dir(&inner.config.data_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let orphan = name
            .to_str()
            .and_then(ckpt_file_job)
            .is_some_and(|job_id| !pending.contains(&job_id));
        if orphan && inner.config.storage.remove_file(&entry.path()).is_ok() {
            inner.count(
                "alserve_orphan_checkpoints_removed_total",
                "checkpoint and temp files of jobs not owed, removed at startup",
            );
        }
    }
}

/// A running server: address, drain/stop controls, and introspection.
pub struct ServerHandle {
    addr: String,
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    wake: WakeAddr,
}

impl fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("active_jobs", &self.inner.active_jobs())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address: `ip:port` for TCP (resolved when port 0 was
    /// requested), the socket path for unix.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Queued + running jobs.
    pub fn active_jobs(&self) -> usize {
        self.inner.active_jobs()
    }

    /// Stops admitting new jobs and parks everything still queued (owed
    /// jobs stay in the journal and are recovered on the next start).
    /// Running jobs finish normally.
    pub fn drain(&self) {
        drain_server(&self.inner);
    }

    /// True once a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Blocks until no job is queued or running, polling at `tick`.
    pub fn wait_idle(&self, tick: Duration) {
        while self.inner.active_jobs() > 0 {
            std::thread::sleep(tick);
        }
    }

    /// Graceful shutdown: stop accepting, wake every thread, join them.
    /// The solve in flight on each worker runs to completion first.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.inner.fr(flight::EV_SHUTDOWN, 0, 0, "graceful stop");
        self.inner.flight_sync();
        // Set under the queue lock, and fenced by the status lock, so a
        // worker or waiter either sees the flag before it waits or is
        // already waiting when the notification comes: none sleeps on.
        {
            let _queue = lock(&self.inner.queue);
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.queue_cv.notify_all();
        drop(lock(&self.inner.status.map));
        self.inner.status.cv.notify_all();
        if let Some(h) = self.accept.take() {
            // The accept loop blocks in `accept`: one connection wakes it
            // to see the flag, unless a client's connection already has.
            // Should the wake fail, the thread is left blocked rather than
            // joined, and keeps the listener bound.
            if h.is_finished() || self.wake.wake() {
                let _ = h.join();
            }
        }
        // No connection arrives once the accept loop is gone. Each open
        // one blocks in `read`: shutting its read half ends that read,
        // while a reply already being written still goes out.
        let conns: Vec<Conn> = lock(&self.inner.conns).drain(..).collect();
        for c in &conns {
            c.stream.shutdown(Shutdown::Read);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        for c in conns {
            let _ = c.thread.join();
        }
        // Last: the workers' final terminal dumps are queued by now.
        self.inner.durability.stop();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.inner.shutdown.load(Ordering::SeqCst) {
            self.shutdown_and_join();
        }
    }
}

fn drain_server(inner: &Arc<Inner>) {
    inner.draining.store(true, Ordering::SeqCst);
    let parked: Vec<QueuedJob> = lock(&inner.queue).drain_all();
    inner.fr(flight::EV_DRAIN, parked.len() as u64, 0, "drain");
    {
        let mut quota = lock(&inner.quota);
        for job in &parked {
            inner.status.set(job.job_id, JobState::Parked);
            quota.release(&job.tenant);
        }
    }
    if !parked.is_empty() {
        inner.count(
            "alserve_jobs_parked_total",
            "queued jobs parked by a drain (recovered on next start)",
        );
    }
    inner.flight_sync();
    inner.queue_cv.notify_all();
}

// ---------------------------------------------------------------------------
// Accept + connection handling
// ---------------------------------------------------------------------------

fn accept_loop(inner: &Arc<Inner>, listener: &Listener) {
    if let Some(tele) = inner.tele() {
        tele.name_thread("alserve-accept");
    }
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            // The connection that wakes the loop at stop.
            Ok(_) if inner.shutdown.load(Ordering::SeqCst) => break,
            Ok(stream) => {
                // Without a second handle `stop` could not end the
                // connection's read, so a connection that cannot get one
                // is closed at once.
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                let conn_inner = Arc::clone(inner);
                let thread = std::thread::spawn(move || connection_loop(&conn_inner, stream));
                let mut conns = lock(&inner.conns);
                // Join closed connections' threads here, so a long-lived
                // daemon holds handles only for connections still open.
                for done in conns.extract_if(.., |c| c.thread.is_finished()) {
                    let _ = done.thread.join();
                }
                conns.push(Conn {
                    stream: handle,
                    thread,
                });
            }
            // A failed accept (out of descriptors, say) backs off briefly
            // rather than spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serves one connection's frames, blocking in `read` between them until
/// the client closes, a frame ends it, or `stop` shuts its read half.
fn connection_loop(inner: &Arc<Inner>, mut stream: Stream) {
    if let Some(tele) = inner.tele() {
        tele.name_thread("alserve-conn");
    }
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let frame = match Frame::read_from(&mut stream) {
            Ok(f) => f,
            Err(WireError::Io(_)) => break, // EOF or transport failure.
            Err(e) => {
                // Undecodable frame. Integrity failures (bad magic, CRC
                // mismatch, truncation) are transport damage — the client
                // may well resend the frame intact, so hint a retry. Only
                // a frame that decodes as structurally impossible (unknown
                // tag, malformed field, future version) is permanent.
                let transport_damage = matches!(
                    e,
                    WireError::Frame(
                        FrameError::BadMagic
                            | FrameError::CrcMismatch { .. }
                            | FrameError::Truncated { .. }
                            | FrameError::TooLarge { .. }
                    )
                );
                if transport_damage {
                    inner.count(
                        "alserve_frame_integrity_rejections_total",
                        "frames rejected for transport integrity (CRC/magic/truncation)",
                    );
                }
                let _ = Frame::Rejected {
                    reason: e.to_string(),
                    retry_after: transport_damage.then_some(inner.config.retry_after_hint),
                }
                .write_to(&mut stream);
                break;
            }
        };
        if !handle_frame(inner, &mut stream, frame) {
            break;
        }
    }
    // The accept loop's handle keeps the socket open until it joins this
    // thread; the client sees the close now.
    stream.shutdown(Shutdown::Both);
}

/// Handles one request frame; returns `false` when the connection should
/// close (write failure or protocol misuse).
fn handle_frame(inner: &Arc<Inner>, stream: &mut Stream, frame: Frame) -> bool {
    match frame {
        Frame::Ping => Frame::Pong.write_to(stream).is_ok(),
        Frame::Drain => {
            drain_server(inner);
            Frame::Draining.write_to(stream).is_ok()
        }
        Frame::Submit { tenant, job, trace } => {
            admit(inner, &tenant, job, trace).write_to(stream).is_ok()
        }
        Frame::Status { job_id } => {
            let frame = inner
                .status
                .get(job_id)
                .map_or(Frame::NotFound { job_id }, |s| s.to_frame(job_id));
            frame.write_to(stream).is_ok()
        }
        Frame::Scrape { kind } => Frame::ScrapeReply {
            body: scrape(inner, kind),
        }
        .write_to(stream)
        .is_ok(),
        Frame::Wait { job_id } => wait_loop(inner, stream, job_id, false),
        Frame::Observe { job_id } => wait_loop(inner, stream, job_id, true),
        // Server-to-client frames arriving at the server are misuse.
        _ => false,
    }
}

/// The alprove static-admission gate (`Some(reason)` = reject). Converts
/// the job's matrix for the two kernels a PCG iteration applies, runs the
/// abstract interpreter on each, and bounds the whole solve as
/// `(max_iters + 1) · (SpMV bound + SymGS bound)` — the `+ 1` covers the
/// residual/setup application before the loop. Resource errors
/// (AL401–AL403) also reject: a schedule the analysis proves to wedge the
/// RCU would burn its whole budget stalled. Semantics are deliberately
/// conservative — "cannot prove it fits the deadline" rejects, so an
/// accepted job never owes the engine more cycles than the budget.
fn static_admission_reason(inner: &Arc<Inner>, job: &JobPayload) -> Option<String> {
    let budget = inner.config.admission_cycle_budget?;
    let config = SimConfig::default();
    let mut total: u64 = 0;
    for kernel in [KernelType::SpMv, KernelType::SymGs] {
        let (alf, table) = match convert(kernel, &job.matrix, config.omega) {
            Ok(pair) => pair,
            Err(e) => return Some(format!("malformed job: {kernel:?} conversion failed: {e}")),
        };
        let analysis = analyze_table(kernel, &table, &alf, &config);
        if !analysis.is_admissible() {
            let codes: Vec<&str> = analysis
                .diagnostics
                .iter()
                .filter(|d| d.severity == alrescha_lint::Severity::Error)
                .map(|d| d.code)
                .collect();
            return Some(format!(
                "static analysis rejects {kernel:?} program: {}",
                codes.join(", ")
            ));
        }
        total = total.saturating_add(analysis.cycle_bound.admission_bound());
    }
    let bound = total.saturating_mul(job.max_iters.saturating_add(1));
    (bound > budget).then(|| {
        format!(
            "AL404: static cycle bound {bound} for {} PCG iterations exceeds the \
             {budget}-cycle service budget",
            job.max_iters
        )
    })
}

/// Admission: drain gate → job sanity → alprove static bound (when
/// `admission_cycle_budget` is set) → per-tenant quota → queue room →
/// storage-pressure gate → durable journal append → `Accepted`. Every
/// decision lands in the flight recorder; the quota `retry_after` is
/// additionally scaled by the tenant's SLO burn rate, so a tenant already
/// torching its error budget is told to back off harder.
fn admit(inner: &Arc<Inner>, tenant: &str, job: JobPayload, trace: TraceContext) -> Frame {
    let _span = (trace.trace_id != 0)
        .then(|| alrescha_obs::span!(inner.config.telemetry, format!("{}:admit", trace.prefix())))
        .flatten();
    if inner.draining.load(Ordering::SeqCst) {
        inner.fr(flight::EV_REJECT_DRAINING, trace.trace_id, 0, tenant);
        return Frame::Draining;
    }
    if job.matrix.rows() != job.matrix.cols() || job.b.len() != job.matrix.rows() {
        inner.fr(flight::EV_REJECT_SANITY, trace.trace_id, 0, tenant);
        return Frame::Rejected {
            reason: "malformed job: matrix must be square and match |b|".to_owned(),
            retry_after: None,
        };
    }
    if let Some(reason) = static_admission_reason(inner, &job) {
        inner.count(
            "alserve_admission_rejected_static_total",
            "submissions rejected by the alprove static cycle bound (AL404)",
        );
        inner.fr(flight::EV_REJECT_STATIC, trace.trace_id, 0, tenant);
        // Permanent for this job shape: retrying the same job cannot help,
        // so no retry_after hint.
        return Frame::Rejected {
            reason,
            retry_after: None,
        };
    }
    match lock(&inner.quota).try_admit(tenant) {
        QuotaDecision::Reject { retry_after } => {
            inner.count(
                "alserve_quota_rejections_total",
                "submissions rejected by per-tenant quota",
            );
            // SLO coupling: the burn-rate window turns into harder
            // backpressure — 1× inside the error budget, up to 8× when
            // the tenant is burning it flat out.
            let scale = lock(&inner.slo).retry_scale(tenant);
            let retry_after = retry_after.saturating_mul(scale);
            inner.fr(
                flight::EV_REJECT_QUOTA,
                trace.trace_id,
                u64::from(scale),
                tenant,
            );
            return Frame::Rejected {
                reason: format!(
                    "tenant {tenant:?} is at its in-flight quota ({})",
                    inner.config.per_tenant_quota
                ),
                retry_after: Some(retry_after),
            };
        }
        QuotaDecision::Admit => {}
    }
    // Queue room, with the fleet's linear backpressure ramp
    // (worker-count-independent, like the fleet's `QueueFull` hint).
    {
        let queue = lock(&inner.queue);
        let capacity = inner.config.queue_capacity;
        if queue.len() >= capacity {
            lock(&inner.quota).release(tenant);
            let retry_after =
                backpressure_ramp(inner.config.retry_after_hint, queue.len() - capacity + 1);
            inner.count(
                "alserve_queue_rejections_total",
                "submissions rejected by the bounded queue",
            );
            inner.fr(
                flight::EV_REJECT_QUEUE_FULL,
                trace.trace_id,
                queue.len() as u64,
                tenant,
            );
            return Frame::Rejected {
                reason: format!("queue full: capacity {capacity}"),
                retry_after: Some(retry_after),
            };
        }
    }
    // Storage-pressure gate: while the storage breaker is open (recent
    // journal append failures — ENOSPC, failed fsync), pre-reject with a
    // retry hint instead of hammering a failing disk. Half-open lets one
    // probe submission through to test recovery.
    let storage_choice = inner.storage_breaker.gate();
    if storage_choice == BackendChoice::Cpu {
        return inner.reject_storage(
            tenant,
            flight::EV_REJECT_STORAGE,
            trace.trace_id,
            0,
            "storage pressure: journal writes are failing".to_owned(),
        );
    }
    let job_id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    // Durability point: fsync the Accepted record BEFORE acknowledging.
    let accepted = {
        let _journal_span = (trace.trace_id != 0).then(|| {
            alrescha_obs::span!(
                inner.config.telemetry,
                format!("{}:journal-accept:{job_id}", trace.prefix())
            )
        });
        lock(&inner.journal).accept(job_id, tenant, &job)
    };
    inner
        .storage_breaker
        .record(storage_choice, accepted.is_ok());
    if let Err(e) = accepted {
        // In-band, transient: the client backs off and retries rather than
        // losing the connection. The job was never acknowledged, so no
        // durability promise is broken.
        return inner.reject_storage(
            tenant,
            flight::EV_FAULT_STORAGE,
            trace.trace_id,
            job_id,
            format!("storage pressure: journal append failed: {e}"),
        );
    }
    inner.note_breakers();
    if trace.trace_id != 0 {
        lock(&inner.trace_ids).insert(job_id, trace.trace_id);
    }
    inner.fr(flight::EV_JOURNAL_ACCEPT, trace.trace_id, job_id, tenant);
    inner.status.set(job_id, JobState::Queued);
    lock(&inner.queue).push(QueuedJob {
        job_id,
        tenant: tenant.to_owned(),
        job,
        resume: None,
        enqueued: Instant::now(),
        trace_id: trace.trace_id,
    });
    inner.queue_cv.notify_one();
    inner.count(
        "alserve_jobs_accepted_total",
        "jobs durably journaled and acknowledged",
    );
    inner.fr(flight::EV_ADMIT_OK, trace.trace_id, job_id, tenant);
    // Durability point for the flight dump too: after this sync the
    // on-disk ring's tail contains this job's journal-accept event, so a
    // SIGKILL dump can be cross-checked against the journal tail.
    inner.flight_sync();
    Frame::Accepted { job_id }
}

/// Renders one live-introspection body for a [`Frame::Scrape`].
fn scrape(inner: &Arc<Inner>, kind: ScrapeKind) -> String {
    let queue_depth = lock(&inner.queue).len();
    match kind {
        ScrapeKind::Metrics => {
            let Some(tele) = inner.tele() else {
                return "# alserve: telemetry not attached; no metrics collected\n".to_owned();
            };
            // Refresh the point-in-time families right before rendering.
            let m = tele.metrics();
            m.gauge("alserve_queue_depth", false, "queued (not yet running) jobs")
                .set(queue_depth as f64);
            m.gauge("alserve_active_jobs", false, "queued + running jobs")
                .set(inner.active_jobs() as f64);
            m.gauge(
                "alserve_flight_events_total",
                false,
                "events recorded by the flight recorder since start",
            )
            .set(inner.config.flight.total() as f64);
            let slo = lock(&inner.slo);
            for tenant in slo.tenants() {
                m.gauge(
                    &format!("alserve_slo_burn_rate{{tenant=\"{tenant}\"}}"),
                    false,
                    "fraction of requests missing the e2e SLO in the burn window",
                )
                .set(slo.burn_rate(tenant));
                m.gauge(
                    &format!("alserve_slo_retry_scale{{tenant=\"{tenant}\"}}"),
                    false,
                    "current burn-driven multiplier on quota retry_after hints",
                )
                .set(f64::from(slo.retry_scale(tenant)));
            }
            drop(slo);
            m.to_prometheus()
        }
        ScrapeKind::Health => {
            let status = if inner.shutdown.load(Ordering::SeqCst) {
                "stopping"
            } else if inner.draining.load(Ordering::SeqCst) {
                "draining"
            } else {
                "ok"
            };
            format!(
                "{{\"status\":\"{status}\",\"active_jobs\":{},\"queue_depth\":{queue_depth},\
                 \"breaker\":\"{}\",\"storage_breaker\":\"{}\",\"flight_events\":{},\
                 \"uptime_secs\":{}}}",
                inner.active_jobs(),
                inner.breaker.state(),
                inner.storage_breaker.state(),
                inner.config.flight.total(),
                inner.started.elapsed().as_secs(),
            )
        }
        ScrapeKind::Jobs => {
            let map = lock(&inner.status.map);
            let mut ids: Vec<u64> = map.jobs.keys().copied().collect();
            ids.sort_unstable();
            let rows: Vec<String> = ids
                .iter()
                .filter_map(|id| {
                    map.jobs.get(id).map(|state| {
                        let (name, detail) = match state {
                            JobState::Queued => ("queued".to_owned(), String::new()),
                            JobState::Running {
                                iteration,
                                residual,
                            } => (
                                "running".to_owned(),
                                if residual.is_finite() {
                                    format!(",\"iteration\":{iteration},\"residual\":{residual:e}")
                                } else {
                                    format!(",\"iteration\":{iteration},\"residual\":null")
                                },
                            ),
                            JobState::Done { result } => (
                                "done".to_owned(),
                                format!(
                                    ",\"iterations\":{},\"converged\":{}",
                                    result.iterations, result.converged
                                ),
                            ),
                            JobState::Failed { error } => (
                                "failed".to_owned(),
                                format!(",\"error\":{}", json::escape(error)),
                            ),
                            JobState::Parked => ("parked".to_owned(), String::new()),
                        };
                        format!("{{\"job_id\":{id},\"state\":\"{name}\"{detail}}}")
                    })
                })
                .collect();
            format!("[{}]", rows.join(","))
        }
        ScrapeKind::Top => {
            let slo = lock(&inner.slo);
            let quota = lock(&inner.quota);
            // Tenants seen by either the quota table (in flight now:
            // queued or running) or the SLO table (any finished job).
            let tenants: BTreeSet<&str> = quota.tenants().chain(slo.tenants()).collect();
            let rows: Vec<String> = tenants
                .into_iter()
                .map(|tenant| {
                    format!(
                        "{{\"tenant\":{},\"inflight\":{},\"quota\":{},\
                         \"burn_rate\":{:.4},\"retry_scale\":{},\"e2e_count\":{}}}",
                        json::escape(tenant),
                        quota.inflight(tenant),
                        quota.per_tenant(),
                        slo.burn_rate(tenant),
                        slo.retry_scale(tenant),
                        slo.e2e_count(tenant),
                    )
                })
                .collect();
            format!(
                "{{\"queue_depth\":{queue_depth},\"active_jobs\":{},\"draining\":{},\
                 \"breaker\":\"{}\",\"storage_breaker\":\"{}\",\"quota_rejections\":{},\
                 \"tenants\":[{}]}}",
                inner.active_jobs(),
                inner.draining.load(Ordering::SeqCst),
                inner.breaker.state(),
                inner.storage_breaker.state(),
                quota.rejections(),
                rows.join(","),
            )
        }
    }
}

/// Streams progress to a client until the job is terminal. With
/// `observe` set (a passive [`Frame::Observe`] subscriber), terminal
/// `Done` frames are sent with the solution vector stripped: observers
/// get the job's progress and scalar outcome, not the tenant's data.
fn wait_loop(inner: &Arc<Inner>, stream: &mut Stream, job_id: u64, observe: bool) -> bool {
    // The last progress frame sent, as (iteration, residual bits): a
    // repeat of it is not sent again. A terminal frame ends the loop.
    let mut last_progress: Option<(u64, u64)> = None;
    let board = &inner.status;
    loop {
        let (state, seen) = {
            let map = lock(&board.map);
            if inner.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            (map.jobs.get(&job_id).cloned(), map.version)
        };
        let Some(state) = state else {
            return Frame::NotFound { job_id }.write_to(stream).is_ok();
        };
        let mut frame = state.to_frame(job_id);
        if observe {
            if let Frame::Done { result, .. } = &mut frame {
                result.x = Vec::new();
            }
        }
        let progress = match &frame {
            Frame::Progress {
                iteration,
                residual,
                ..
            } => Some((*iteration, residual.to_bits())),
            _ => None,
        };
        if progress.is_none() || progress != last_progress {
            if frame.write_to(stream).is_err() {
                return false;
            }
            last_progress = progress;
        }
        if state.is_terminal() {
            return true;
        }
        // Sleep until the board changes after `seen`, or the server stops.
        let mut map = lock(&board.map);
        while map.version == seen && !inner.shutdown.load(Ordering::SeqCst) {
            map = board.cv.wait(map).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(inner: &Arc<Inner>, worker: usize) {
    if let Some(tele) = inner.tele() {
        tele.name_thread(format!("alserve-worker-{worker}"));
    }
    let mut station = inner.fleet.station(worker);
    loop {
        let job = {
            let mut queue = lock(&inner.queue);
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop() {
                    break job;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(inner, &mut station, job);
    }
}

fn run_job(inner: &Arc<Inner>, station: &mut Station, job: QueuedJob) {
    let QueuedJob {
        job_id,
        tenant,
        job: payload,
        resume,
        enqueued,
        trace_id,
    } = job;
    let queue_wait = enqueued.elapsed();
    inner.observe_latency(
        "queue_wait",
        &tenant,
        u64::try_from(queue_wait.as_micros()).unwrap_or(u64::MAX),
    );
    // Service-level breaker: while the device is suspect, new jobs are
    // pinned to the host backend; exactly one half-open probe runs
    // on-device at a time (SharedBreaker's single-probe invariant).
    let choice = inner.breaker.gate();
    let cpu_only = choice == BackendChoice::Cpu;
    if cpu_only {
        inner.count(
            "alserve_cpu_degraded_jobs_total",
            "jobs pinned to the host backend by the open breaker",
        );
    }
    inner.status.set(
        job_id,
        JobState::Running {
            iteration: resume.as_ref().map_or(0, |c| c.iteration as u64),
            residual: f64::NAN,
        },
    );

    let mut spec = JobSpec::new(
        payload.matrix,
        JobKernel::Pcg {
            b: payload.b,
            opts: SolverOptions {
                tol: payload.tol,
                max_iters: usize::try_from(payload.max_iters).unwrap_or(usize::MAX),
            },
        },
    )
    .with_id(job_id)
    .with_checkpoint_every(inner.config.checkpoint_every)
    .with_cpu_only(cpu_only)
    .with_trace_id(trace_id);
    if let Some(ckpt) = resume {
        spec = spec.with_resume_from(ckpt);
    }

    let solve_started = Instant::now();
    let record = inner
        .fleet
        .execute_on(station, job_id as usize, &spec, queue_wait);
    let solve_us = u64::try_from(solve_started.elapsed().as_micros()).unwrap_or(u64::MAX);

    inner.breaker.record(choice, record.result.is_ok());
    let (state, terminal) = match record.result {
        Ok(out) => {
            let result = match &out {
                JobOutput::Pcg { outcome } => SolveResult {
                    x: outcome.x.clone(),
                    iterations: outcome.iterations as u64,
                    residual: outcome.residual,
                    converged: outcome.converged,
                    solution_fingerprint: out.solution_fingerprint(),
                },
                // A Pcg spec always yields a Pcg output; tolerate anything
                // else defensively rather than panicking a worker.
                other => SolveResult {
                    x: other.values().to_vec(),
                    iterations: 0,
                    residual: f64::NAN,
                    converged: false,
                    solution_fingerprint: other.solution_fingerprint(),
                },
            };
            let terminal = JournalRecord::Completed {
                job_id,
                fingerprint: result.solution_fingerprint,
                iterations: result.iterations,
                residual: result.residual,
                converged: result.converged,
            };
            (JobState::Done { result }, terminal)
        }
        Err(e) => {
            let error = e.to_string();
            // A solve fault is exactly the moment the flight recorder
            // exists for: capture it and flush the ring immediately.
            inner.fr(flight::EV_SOLVE_FAULT, trace_id, job_id, &error);
            inner.flight_sync();
            (
                JobState::Failed {
                    error: error.clone(),
                },
                JournalRecord::Failed { job_id, error },
            )
        }
    };
    inner.note_breakers();

    // Terminal record first (durable), then the in-memory state clients
    // see. A crash between the two re-runs the job on recovery, which is
    // safe: the solve is deterministic and fingerprint-identical.
    let appended = {
        let _terminal_span = (trace_id != 0).then(|| {
            alrescha_obs::span!(
                inner.config.telemetry,
                format!("trace:{trace_id:016x}:journal-terminal:{job_id}")
            )
        });
        lock(&inner.journal).terminal(&terminal)
    };
    if appended.is_err() {
        inner.count(
            "alserve_journal_terminal_failures_total",
            "terminal records that failed to append",
        );
    }
    inner.fr(
        flight::EV_JOURNAL_TERMINAL,
        trace_id,
        job_id,
        if matches!(terminal, JournalRecord::Completed { .. }) {
            "completed"
        } else {
            "failed"
        },
    );
    // No checkpoint of this job may land after the unlink.
    inner.durability.cancel_checkpoint(job_id);
    let _ = inner.config.storage.remove_file(&inner.ckpt_path(job_id));
    lock(&inner.quota).release(&tenant);
    lock(&inner.trace_ids).remove(&job_id);
    // Per-tenant SLO accounting at the terminal edge: solve latency and
    // end-to-end (accept → terminal), the latter judged against the
    // target and charged to this second's burn slot. Recorded *before*
    // the terminal state is published, so a scrape issued the moment a
    // waiter's `Done` lands already reflects this job.
    let e2e_us = u64::try_from(enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
    lock(&inner.slo).observe_e2e(&tenant, e2e_us, inner.slot());
    inner.observe_latency("solve", &tenant, solve_us);
    inner.observe_latency("e2e", &tenant, e2e_us);
    inner.count(
        "alserve_jobs_finished_total",
        "jobs that reached a terminal state",
    );
    inner.status.set(job_id, state);
    // The terminal dump does not hold up the worker: the journal record
    // above is the durability point, and the dump may lag it.
    inner.durability.queue_flight();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RetryPolicy};
    use alrescha::storage::StorageFile;
    use alrescha_obs::SpanEvent;

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alserve-unit-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Where [`ParkingStorage`] holds its callers.
    #[derive(Debug, Default)]
    struct Gate {
        /// (the writer is parked in a checkpoint write, the test released it)
        state: Mutex<(bool, bool)>,
        cv: Condvar,
        /// Fsyncs of journal appends so far.
        journal_syncs: AtomicU64,
    }

    impl Gate {
        fn wait_parked(&self) {
            let state = lock(&self.state);
            drop(self.cv.wait_while(state, |s| !s.0).unwrap());
        }

        fn release(&self) {
            lock(&self.state).1 = true;
            self.cv.notify_all();
        }
    }

    /// The real filesystem, logging every file it creates. The first
    /// checkpoint `create` parks the writer until the test calls
    /// `release`. Every journal append fsync after the first (a job's
    /// accept) waits until the writer is parked, so a job cannot settle
    /// before the writer has started on one of its checkpoints.
    #[derive(Debug, Default)]
    struct ParkingStorage {
        gate: Arc<Gate>,
        created: Mutex<Vec<PathBuf>>,
    }

    struct GatedJournal {
        file: Box<dyn StorageFile>,
        gate: Arc<Gate>,
    }

    impl StorageFile for GatedJournal {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.file.write(buf)
        }

        fn sync(&mut self) -> io::Result<()> {
            if self.gate.journal_syncs.fetch_add(1, Ordering::SeqCst) > 0 {
                self.gate.wait_parked();
            }
            self.file.sync()
        }

        fn set_len(&mut self, len: u64) -> io::Result<()> {
            self.file.set_len(len)
        }
    }

    impl StorageIo for ParkingStorage {
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(GatedJournal {
                file: RealStorage.open_append(path)?,
                gate: Arc::clone(&self.gate),
            }))
        }

        fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
            lock(&self.created).push(path.to_owned());
            let checkpoint = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(ckpt_file_job)
                .is_some();
            let mut state = lock(&self.gate.state);
            if checkpoint && !state.0 {
                state.0 = true;
                self.gate.cv.notify_all();
                drop(self.gate.cv.wait_while(state, |s| !s.1).unwrap());
            }
            RealStorage.create(path)
        }

        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            RealStorage.read(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            RealStorage.rename(from, to)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            RealStorage.remove_file(path)
        }

        fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
            RealStorage.sync_parent_dir(path)
        }
    }

    /// A job's terminal edge waits out the write of its checkpoint under
    /// way, so no checkpoint file outlives its job: the writer is held
    /// inside one of the job's checkpoint writes until the job's terminal
    /// journal record is in.
    #[test]
    fn no_checkpoint_lands_after_its_job_settles() {
        let dir = tempdir("outlive");
        let storage = Arc::new(ParkingStorage::default());
        let flight = Arc::new(FlightRecorder::new(1 << 12));
        let server = Server::new(ServerConfig {
            data_dir: dir.clone(),
            workers: 1,
            checkpoint_every: 1,
            storage: Arc::clone(&storage) as Arc<dyn StorageIo>,
            flight: Arc::clone(&flight),
            ..ServerConfig::default()
        })
        .start()
        .unwrap();
        let matrix = alrescha_sparse::gen::stencil27(3);
        let job = JobPayload {
            b: vec![1.0; matrix.rows()],
            matrix,
            tol: 1e-10,
            max_iters: 200,
            priority: 0,
        };
        // Submit from another thread: the accept's flight dump may queue
        // behind the parked writer.
        let addr = server.addr().to_owned();
        let client = std::thread::spawn(move || {
            let mut client = Client::tcp(addr, RetryPolicy::default());
            let job_id = client.submit("acme", &job).unwrap();
            (job_id, client.wait(job_id).unwrap())
        });
        let settled = || {
            flight
                .snapshot()
                .iter()
                .any(|r| r.code == flight::EV_JOURNAL_TERMINAL)
        };
        while !settled() {
            std::thread::yield_now();
        }
        storage.gate.release();
        let (job_id, result) = client.join().unwrap();
        assert!(result.converged);
        server.stop();
        let writes = lock(&storage.created)
            .iter()
            .filter(|p| p.ends_with(format!("job-{job_id}.ckpt.tmp")))
            .count();
        assert!(writes >= 1, "the job was never checkpointed");
        assert!(
            !ckpt_path(&dir, job_id).exists(),
            "a checkpoint landed after its job settled"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// While the writer is busy: three checkpoints of one job collapse to
    /// the newest, three dump requests to one dump, and the dump goes
    /// ahead of the checkpoint.
    #[test]
    fn work_queued_behind_a_busy_writer_collapses() {
        let dir = tempdir("collapse");
        let storage = Arc::new(ParkingStorage::default());
        let flight = Arc::new(FlightRecorder::new(16));
        let tele = Telemetry::new();
        let writer = Durability::start(
            Arc::clone(&storage) as Arc<dyn StorageIo>,
            Arc::clone(&flight),
            dir.clone(),
            Some(Arc::clone(&tele)),
        )
        .unwrap();
        writer.checkpoint(9, b"other job".to_vec());
        storage.gate.wait_parked();
        for (i, bytes) in [b"old", b"mid", b"new"].into_iter().enumerate() {
            writer.checkpoint(1, bytes.to_vec());
            flight.record(flight::EV_ADMIT_OK, 0, i as u64, "");
            writer.queue_flight();
        }
        storage.gate.release();
        writer.stop();

        assert_eq!(std::fs::read(ckpt_path(&dir, 1)).unwrap(), b"new");
        assert_eq!(std::fs::read(ckpt_path(&dir, 9)).unwrap(), b"other job");
        let job1_writes = lock(&storage.created)
            .iter()
            .filter(|p| p.ends_with("job-1.ckpt.tmp"))
            .count();
        assert_eq!(job1_writes, 1, "superseded checkpoints were written");
        let dump = flight::FlightDump::read(&dir.join("alserve.alfr"))
            .unwrap()
            .unwrap();
        assert_eq!(dump.records.len(), 3, "the dump misses a requested event");
        let spans: Vec<String> = tele
            .snapshot_threads()
            .into_iter()
            .flat_map(|t| t.events)
            .filter_map(|e| match e {
                SpanEvent::Begin { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(
            spans,
            [
                "durability:checkpoint:9",
                "durability:flight-dump",
                "durability:checkpoint:1"
            ]
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The idle writer blocks on its condvar: it does not wake without
    /// work, and `stop` wakes and joins it.
    #[test]
    fn idle_writer_never_wakes_and_stop_joins_it() {
        let dir = tempdir("idle");
        let flight = Arc::new(FlightRecorder::new(16));
        let writer = Durability::start(
            Arc::new(RealStorage),
            Arc::clone(&flight),
            dir.clone(),
            None,
        )
        .unwrap();
        flight.record(flight::EV_START, 0, 0, "");
        writer.sync_flight();
        let woken = lock(&writer.queue).wakeups;
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(lock(&writer.queue).wakeups, woken, "the idle writer polled");
        writer.stop();
        assert!(lock(&writer.queue).exited);
        assert!(lock(&writer.thread).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// With a blocking accept and untimed condvar waits, `stop` still
    /// returns at once, on a TCP and on a Unix bind: the idle workers, a
    /// connection parked in a `Wait` on a job that never settles, and the
    /// accept loop all wake to the shutdown flag.
    #[test]
    fn stop_wakes_idle_workers_an_open_wait_and_the_accept_loop() {
        for kind in ["tcp", "unix"] {
            let dir = tempdir(&format!("stop-{kind}"));
            let bind = match kind {
                "tcp" => Bind::Tcp("127.0.0.1:0".to_owned()),
                _ => Bind::Unix(dir.join("alserve.sock")),
            };
            let server = Server::new(ServerConfig {
                data_dir: dir.clone(),
                bind,
                workers: 2,
                ..ServerConfig::default()
            })
            .start()
            .unwrap();
            // A job the board holds as queued, which no worker will run.
            let job_id = u64::MAX;
            server.inner.status.set(job_id, JobState::Queued);
            let mut stream = match kind {
                "tcp" => Stream::Tcp(TcpStream::connect(server.addr()).unwrap()),
                _ => Stream::Unix(UnixStream::connect(server.addr()).unwrap()),
            };
            Frame::Wait { job_id }.write_to(&mut stream).unwrap();
            let first = Frame::read_from(&mut stream).unwrap();
            assert!(matches!(first, Frame::Progress { .. }), "{kind}: {first:?}");
            // Let the waiter and the workers settle into their waits.
            std::thread::sleep(Duration::from_millis(20));
            let started = Instant::now();
            server.stop();
            let took = started.elapsed();
            assert!(took < Duration::from_secs(2), "{kind}: stop took {took:?}");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// A connection blocks in `read` rather than polling: a frame whose
    /// bytes pause mid-send is still read whole, and `stop` ends an idle
    /// open connection's read at once, on a TCP and on a Unix bind.
    #[test]
    fn a_paused_frame_is_read_whole_and_stop_ends_an_idle_read() {
        let mut ping = Vec::new();
        Frame::Ping.write_to(&mut ping).unwrap();
        for kind in ["tcp", "unix"] {
            let dir = tempdir(&format!("paused-{kind}"));
            let bind = match kind {
                "tcp" => Bind::Tcp("127.0.0.1:0".to_owned()),
                _ => Bind::Unix(dir.join("alserve.sock")),
            };
            let server = Server::new(ServerConfig {
                data_dir: dir.clone(),
                bind,
                workers: 1,
                ..ServerConfig::default()
            })
            .start()
            .unwrap();
            let mut stream = match kind {
                "tcp" => Stream::Tcp(TcpStream::connect(server.addr()).unwrap()),
                _ => Stream::Unix(UnixStream::connect(server.addr()).unwrap()),
            };
            stream.write_all(&ping[..3]).unwrap();
            std::thread::sleep(Duration::from_millis(300));
            stream.write_all(&ping[3..]).unwrap();
            let reply = Frame::read_from(&mut stream).unwrap();
            assert!(matches!(reply, Frame::Pong), "{kind}: {reply:?}");
            // The connection stays open and idle while the server stops.
            let (tx, rx) = std::sync::mpsc::channel();
            let stopper = std::thread::spawn(move || {
                let started = Instant::now();
                server.stop();
                let _ = tx.send(started.elapsed());
            });
            let took = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{kind}: stop is stuck behind an idle connection"));
            stopper.join().unwrap();
            assert!(took < Duration::from_secs(2), "{kind}: stop took {took:?}");
            // The server closed its end.
            let mut rest = Vec::new();
            assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "{kind}");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn closed_connections_do_not_pin_thread_handles() {
        let dir = std::env::temp_dir().join(format!("alserve-unit-conns-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::new(ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        })
        .start()
        .unwrap();
        let ping = || {
            Client::tcp(server.addr(), RetryPolicy::default())
                .ping()
                .unwrap();
        };
        for _ in 0..32 {
            ping();
        }
        // Once every closed connection's thread has exited, the next
        // accept must join them all, leaving at most its own handle.
        while !lock(&server.inner.conns)
            .iter()
            .all(|c| c.thread.is_finished())
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        ping();
        let held = lock(&server.inner.conns).len();
        assert!(held <= 1, "{held} thread handles held after 33 closed connections");
        server.stop();
        let _ = std::fs::remove_dir_all(dir);
    }
}
