//! `alrescha-fleet`: a batched execution runtime.
//!
//! The paper's host/device split (§4) makes Algorithm-1 conversion the
//! dominant one-time cost of a run: the host reformats the sparse operand
//! into locally-dense blocks and writes the configuration table before the
//! device streams a single byte. Parameter sweeps and solver campaigns,
//! however, run *many* kernels over *few* distinct matrices — HPCG runs the
//! same stencil hundreds of times; a fault-injection study replays one
//! system under dozens of plans. The fleet amortizes the host work across
//! such batches:
//!
//! * a **sharded conversion cache** keyed by a matrix fingerprint lets
//!   repeated matrices skip Algorithm 1 (and any preflight verification)
//!   entirely — a cache hit hands the worker a reference-counted
//!   [`ProgrammedKernel`] clone;
//! * **per-worker accelerator reuse**: each worker owns one [`Alrescha`]
//!   and recycles it between jobs via [`Alrescha::reset`] instead of
//!   rebuilding the simulator;
//! * **one shared job cursor**: every job of a batch is known when it
//!   starts, so each worker claims the next unclaimed job from one atomic
//!   index, and a skewed batch (one huge solve among many small SpMVs)
//!   still keeps every worker busy;
//! * **bounded admission**: a batch larger than the queue capacity rejects
//!   the excess jobs in-band ([`CoreError::QueueFull`]).
//!
//! # Determinism
//!
//! Batch execution is **bit-identical** to sequential execution, per job:
//! [`Fleet::run`] and [`Fleet::run_sequential`] produce the same numeric
//! results and the same [`ExecutionReport`]s regardless of worker count,
//! scheduling order, or cache hits. This holds because
//!
//! * every job arms its **own** fault plan — the injector's RNG cursor is
//!   never shared across jobs;
//! * [`Alrescha::reset`] restores a recycled accelerator to its
//!   just-built state (verified down to the RCU's configured data path,
//!   whose persistence would otherwise perturb reconfiguration counts);
//! * Algorithm-1 conversion is a pure function of `(kernel, matrix, ω)`,
//!   so a cached program is indistinguishable from a fresh one.
//!
//! Only *scheduling metadata* (which worker ran a job, queue-wait times,
//! hit/miss attribution when two workers race to convert the same key) may
//! vary between runs; `tests/fleet_determinism.rs` pins the invariant.
//!
//! ```
//! use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobSpec};
//! use alrescha_sparse::gen;
//!
//! let a = gen::stencil27(3);
//! let x = vec![1.0; a.cols()];
//! let jobs: Vec<JobSpec> = (0..8)
//!     .map(|_| JobSpec::new(a.clone(), JobKernel::SpMv { x: x.clone() }))
//!     .collect();
//!
//! let fleet = Fleet::new(FleetConfig::default().with_workers(2));
//! let report = fleet.run(jobs);
//! assert_eq!(report.stats.completed, 8);
//! // One conversion, seven cache hits: the matrix repeats.
//! assert_eq!(report.stats.cache_misses, 1);
//! assert_eq!(report.stats.cache_hits, 7);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::panic;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use alrescha_sim::{ExecutionReport, FaultPlan, RecoveryPolicy, SimConfig};
use alrescha_sparse::Coo;

use crate::accelerator::{Alrescha, ProgrammedKernel};
use crate::checkpoint::SolverCheckpoint;
use crate::convert::KernelType;
use crate::solver::{AcceleratedPcg, SolveOutcome, SolverOptions};
use crate::{CoreError, Result};

/// A verification hook run on every freshly converted program before it is
/// cached and executed (cache hits skip it — the program was already
/// verified when it entered the cache).
///
/// The fleet lives below the `alrescha-lint` crate in the dependency graph,
/// so static verification is injected rather than imported; see
/// [`Fleet::with_preflight`] for wiring `alverify` in.
pub type PreflightHook =
    Arc<dyn Fn(&ProgrammedKernel, &SimConfig) -> std::result::Result<(), String> + Send + Sync>;

/// A durability hook invoked with every [`SolverCheckpoint`] a journaled
/// PCG job emits, keyed by the job's stable identifier
/// ([`JobSpec::with_id`], falling back to the batch index).
///
/// A persistent service points this at atomic checkpoint files (see
/// `SolverCheckpoint::write_to_path`) so a crash resumes from the newest
/// iteration boundary instead of the beginning. The hook runs on the
/// worker thread between solver iterations; it must not panic.
pub type CheckpointHook = Arc<dyn Fn(u64, &SolverCheckpoint) + Send + Sync>;

/// Locks a mutex, recovering the guard if a previous holder panicked — the
/// protected state (the cache maps) is valid at every await point
/// of its critical sections.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// The kernel a job runs, with its operands.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKernel {
    /// `y = A·x`.
    SpMv {
        /// Dense operand vector.
        x: Vec<f64>,
    },
    /// One symmetric Gauss–Seidel sweep, `x0` seeding the iterate.
    SymGs {
        /// Right-hand side.
        b: Vec<f64>,
        /// Initial iterate.
        x0: Vec<f64>,
    },
    /// A full SymGS-preconditioned CG solve (Figure 2).
    Pcg {
        /// Right-hand side.
        b: Vec<f64>,
        /// Solver options.
        opts: SolverOptions,
    },
}

impl JobKernel {
    /// Stable lowercase label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            JobKernel::SpMv { .. } => "spmv",
            JobKernel::SymGs { .. } => "symgs",
            JobKernel::Pcg { .. } => "pcg",
        }
    }
}

/// One unit of fleet work: a matrix, a kernel, and the runtime knobs the
/// sequential API would set on the accelerator by hand.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The sparse operand.
    pub matrix: Coo,
    /// Kernel and operands.
    pub kernel: JobKernel,
    /// Simulator configuration (determines ω and hence the conversion).
    pub config: SimConfig,
    /// Per-job fault plan; the injector cursor is private to this job.
    pub fault_plan: Option<FaultPlan>,
    /// Recovery policy applied when a detected fault survives recovery.
    pub recovery: RecoveryPolicy,
    /// Stable identifier passed to the [`CheckpointHook`]; the batch index
    /// is used when `None`. A persistent service assigns journal job IDs
    /// here so checkpoints land in the right per-job file.
    pub id: Option<u64>,
    /// For PCG jobs: emit a checkpoint to the fleet's [`CheckpointHook`]
    /// every this many iterations (`0` = never).
    pub checkpoint_every: usize,
    /// For PCG jobs: resume from this checkpoint instead of starting from
    /// the zero iterate. Resume is bit-identical in the solution fields
    /// (see [`JobOutput::solution_fingerprint`]).
    pub resume_from: Option<SolverCheckpoint>,
    /// Pin every kernel of this job to the host reference backend — the
    /// planned CPU mode a service enters while the device breaker is open
    /// (agrees with the device to rounding; no device cycles simulated).
    pub cpu_only: bool,
    /// Distributed-trace identifier minted by the submitting client
    /// (`0` = untraced). When set, the per-job span name is prefixed
    /// `trace:<id>:` so the alobs stitcher can merge client, server, and
    /// engine events under one trace.
    pub trace_id: u64,
}

impl JobSpec {
    /// A job with the paper's Table 5 configuration and default runtime
    /// policies.
    pub fn new(matrix: Coo, kernel: JobKernel) -> Self {
        JobSpec {
            matrix,
            kernel,
            config: SimConfig::paper(),
            fault_plan: None,
            recovery: RecoveryPolicy::default(),
            id: None,
            checkpoint_every: 0,
            resume_from: None,
            cpu_only: false,
            trace_id: 0,
        }
    }

    /// Replaces the simulator configuration.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Arms a deterministic fault plan for this job only.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the recovery policy.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the stable job identifier handed to the [`CheckpointHook`].
    #[must_use]
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Emits a checkpoint every `every` iterations (PCG jobs only).
    #[must_use]
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Resumes a PCG job from a prior checkpoint.
    #[must_use]
    pub fn with_resume_from(mut self, checkpoint: SolverCheckpoint) -> Self {
        self.resume_from = Some(checkpoint);
        self
    }

    /// Pins the job to the host reference backend (no device).
    #[must_use]
    pub fn with_cpu_only(mut self, cpu_only: bool) -> Self {
        self.cpu_only = cpu_only;
        self
    }

    /// Propagates a distributed-trace id into the job span (`0` clears).
    #[must_use]
    pub fn with_trace_id(mut self, trace_id: u64) -> Self {
        self.trace_id = trace_id;
        self
    }
}

// ---------------------------------------------------------------------------
// Fleet configuration
// ---------------------------------------------------------------------------

/// Shards in the conversion cache.
const CACHE_SHARDS: usize = 8;

/// Base unit of the [`CoreError::QueueFull`] backpressure hint. The `i`-th
/// job past capacity is told to retry after `RETRY_AFTER_HINT × (i + 1)` —
/// a deterministic linear ramp that spreads resubmissions instead of
/// stampeding, and depends only on the job's position in the batch (never
/// on worker count or timing, preserving batch ≡ sequential bit-identity).
const RETRY_AFTER_HINT: Duration = Duration::from_millis(25);

/// Knobs for a [`Fleet`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads; `0` resolves to the machine's available parallelism.
    pub workers: usize,
    /// Jobs admitted per batch; the excess is rejected with
    /// [`CoreError::QueueFull`].
    pub queue_capacity: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: 0,
            queue_capacity: 1024,
        }
    }
}

impl FleetConfig {
    /// Sets the worker count (`0` = available parallelism).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

/// The linear backpressure ramp every admission limit shares: a request
/// landing `excess` places past its limit (`1` = the first one over) is
/// told to retry after `excess × hint`, saturating instead of overflowing.
pub fn backpressure_ramp(hint: Duration, excess: usize) -> Duration {
    hint.saturating_mul(u32::try_from(excess).unwrap_or(u32::MAX))
}

// ---------------------------------------------------------------------------
// Conversion cache
// ---------------------------------------------------------------------------

/// FNV-1a offset basis / prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Odd multiplier of the word fold (FxHash's 64-bit constant).
const FOLD_MUL: u64 = 0x517c_c1b7_2722_0a95;

/// Folds one 64-bit word into the hash: rotate, xor, multiply. The
/// rotation carries high bits back down, so every input bit reaches every
/// output bit over the following words.
fn fold(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(FOLD_MUL)
}

/// Content fingerprint of a COO matrix: dimensions plus every entry's
/// coordinates and exact value bits, folded one 64-bit word per step and
/// finished with the splitmix64 avalanche. Two matrices with the same
/// fingerprint, shape, and nnz are treated as identical by the cache (the
/// full key also carries shape and nnz, so a 64-bit collision would
/// additionally have to match those). The value is not persisted anywhere,
/// so the function may change between builds.
pub fn matrix_fingerprint(a: &Coo) -> u64 {
    let mut h = fold(fold(0, a.rows() as u64), a.cols() as u64);
    for &(r, c, v) in a.entries() {
        h = fold(fold(fold(h, r as u64), c as u64), v.to_bits());
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Cache key: the conversion inputs that determine a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    kernel: KernelType,
    omega: usize,
    rows: usize,
    cols: usize,
    nnz: usize,
    fingerprint: u64,
}

impl CacheKey {
    /// The key of `a` under `kernel` and `omega`; `fingerprint` is
    /// [`matrix_fingerprint`]`(a)`, computed once per job by the caller.
    fn new(kernel: KernelType, omega: usize, a: &Coo, fingerprint: u64) -> Self {
        CacheKey {
            kernel,
            omega,
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.entries().len(),
            fingerprint,
        }
    }

    fn shard(&self, shards: usize) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % shards
    }
}

/// Sharded map from conversion inputs to programs. The shard lock is held
/// across a miss's conversion, so concurrent requests for the *same* key
/// block and then hit instead of duplicating Algorithm 1; requests for
/// different keys usually land on different shards and proceed in parallel.
struct ConversionCache {
    shards: Vec<Mutex<HashMap<CacheKey, Arc<ProgrammedKernel>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ConversionCache {
    fn new() -> Self {
        ConversionCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached program for `(kernel, ω, matrix)` or converts,
    /// preflights, and caches it. `fingerprint` is the matrix's
    /// [`matrix_fingerprint`]. The boolean is `true` on a hit.
    fn get_or_convert(
        &self,
        acc: &mut Alrescha,
        kernel: KernelType,
        a: &Coo,
        fingerprint: u64,
        preflight: Option<&PreflightHook>,
    ) -> Result<(Arc<ProgrammedKernel>, bool)> {
        let key = CacheKey::new(kernel, acc.config().omega, a, fingerprint);
        let shard = &self.shards[key.shard(self.shards.len())];
        let mut map = lock(shard);
        if let Some(prog) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(prog), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prog = acc.program(kernel, a)?;
        if let Some(hook) = preflight {
            hook(&prog, acc.config()).map_err(|message| CoreError::Preflight { message })?;
        }
        let prog = Arc::new(prog);
        map.insert(key, Arc::clone(&prog));
        Ok((prog, false))
    }

    fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// What a completed job produced.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// SpMV result vector and its report.
    SpMv {
        /// `A·x`.
        y: Vec<f64>,
        /// Device execution report.
        report: ExecutionReport,
    },
    /// SymGS iterate after the sweep and its report.
    SymGs {
        /// Updated iterate.
        x: Vec<f64>,
        /// Device execution report.
        report: ExecutionReport,
    },
    /// Full solve outcome.
    Pcg {
        /// The solve outcome (iterate, residual, accumulated report).
        outcome: SolveOutcome,
    },
}

impl JobOutput {
    /// The device execution report (accumulated across iterations for PCG).
    pub fn report(&self) -> &ExecutionReport {
        match self {
            JobOutput::SpMv { report, .. } | JobOutput::SymGs { report, .. } => report,
            JobOutput::Pcg { outcome } => &outcome.report,
        }
    }

    /// The numeric result vector.
    pub fn values(&self) -> &[f64] {
        match self {
            JobOutput::SpMv { y, .. } => y,
            JobOutput::SymGs { x, .. } => x,
            JobOutput::Pcg { outcome } => &outcome.x,
        }
    }

    /// Content fingerprint over every deterministic field: the exact bits
    /// of the result vector, the full execution report, and (for solves)
    /// the iteration count, residual bits, convergence flag, and
    /// termination reason. Two outputs with equal fingerprints are
    /// bit-identical for determinism purposes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let tag: u8 = match self {
            JobOutput::SpMv { .. } => 1,
            JobOutput::SymGs { .. } => 2,
            JobOutput::Pcg { .. } => 3,
        };
        fnv1a(&mut h, &[tag]);
        let values = self.values();
        fnv1a(&mut h, &(values.len() as u64).to_le_bytes());
        for v in values {
            fnv1a(&mut h, &v.to_bits().to_le_bytes());
        }
        if let JobOutput::Pcg { outcome } = self {
            fnv1a(&mut h, &(outcome.iterations as u64).to_le_bytes());
            fnv1a(&mut h, &outcome.residual.to_bits().to_le_bytes());
            fnv1a(&mut h, &[u8::from(outcome.converged)]);
            fnv1a(&mut h, format!("{:?}", outcome.reason).as_bytes());
        }
        fnv1a(&mut h, self.report().to_json().as_bytes());
        h
    }

    /// Resume-invariant fingerprint: covers only the fields a
    /// checkpoint/resume boundary preserves — the exact result bits and
    /// (for solves) the iteration count, residual bits, and convergence
    /// flag. Unlike [`JobOutput::fingerprint`] it excludes the execution
    /// report (a resume restarts report accumulation mid-solve) and the
    /// termination reason, so an interrupted-and-resumed solve and an
    /// uninterrupted one compare equal exactly when their numerics agree.
    pub fn solution_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let tag: u8 = match self {
            JobOutput::SpMv { .. } => 1,
            JobOutput::SymGs { .. } => 2,
            JobOutput::Pcg { .. } => 3,
        };
        fnv1a(&mut h, &[tag]);
        let values = self.values();
        fnv1a(&mut h, &(values.len() as u64).to_le_bytes());
        for v in values {
            fnv1a(&mut h, &v.to_bits().to_le_bytes());
        }
        if let JobOutput::Pcg { outcome } = self {
            fnv1a(&mut h, &(outcome.iterations as u64).to_le_bytes());
            fnv1a(&mut h, &outcome.residual.to_bits().to_le_bytes());
            fnv1a(&mut h, &[u8::from(outcome.converged)]);
        }
        h
    }
}

/// Per-job record in a [`FleetReport`].
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// Kernel label (`"spmv"`, `"symgs"`, `"pcg"`).
    pub kernel: &'static str,
    /// Worker that executed the job (`usize::MAX` for admission rejects).
    pub worker: usize,
    /// Whether every program the job needed came from the conversion cache.
    pub cache_hit: bool,
    /// Time between batch submission and this job's dequeue.
    pub queue_wait: Duration,
    /// Time spent executing (programming + device run).
    pub run_time: Duration,
    /// The job's result.
    pub result: Result<JobOutput>,
}

impl JobRecord {
    /// The admission reject of the job at batch position `job` when the
    /// queue holds `capacity` of `offered`: its backpressure hint ramps
    /// linearly with how far past capacity the job landed.
    fn queue_full(job: usize, kernel: &'static str, capacity: usize, offered: usize) -> Self {
        JobRecord {
            job,
            kernel,
            worker: usize::MAX,
            cache_hit: false,
            queue_wait: Duration::ZERO,
            run_time: Duration::ZERO,
            result: Err(CoreError::QueueFull {
                capacity,
                offered,
                retry_after: backpressure_ramp(
                    RETRY_AFTER_HINT,
                    job.saturating_sub(capacity).saturating_add(1),
                ),
            }),
        }
    }

    fn to_json(&self) -> String {
        let (ok, fingerprint, error) = match &self.result {
            Ok(out) => (
                true,
                format!("\"{:#018x}\"", out.fingerprint()),
                "null".to_owned(),
            ),
            Err(e) => (false, "null".to_owned(), format!("{:?}", e.to_string())),
        };
        format!(
            concat!(
                "{{\"job\":{},\"kernel\":{:?},\"worker\":{},\"cache_hit\":{},",
                "\"queue_wait_us\":{},\"run_time_us\":{},\"ok\":{},",
                "\"fingerprint\":{},\"error\":{}}}"
            ),
            self.job,
            self.kernel,
            if self.worker == usize::MAX {
                -1_i64
            } else {
                self.worker as i64
            },
            self.cache_hit,
            self.queue_wait.as_micros(),
            self.run_time.as_micros(),
            ok,
            fingerprint,
            error,
        )
    }
}

/// Aggregate statistics for one batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Jobs offered to the batch.
    pub jobs: usize,
    /// Jobs that finished with `Ok`.
    pub completed: usize,
    /// Jobs that ran but failed.
    pub failed: usize,
    /// Jobs rejected at admission ([`CoreError::QueueFull`]).
    pub rejected: usize,
    /// Conversion-cache hits during the batch.
    pub cache_hits: u64,
    /// Conversion-cache misses (conversions performed) during the batch.
    pub cache_misses: u64,
    /// Workers that rebuilt their accelerator for a config change.
    pub engine_rebuilds: u64,
    /// Jobs served by a recycled ([`Alrescha::reset`]) accelerator.
    pub engine_reuses: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Wall time of the whole batch.
    pub wall_time: Duration,
    /// Device cycles summed over completed jobs.
    pub total_device_cycles: u64,
    /// Longest queue wait observed.
    pub queue_wait_max: Duration,
    /// Mean queue wait over executed jobs.
    pub queue_wait_mean: Duration,
}

impl FleetStats {
    /// Completed jobs per wall-clock second (0 for an empty batch).
    pub fn jobs_per_second(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"jobs\":{},\"completed\":{},\"failed\":{},\"rejected\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},",
                "\"engine_rebuilds\":{},\"engine_reuses\":{},\"workers\":{},",
                "\"wall_time_us\":{},\"total_device_cycles\":{},",
                "\"queue_wait_max_us\":{},\"queue_wait_mean_us\":{}}}"
            ),
            self.jobs,
            self.completed,
            self.failed,
            self.rejected,
            self.cache_hits,
            self.cache_misses,
            self.engine_rebuilds,
            self.engine_reuses,
            self.workers,
            self.wall_time.as_micros(),
            self.total_device_cycles,
            self.queue_wait_max.as_micros(),
            self.queue_wait_mean.as_micros(),
        )
    }
}

/// Everything a batch produced: one record per submitted job (in submission
/// order) plus aggregate statistics.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-job records, indexed by submission order.
    pub jobs: Vec<JobRecord>,
    /// Aggregate statistics.
    pub stats: FleetStats,
}

impl FleetReport {
    /// Single-line JSON with a stable schema (`stats` object first, then
    /// the `jobs` array in submission order). Job results appear as
    /// determinism fingerprints, not payloads.
    pub fn to_json(&self) -> String {
        let jobs: Vec<String> = self.jobs.iter().map(JobRecord::to_json).collect();
        format!(
            "{{\"stats\":{},\"jobs\":[{}]}}",
            self.stats.to_json(),
            jobs.join(",")
        )
    }
}

// ---------------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------------

/// The batched execution runtime. See the [module docs](self) for the
/// architecture and determinism contract.
pub struct Fleet {
    config: FleetConfig,
    cache: ConversionCache,
    preflight: Option<PreflightHook>,
    checkpoint_hook: Option<CheckpointHook>,
    telemetry: Option<Arc<alrescha_obs::Telemetry>>,
}

impl fmt::Debug for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("config", &self.config)
            .field("cached_programs", &self.cache.len())
            .field("preflight", &self.preflight.is_some())
            .field("checkpoint_hook", &self.checkpoint_hook.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl Fleet {
    /// Builds a fleet; the conversion cache persists across batches.
    pub fn new(config: FleetConfig) -> Self {
        Fleet {
            config,
            cache: ConversionCache::new(),
            preflight: None,
            checkpoint_hook: None,
            telemetry: None,
        }
    }

    /// Installs a preflight hook run on every fresh conversion (cache hits
    /// skip it). Rejections fail the job with [`CoreError::Preflight`].
    #[must_use]
    pub fn with_preflight(mut self, hook: PreflightHook) -> Self {
        self.preflight = Some(hook);
        self
    }

    /// Installs the durability hook that receives every checkpoint a
    /// journaled PCG job emits (see [`JobSpec::with_checkpoint_every`]).
    #[must_use]
    pub fn with_checkpoint_hook(mut self, hook: CheckpointHook) -> Self {
        self.checkpoint_hook = Some(hook);
        self
    }

    /// Attaches an alobs telemetry sink: batch/job spans (one timeline
    /// track per worker thread), device timelines nested inside job spans,
    /// and fleet metrics (queue waits, cache attribution). Job
    /// results stay bit-identical — telemetry only observes.
    #[must_use]
    pub fn with_telemetry(mut self, tele: Arc<alrescha_obs::Telemetry>) -> Self {
        self.telemetry = Some(tele);
        self
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<alrescha_obs::Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Programs currently held by the conversion cache.
    pub fn cached_programs(&self) -> usize {
        self.cache.len()
    }

    /// Runs a batch across the worker threads and returns one record per job,
    /// in submission order.
    ///
    /// Jobs beyond [`FleetConfig::queue_capacity`] are not run; their
    /// records carry [`CoreError::QueueFull`]. Everything else about a
    /// job's result is bit-identical to [`Fleet::run_sequential`].
    pub fn run(&self, jobs: Vec<JobSpec>) -> FleetReport {
        let offered = jobs.len();
        let capacity = self.config.queue_capacity;
        let workers = self.config.resolved_workers();
        let (hits0, misses0) = self.cache.counters();
        let batch_span = alrescha_obs::span!(self.telemetry, format!("fleet:batch:{offered}"));
        let submitted = Instant::now();

        // Admission: everything past the capacity is rejected in-band.
        let rejects: Vec<JobRecord> = jobs
            .iter()
            .enumerate()
            .skip(capacity)
            .map(|(i, spec)| JobRecord::queue_full(i, spec.kernel.name(), capacity, offered))
            .collect();
        let admitted = &jobs[..offered.min(capacity)];

        // Every job is known up front, so one shared cursor balances the
        // batch: each worker claims the next unclaimed job until none is
        // left.
        let cursor = AtomicUsize::new(0);
        let rebuilds = AtomicU64::new(0);
        let reuses = AtomicU64::new(0);
        let drain = |me: usize| {
            let mut station = WorkerStation::new(me);
            let mut out = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = admitted.get(i) else { break };
                // Name the track when its first job starts, so a worker
                // that never gets one leaves no track.
                if out.is_empty() {
                    if let Some(tele) = &self.telemetry {
                        tele.name_thread(format!("worker-{me}"));
                    }
                }
                let queue_wait = submitted.elapsed();
                out.push(self.execute(&mut station, i, spec, queue_wait));
            }
            rebuilds.fetch_add(station.rebuilds, Ordering::Relaxed);
            reuses.fetch_add(station.reuses, Ordering::Relaxed);
            out
        };
        // A worker that cannot be spawned leaves its share to the ones that
        // were; a worker panic reaches the caller once every worker has
        // joined.
        let (spawned, mut records) = thread::scope(|s| {
            let mut handles = Vec::with_capacity(workers);
            for me in 0..workers {
                let drain = &drain;
                match thread::Builder::new().spawn_scoped(s, move || drain(me)) {
                    Ok(h) => handles.push(h),
                    Err(_) => break,
                }
            }
            let spawned = handles.len();
            let records: Vec<JobRecord> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                .collect();
            (spawned, records)
        });
        if spawned == 0 {
            // No thread could be spawned: serve the batch on this thread.
            drop(batch_span);
            let mut report = self.run_sequential(jobs);
            report.stats.workers = 0;
            return report;
        }
        records.extend(rejects);
        records.sort_by_key(|r| r.job);

        let (hits1, misses1) = self.cache.counters();
        let stats = finish_stats(
            &records,
            offered,
            spawned,
            submitted.elapsed(),
            hits1 - hits0,
            misses1 - misses0,
            rebuilds.into_inner(),
            reuses.into_inner(),
        );
        self.publish_batch(&stats);
        FleetReport {
            jobs: records,
            stats,
        }
    }

    /// Publishes one batch's aggregate statistics to the metrics registry.
    fn publish_batch(&self, stats: &FleetStats) {
        let Some(tele) = &self.telemetry else { return };
        let m = tele.metrics();
        m.counter("alrescha_fleet_batches_total", true, "batches executed")
            .inc();
        m.counter(
            "alrescha_fleet_jobs_completed_total",
            true,
            "jobs that finished with Ok",
        )
        .add(stats.completed as u64);
        m.counter(
            "alrescha_fleet_jobs_failed_total",
            true,
            "jobs that ran but failed",
        )
        .add(stats.failed as u64);
        m.counter(
            "alrescha_fleet_jobs_rejected_total",
            true,
            "jobs rejected at admission (queue full)",
        )
        .add(stats.rejected as u64);
        // Two workers racing on the same key can both convert, so hit/miss
        // totals (not just attribution) can vary run-to-run.
        m.counter(
            "alrescha_fleet_cache_hits_total",
            false,
            "conversion-cache hits",
        )
        .add(stats.cache_hits);
        m.counter(
            "alrescha_fleet_cache_misses_total",
            false,
            "conversion-cache misses (conversions performed)",
        )
        .add(stats.cache_misses);
        m.counter(
            "alrescha_fleet_engine_rebuilds_total",
            false,
            "workers that rebuilt their accelerator for a config change",
        )
        .add(stats.engine_rebuilds);
        m.counter(
            "alrescha_fleet_engine_reuses_total",
            false,
            "jobs served by a recycled accelerator",
        )
        .add(stats.engine_reuses);
    }

    /// Reference path: runs every job on this thread with a **fresh**
    /// accelerator per job and no conversion cache. Produces the results
    /// [`Fleet::run`] must match bit-for-bit.
    ///
    /// Admission is applied identically to [`Fleet::run`].
    pub fn run_sequential(&self, jobs: Vec<JobSpec>) -> FleetReport {
        let offered = jobs.len();
        let capacity = self.config.queue_capacity;
        let _batch_span =
            alrescha_obs::span!(self.telemetry, format!("fleet:sequential:{offered}"));
        let submitted = Instant::now();
        let mut records = Vec::with_capacity(offered);
        for (i, spec) in jobs.iter().enumerate() {
            if i >= capacity {
                records.push(JobRecord::queue_full(
                    i,
                    spec.kernel.name(),
                    capacity,
                    offered,
                ));
                continue;
            }
            let mut station = WorkerStation::new(0);
            station.caching = false;
            let queue_wait = submitted.elapsed();
            records.push(self.execute(&mut station, i, spec, queue_wait));
        }
        let stats = finish_stats(&records, offered, 1, submitted.elapsed(), 0, 0, 0, 0);
        self.publish_batch(&stats);
        FleetReport {
            jobs: records,
            stats,
        }
    }

    /// Runs one job on a worker's accelerator, converting (or fetching)
    /// programs as needed.
    fn execute(
        &self,
        station: &mut WorkerStation,
        index: usize,
        spec: &JobSpec,
        queue_wait: Duration,
    ) -> JobRecord {
        let started = Instant::now();
        let kernel = spec.kernel.name();
        let caching = station.caching;
        let mut cache_hit = true;
        let _job_span = if spec.trace_id != 0 {
            alrescha_obs::span!(
                self.telemetry,
                format!("trace:{:016x}:job:{index}:{kernel}", spec.trace_id)
            )
        } else {
            alrescha_obs::span!(self.telemetry, format!("job:{index}:{kernel}"))
        };
        let result = (|| -> Result<JobOutput> {
            let acc = station.accelerator(&spec.config);
            acc.set_telemetry(self.telemetry.clone());
            // Hashed at most once per job: PCG's SpMV and SymGS lookups
            // share it.
            let mut fingerprint = None;
            let mut convert = |acc: &mut Alrescha, kind: KernelType| -> Result<ProgrammedKernel> {
                if caching {
                    let fingerprint =
                        *fingerprint.get_or_insert_with(|| matrix_fingerprint(&spec.matrix));
                    let (prog, hit) = self.cache.get_or_convert(
                        acc,
                        kind,
                        &spec.matrix,
                        fingerprint,
                        self.preflight.as_ref(),
                    )?;
                    cache_hit &= hit;
                    Ok((*prog).clone())
                } else {
                    cache_hit = false;
                    let prog = acc.program(kind, &spec.matrix)?;
                    if let Some(hook) = &self.preflight {
                        hook(&prog, acc.config())
                            .map_err(|message| CoreError::Preflight { message })?;
                    }
                    Ok(prog)
                }
            };
            match &spec.kernel {
                JobKernel::SpMv { x } => {
                    let prog = convert(acc, KernelType::SpMv)?;
                    arm(acc, spec);
                    let (y, report) = acc.spmv(&prog, x)?;
                    Ok(JobOutput::SpMv { y, report })
                }
                JobKernel::SymGs { b, x0 } => {
                    let prog = convert(acc, KernelType::SymGs)?;
                    arm(acc, spec);
                    let mut x = x0.clone();
                    let report = acc.symgs(&prog, b, &mut x)?;
                    Ok(JobOutput::SymGs { x, report })
                }
                JobKernel::Pcg { b, opts } => {
                    let spmv_prog = convert(acc, KernelType::SpMv)?;
                    let symgs_prog = convert(acc, KernelType::SymGs)?;
                    let solver = AcceleratedPcg::from_programs(spmv_prog, symgs_prog)?;
                    arm(acc, spec);
                    let journaled = spec.checkpoint_every > 0 || spec.resume_from.is_some();
                    let outcome = if journaled {
                        let job_id = spec.id.unwrap_or(index as u64);
                        let hook = self.checkpoint_hook.as_ref();
                        let mut sink = |cp: SolverCheckpoint| {
                            if let Some(hook) = hook {
                                hook(job_id, &cp);
                            }
                        };
                        solver.solve_journaled(
                            acc,
                            b,
                            opts,
                            spec.checkpoint_every,
                            &mut sink,
                            spec.resume_from.as_ref(),
                        )?
                    } else {
                        solver.solve(acc, b, opts)?
                    };
                    Ok(JobOutput::Pcg { outcome })
                }
            }
        })();
        let run_time = started.elapsed();
        if let Some(tele) = &self.telemetry {
            let m = tele.metrics();
            m.histogram(
                "alrescha_fleet_queue_wait_us",
                alrescha_obs::MICROS_BUCKETS,
                false,
                "time between batch submission and job dequeue",
            )
            .observe(queue_wait.as_micros().min(u128::from(u64::MAX)) as u64);
            m.histogram(
                "alrescha_fleet_run_time_us",
                alrescha_obs::MICROS_BUCKETS,
                false,
                "time spent executing a job (programming + device run)",
            )
            .observe(run_time.as_micros().min(u128::from(u64::MAX)) as u64);
        }
        JobRecord {
            job: index,
            kernel,
            worker: station.worker,
            cache_hit: cache_hit && result.is_ok(),
            queue_wait,
            run_time,
            result,
        }
    }
    /// A long-lived execution seat for one service worker thread: wraps a
    /// worker station so a daemon can run jobs one at a time while still
    /// sharing the fleet's conversion cache, preflight hook, checkpoint
    /// hook, and telemetry. `worker` labels the seat in job records.
    pub fn station(&self, worker: usize) -> Station {
        Station(WorkerStation::new(worker))
    }

    /// Runs one job on a [`Station`], bypassing batch admission (the
    /// caller — typically a persistent service — has already admitted it).
    /// Results are bit-identical to the same spec run via [`Fleet::run`].
    pub fn execute_on(
        &self,
        station: &mut Station,
        index: usize,
        spec: &JobSpec,
        queue_wait: Duration,
    ) -> JobRecord {
        self.execute(&mut station.0, index, spec, queue_wait)
    }
}

/// A persistent per-thread execution seat handed out by [`Fleet::station`].
pub struct Station(WorkerStation);

impl fmt::Debug for Station {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Station")
            .field("worker", &self.0.worker)
            .field("rebuilds", &self.0.rebuilds)
            .field("reuses", &self.0.reuses)
            .finish()
    }
}

/// One worker's long-lived state: its accelerator, recycled between jobs
/// and rebuilt only when a job carries a different [`SimConfig`].
struct WorkerStation {
    worker: usize,
    acc: Option<Alrescha>,
    caching: bool,
    rebuilds: u64,
    reuses: u64,
}

impl WorkerStation {
    fn new(worker: usize) -> Self {
        WorkerStation {
            worker,
            acc: None,
            caching: true,
            rebuilds: 0,
            reuses: 0,
        }
    }

    /// The worker's accelerator, reset for a new job; rebuilt when the
    /// job's configuration differs from the current one.
    fn accelerator(&mut self, config: &SimConfig) -> &mut Alrescha {
        let rebuild = match &self.acc {
            Some(acc) => acc.config() != config,
            None => true,
        };
        if rebuild {
            self.rebuilds += 1;
            self.acc = Some(Alrescha::new(config.clone()));
        } else {
            self.reuses += 1;
            if let Some(acc) = self.acc.as_mut() {
                acc.reset();
            }
        }
        // The line above guarantees presence; avoid unwrap under the
        // crate-wide unwrap ban by inserting on the (unreachable) None arm.
        self.acc
            .get_or_insert_with(|| Alrescha::new(config.clone()))
    }
}

/// Arms per-job runtime state on a (fresh or reset) accelerator.
fn arm(acc: &mut Alrescha, spec: &JobSpec) {
    acc.set_fault_plan(spec.fault_plan.clone());
    acc.set_recovery_policy(spec.recovery);
    acc.set_cpu_only(spec.cpu_only);
}

#[allow(clippy::too_many_arguments)]
fn finish_stats(
    records: &[JobRecord],
    offered: usize,
    workers: usize,
    wall_time: Duration,
    cache_hits: u64,
    cache_misses: u64,
    engine_rebuilds: u64,
    engine_reuses: u64,
) -> FleetStats {
    let mut stats = FleetStats {
        jobs: offered,
        workers,
        wall_time,
        cache_hits,
        cache_misses,
        engine_rebuilds,
        engine_reuses,
        ..FleetStats::default()
    };
    let mut wait_total = Duration::ZERO;
    let mut executed = 0u32;
    for r in records {
        match &r.result {
            Ok(out) => {
                stats.completed += 1;
                stats.total_device_cycles += out.report().cycles;
            }
            Err(CoreError::QueueFull { .. }) => {
                stats.rejected += 1;
                continue;
            }
            Err(_) => stats.failed += 1,
        }
        executed += 1;
        wait_total += r.queue_wait;
        stats.queue_wait_max = stats.queue_wait_max.max(r.queue_wait);
    }
    if executed > 0 {
        stats.queue_wait_mean = wait_total / executed;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::gen;

    fn spmv_jobs(n_jobs: usize, grid: usize) -> Vec<JobSpec> {
        let a = gen::stencil27(grid);
        let x: Vec<f64> = (0..a.cols()).map(|i| 1.0 + (i % 7) as f64).collect();
        (0..n_jobs)
            .map(|_| JobSpec::new(a.clone(), JobKernel::SpMv { x: x.clone() }))
            .collect()
    }

    #[test]
    fn repeated_matrix_hits_the_cache() {
        let fleet = Fleet::new(FleetConfig::default().with_workers(2));
        let report = fleet.run(spmv_jobs(6, 3));
        assert_eq!(report.stats.completed, 6);
        assert_eq!(report.stats.cache_misses, 1);
        assert_eq!(report.stats.cache_hits, 5);
        assert_eq!(report.jobs.iter().filter(|r| r.cache_hit).count(), 5);
        assert_eq!(fleet.cached_programs(), 1);
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let a = gen::stencil27(3);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut jobs = spmv_jobs(3, 3);
        jobs.push(JobSpec::new(
            a.clone(),
            JobKernel::SymGs {
                b: b.clone(),
                x0: vec![0.0; n],
            },
        ));
        jobs.push(JobSpec::new(
            a,
            JobKernel::Pcg {
                b,
                opts: SolverOptions {
                    tol: 1e-8,
                    max_iters: 50,
                },
            },
        ));

        let fleet = Fleet::new(FleetConfig::default().with_workers(3));
        let batch = fleet.run(jobs.clone());
        let sequential = Fleet::new(FleetConfig::default()).run_sequential(jobs);
        assert_eq!(batch.jobs.len(), sequential.jobs.len());
        for (b_rec, s_rec) in batch.jobs.iter().zip(&sequential.jobs) {
            assert_eq!(b_rec.job, s_rec.job);
            let (b_out, s_out) = match (&b_rec.result, &s_rec.result) {
                (Ok(b), Ok(s)) => (b, s),
                other => panic!("job {} diverged: {other:?}", b_rec.job),
            };
            assert_eq!(
                b_out.fingerprint(),
                s_out.fingerprint(),
                "job {} not bit-identical",
                b_rec.job
            );
        }
    }

    #[test]
    fn per_job_fault_plans_stay_isolated() {
        // Same matrix, different fault plans: each job's injector cursor is
        // private, so a faulty job does not perturb a clean one.
        let a = gen::stencil27(3);
        let x = vec![1.0; a.cols()];
        let clean = JobSpec::new(a.clone(), JobKernel::SpMv { x: x.clone() });
        let faulty = JobSpec::new(a, JobKernel::SpMv { x })
            .with_fault_plan(FaultPlan::inert(11).with_fcu_tree_rate(1.0))
            .with_recovery(RecoveryPolicy::default());
        let jobs = vec![clean.clone(), faulty, clean];

        let fleet = Fleet::new(FleetConfig::default().with_workers(2));
        let batch = fleet.run(jobs.clone());
        let sequential = Fleet::new(FleetConfig::default()).run_sequential(jobs);
        for (b_rec, s_rec) in batch.jobs.iter().zip(&sequential.jobs) {
            match (&b_rec.result, &s_rec.result) {
                (Ok(b), Ok(s)) => assert_eq!(b.fingerprint(), s.fingerprint()),
                (Err(b), Err(s)) => assert_eq!(b, s),
                other => panic!("job {} diverged: {other:?}", b_rec.job),
            }
        }
        // Jobs 0 and 2 are identical clean runs: bit-identical outputs.
        let f0 = batch.jobs[0].result.as_ref().map(JobOutput::fingerprint);
        let f2 = batch.jobs[2].result.as_ref().map(JobOutput::fingerprint);
        assert_eq!(f0.ok(), f2.ok());
    }

    #[test]
    fn admission_rejects_past_capacity() {
        let fleet = Fleet::new(
            FleetConfig::default()
                .with_workers(1)
                .with_queue_capacity(2),
        );
        let hint = RETRY_AFTER_HINT;
        let report = fleet.run(spmv_jobs(4, 2));
        assert_eq!(report.stats.completed, 2);
        assert_eq!(report.stats.rejected, 2);
        // The backpressure hint ramps linearly with distance past capacity,
        // independent of worker count or timing.
        match (&report.jobs[2].result, &report.jobs[3].result) {
            (
                Err(CoreError::QueueFull {
                    capacity: 2,
                    offered: 4,
                    retry_after: first,
                }),
                Err(CoreError::QueueFull {
                    capacity: 2,
                    offered: 4,
                    retry_after: second,
                }),
            ) => {
                assert_eq!(*first, hint);
                assert_eq!(*second, hint * 2);
            }
            other => panic!("expected two QueueFull rejections, got {other:?}"),
        }
        assert_eq!(report.jobs[3].worker, usize::MAX);
    }

    #[test]
    fn journaled_pcg_emits_checkpoints_and_resumes_bit_identically() {
        let a = gen::stencil27(3);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let opts = SolverOptions {
            tol: 1e-10,
            max_iters: 60,
        };
        let base = JobSpec::new(a, JobKernel::Pcg { b, opts });

        // Uninterrupted journaled run: collect every checkpoint.
        let taken: Arc<Mutex<Vec<(u64, SolverCheckpoint)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&taken);
        let hook: CheckpointHook = Arc::new(move |id, cp| {
            lock(&sink).push((id, cp.clone()));
        });
        let fleet = Fleet::new(FleetConfig::default().with_workers(1)).with_checkpoint_hook(hook);
        let full = fleet.run(vec![base.clone().with_id(42).with_checkpoint_every(3)]);
        let full_out = full.jobs[0]
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("journaled solve failed: {e}"));
        let checkpoints = lock(&taken).clone();
        assert!(
            !checkpoints.is_empty(),
            "expected checkpoints every 3 iterations"
        );
        assert!(checkpoints.iter().all(|(id, _)| *id == 42));

        // Resume from a mid-solve checkpoint: the solution fingerprint
        // (resume-invariant fields) must match the uninterrupted run.
        let (_, mid) = checkpoints[checkpoints.len() / 2].clone();
        let resumed = fleet.run(vec![base.with_resume_from(mid)]);
        let resumed_out = resumed.jobs[0]
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("resumed solve failed: {e}"));
        assert_eq!(
            full_out.solution_fingerprint(),
            resumed_out.solution_fingerprint()
        );
        // The full fingerprint differs: the resumed report only covers the
        // tail iterations — exactly why solution_fingerprint exists.
        assert_ne!(full_out.fingerprint(), resumed_out.fingerprint());
    }

    #[test]
    fn station_execution_matches_batch_bitwise() {
        let jobs = spmv_jobs(3, 3);
        let fleet = Fleet::new(FleetConfig::default().with_workers(1));
        let batch = fleet.run(jobs.clone());
        let service = Fleet::new(FleetConfig::default());
        let mut station = service.station(0);
        for (i, spec) in jobs.iter().enumerate() {
            let rec = service.execute_on(&mut station, i, spec, Duration::ZERO);
            let (b_out, s_out) = match (&batch.jobs[i].result, &rec.result) {
                (Ok(b), Ok(s)) => (b, s),
                other => panic!("job {i} diverged: {other:?}"),
            };
            assert_eq!(b_out.fingerprint(), s_out.fingerprint());
        }
    }

    #[test]
    fn cpu_only_job_matches_device_solution() {
        // Host and device agree to rounding (the accumulation order
        // differs), and the cpu-only report shows no device activity.
        let jobs = spmv_jobs(1, 3);
        let device = Fleet::new(FleetConfig::default().with_workers(1)).run(jobs.clone());
        let cpu_jobs: Vec<JobSpec> = jobs.into_iter().map(|j| j.with_cpu_only(true)).collect();
        let cpu = Fleet::new(FleetConfig::default().with_workers(1)).run(cpu_jobs);
        let (d, c) = match (&device.jobs[0].result, &cpu.jobs[0].result) {
            (Ok(d), Ok(c)) => (d, c),
            other => panic!("diverged: {other:?}"),
        };
        assert!(alrescha_sparse::approx_eq(d.values(), c.values(), 1e-12));
        assert_eq!(c.report().cycles, 0);
        assert_eq!(c.report().faults.degraded, 0);
    }

    #[test]
    fn preflight_rejection_fails_the_job_once() {
        let hook: PreflightHook =
            Arc::new(|prog, _config| Err(format!("synthetic rejection of {:?}", prog.kernel())));
        let fleet = Fleet::new(FleetConfig::default().with_workers(2)).with_preflight(hook);
        let report = fleet.run(spmv_jobs(3, 2));
        assert_eq!(report.stats.failed, 3);
        for rec in &report.jobs {
            assert!(matches!(rec.result, Err(CoreError::Preflight { .. })));
        }
        // Rejected programs are never cached.
        assert_eq!(fleet.cached_programs(), 0);
    }

    #[test]
    fn config_change_rebuilds_the_worker_engine() {
        let a = gen::stencil27(2);
        let x = vec![1.0; a.cols()];
        let jobs = vec![
            JobSpec::new(a.clone(), JobKernel::SpMv { x: x.clone() }),
            JobSpec::new(a.clone(), JobKernel::SpMv { x: x.clone() })
                .with_config(SimConfig::paper().with_omega(4)),
            JobSpec::new(a, JobKernel::SpMv { x }),
        ];
        let fleet = Fleet::new(FleetConfig::default().with_workers(1));
        let report = fleet.run(jobs);
        assert_eq!(report.stats.completed, 3);
        // ω=8, then ω=4, then ω=8 again: three rebuilds on one worker.
        assert_eq!(report.stats.engine_rebuilds, 3);
        assert_eq!(report.stats.engine_reuses, 0);
        // Distinct ω values convert separately.
        assert_eq!(report.stats.cache_misses, 2);
        assert_eq!(report.stats.cache_hits, 1);
    }

    #[test]
    fn fleet_report_json_is_balanced_and_stable() {
        let fleet = Fleet::new(FleetConfig::default().with_workers(1));
        let report = fleet.run(spmv_jobs(2, 2));
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        for key in [
            "\"stats\":",
            "\"jobs\":",
            "\"cache_hits\":",
            "\"fingerprint\":",
            "\"queue_wait_us\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains(",}"));
    }

    #[test]
    fn matrix_fingerprint_separates_value_bits() {
        let mut a = Coo::new(2, 2);
        a.push(0, 0, 1.0);
        let mut b = Coo::new(2, 2);
        b.push(0, 0, -1.0);
        assert_ne!(matrix_fingerprint(&a), matrix_fingerprint(&b));
        assert_eq!(matrix_fingerprint(&a), matrix_fingerprint(&a.clone()));
    }

    #[test]
    fn matrix_fingerprint_separates_every_word_and_bit() {
        let base = gen::stencil27(2);
        let fp = matrix_fingerprint(&base);
        let mut seen = vec![fp];
        // Flip each bit of one entry's row, column and value word, and
        // swap the coordinates of an off-diagonal entry.
        let (r0, c0, v0) = base.entries()[1];
        for bit in 0..64 {
            let mut value = base.entries().to_vec();
            value[1].2 = f64::from_bits(v0.to_bits() ^ (1 << bit));
            let mut with = Coo::new(base.rows(), base.cols());
            with.extend(value);
            seen.push(matrix_fingerprint(&with));
        }
        for (r, c) in [(r0 ^ 1, c0), (r0, c0 ^ 1), (c0, r0)] {
            let mut moved = base.entries().to_vec();
            moved[1].0 = r;
            moved[1].1 = c;
            let mut with = Coo::new(base.rows(), base.cols());
            with.extend(moved);
            seen.push(matrix_fingerprint(&with));
        }
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "two distinct matrices shared a fingerprint");
    }
}
