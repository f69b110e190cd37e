//! The execution engine: drives the FCU/RCU/cache/memory models through a
//! locally-dense matrix, producing both the functional result and a
//! cycle-accurate [`ExecutionReport`].
//!
//! # Timing model
//!
//! The engine charges, per locally-dense block, the maximum of the memory
//! cycles (payload streaming plus any vector-chunk fills) and the compute
//! cycles of the active data path:
//!
//! * **GEMV / D-BFS / D-SSSP / D-PR** — fully pipelined: one ω-element block
//!   row enters the FCU per cycle, so a block costs ω compute cycles.
//! * **D-SymGS** — the recurrence of Figure 10: each of the ω steps waits
//!   for the previous `xⱼ` to traverse multiplier → reduction tree → PE,
//!   i.e. [`SimConfig::dsymgs_step_latency`] cycles per step.
//!
//! Switching data paths drains the reduction tree; the RCU switch is
//! reprogrammed inside that drain window (§4.4), so only the drain itself
//! (and any exposed remainder) appears on the critical path.
//!
//! Vector-operand chunks are prefetched into the local cache under the
//! guidance of the configuration table (`Inx_in` is known ahead of time), so
//! a chunk miss consumes memory bandwidth but no exposed latency; cache
//! access time is tracked separately for the Figure 18 analysis.

use alrescha_sparse::{alf::AlfLayout, Alf, AlfBlock, BlockKind};

use crate::cache::LocalCache;
use crate::config::SimConfig;
use crate::energy::EnergyCounters;
use crate::error::{Result, SimError};
use crate::fault::{
    self, FaultCounters, FaultInjector, FaultPlan, FaultSite, InjectorSnapshot, RecoveryPolicy,
};
use crate::fcu::{Fcu, Reduce};
use crate::memo::{self, Timing, TimingMemo};
use crate::memory::MemoryStream;
use crate::rcu::{DataPathKind, Rcu};
use crate::report::{CacheStats, DataPathCounts, ExecutionReport};
use crate::runtime::ExecBudget;
use crate::trace::TraceEvent;

/// Distance value marking an unreached vertex in graph kernels.
pub const UNREACHED: f64 = f64::INFINITY;

/// Options for the simulated PageRank driver.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor.
    pub damping: f64,
    /// L1 convergence threshold.
    pub tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tol: 1e-10,
            max_iters: 200,
        }
    }
}

/// Cycle-level accelerator engine.
///
/// # Example
///
/// ```
/// use alrescha_sim::{Engine, SimConfig};
/// use alrescha_sparse::{alf::AlfLayout, gen, Alf};
///
/// let coo = gen::stencil27(2);
/// let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming)?;
/// let x = vec![1.0; a.cols()];
/// let mut engine = Engine::new(SimConfig::paper());
/// let (y, report) = engine.run_spmv(&a, &x)?;
/// assert_eq!(y.len(), a.rows());
/// assert!(report.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    config: SimConfig,
    fcu: Fcu,
    rcu: Rcu,
    cache: LocalCache,
    /// Cache-port cycles of one full ω-chunk, ⌈ω / values per line⌉.
    chunk_lines: u64,
    trace: crate::trace::Trace,
    faults: Option<FaultInjector>,
    recovery: RecoveryPolicy,
    budget: ExecBudget,
    telemetry: Option<EngineTelemetry>,
    scratch: Scratch,
    /// Device timings of fault-free SpMV calls and SOR sweeps (see
    /// [`crate::memo`]): a repeated call runs only its value walk.
    memo: TimingMemo,
}

/// Engine-owned scratch buffers, reused by every run so that the
/// fault-free hot path makes no heap allocation per block. Every run
/// overwrites what it reads before reading it, so no state can leak from
/// one run into the next; [`Engine::reset`] keeps their capacity but drops
/// their contents.
#[derive(Debug, Default)]
struct Scratch {
    /// The ω outputs of the block in flight: GEMV dot products, or
    /// min-plus candidates for its valid rows.
    dots: Vec<f64>,
    /// The ω-chunk of the vector operand a block multiplies.
    operand: Vec<f64>,
    /// One ω-wide row in logical lane order, for the row kernel: a
    /// checked GEMV attempt's (possibly stuck-at corrupted) payload row,
    /// or a CSR chunk's values.
    row: Vec<f64>,
    /// SymGS block-row index: the blocks of block row `r` are
    /// `row_blocks[row_start[r]..row_start[r + 1]]`, in stream order.
    row_start: Vec<usize>,
    row_blocks: Vec<usize>,
    /// The link stack of the block row in flight: ω GEMV dots per
    /// off-diagonal block, one frame per block in stream order, each dot
    /// at its lane's offset within its frame.
    link: Vec<f64>,
    /// Per-lane sum of the link-stack pops feeding one D-SymGS block.
    partial: Vec<f64>,
    /// PageRank's per-iteration contribution and next-rank vectors.
    contrib: Vec<f64>,
    next: Vec<f64>,
}

impl Scratch {
    /// Drops every buffer's contents, keeping the allocations.
    fn clear(&mut self) {
        for v in [
            &mut self.dots,
            &mut self.operand,
            &mut self.row,
            &mut self.link,
            &mut self.partial,
            &mut self.contrib,
            &mut self.next,
        ] {
            v.clear();
        }
        self.row_start.clear();
        self.row_blocks.clear();
    }

    /// Indexes `a`'s blocks by block row (a stable counting sort, so each
    /// row keeps its stream order).
    fn index_block_rows(&mut self, a: &Alf) {
        let rows = a.block_rows();
        self.row_start.clear();
        self.row_start.resize(rows + 1, 0);
        let headers = a.block_row_headers();
        for &br in headers {
            self.row_start[br + 1] += 1;
        }
        for r in 0..rows {
            self.row_start[r + 1] += self.row_start[r];
        }
        // Fill using row_start[r] as row r's cursor, which leaves it at the
        // start of row r + 1; shifting right restores the starts.
        self.row_blocks.clear();
        self.row_blocks.resize(headers.len(), 0);
        for (k, &br) in headers.iter().enumerate() {
            let cursor = &mut self.row_start[br];
            self.row_blocks[*cursor] = k;
            *cursor += 1;
        }
        self.row_start.copy_within(0..rows, 1);
        self.row_start[0] = 0;
    }

    /// One GEMV block's values: its ω dot products with the chunk of `x`
    /// it multiplies, left in `dots`.
    fn gemv(&mut self, fcu: &mut Fcu, block: AlfBlock<'_>, x: &[f64]) {
        let omega = fcu.omega();
        let operand = operand_chunk(&mut self.operand, x, block.block_col() * omega, omega);
        self.dots.resize(omega, 0.0);
        fcu.gemv_block(block.payload(), block.reversed(), operand, &mut self.dots);
    }

    /// Pops the whole link stack into `partial`, the per-lane sum of the
    /// GEMV results feeding one D-SymGS block. The stack drains in LIFO
    /// order: frame by frame from the last pushed, the order each lane's
    /// partial sum adds in.
    fn reduce_link_stack(&mut self, omega: usize) {
        self.partial.clear();
        self.partial.resize(omega, 0.0);
        for frame in self.link.rchunks_exact(omega) {
            for (sum, &dot) in self.partial.iter_mut().zip(frame) {
                *sum += dot;
            }
        }
    }
}

/// Adds a block row's ω dots into `y` from row `row_base` on (a padded
/// tail's dots fall off the end).
fn add_dots(y: &mut [f64], row_base: usize, dots: &[f64]) {
    for (i, dot) in dots.iter().enumerate() {
        if let Some(yi) = y.get_mut(row_base + i) {
            *yi += dot;
        }
    }
}

/// Whether a relaxation factor is 1, so the PE skips the SOR blend.
fn unit_relaxation(omega_relax: f64) -> bool {
    (omega_relax - 1.0).abs() < f64::EPSILON
}

/// The PE's update of one row: `sum / diag`, blended with the row's old
/// value `old` when the relaxation factor is not 1.
fn sor_blend(old: f64, sum: f64, diag: f64, omega_relax: f64) -> f64 {
    if unit_relaxation(omega_relax) {
        sum / diag
    } else {
        (1.0 - omega_relax) * old + omega_relax * sum / diag
    }
}

/// The fixed inputs of one SymGS/SOR sweep.
#[derive(Clone, Copy)]
struct Sweep<'a> {
    a: &'a Alf,
    b: &'a [f64],
    backward: bool,
    omega_relax: f64,
}

impl Sweep<'_> {
    /// The block rows in the order the sweep visits them.
    fn block_row_order(&self) -> impl Iterator<Item = usize> {
        let (rows, backward) = (self.a.block_rows(), self.backward);
        (0..rows).map(move |step| if backward { rows - 1 - step } else { step })
    }
}

/// The ω-chunk of `x` starting at `start`, read in place when it lies
/// wholly inside `x`; a chunk running past the end is copied into `buf`,
/// with the lanes past the end of `x` padded with zeros.
fn operand_chunk<'a>(buf: &'a mut Vec<f64>, x: &'a [f64], start: usize, omega: usize) -> &'a [f64] {
    if let Some(chunk) = x.get(start..start + omega) {
        return chunk;
    }
    let end = (start + omega).min(x.len());
    buf.clear();
    buf.extend_from_slice(&x[start.min(end)..end]);
    buf.resize(omega, 0.0);
    buf
}

/// Cached alobs handles: registered once at [`Engine::set_telemetry`] so
/// the per-block hot path is a gated atomic op, never a registry lookup.
#[derive(Debug)]
struct EngineTelemetry {
    tele: std::sync::Arc<alrescha_obs::Telemetry>,
    runs: alrescha_obs::Counter,
    cycles: alrescha_obs::Counter,
    blocks: alrescha_obs::Counter,
    cycles_per_block: alrescha_obs::Histogram,
    cache_read_hits: alrescha_obs::Counter,
    cache_read_misses: alrescha_obs::Counter,
    cache_writes: alrescha_obs::Counter,
    cache_hit_rate: alrescha_obs::Gauge,
    reconfig_switches: alrescha_obs::Counter,
    reconfig_exposed: alrescha_obs::Counter,
    reconfig_hidden: alrescha_obs::Counter,
    faults_detected: alrescha_obs::Counter,
    faults_recovered: alrescha_obs::Counter,
    fault_retries: alrescha_obs::Counter,
    recovery_cycles: alrescha_obs::Counter,
    checkpoint_writes: alrescha_obs::Counter,
    checkpoint_bytes: alrescha_obs::Counter,
    memo_hits: alrescha_obs::Counter,
    memo_misses: alrescha_obs::Counter,
}

impl EngineTelemetry {
    fn new(tele: &std::sync::Arc<alrescha_obs::Telemetry>) -> Self {
        let m = tele.metrics();
        EngineTelemetry {
            tele: std::sync::Arc::clone(tele),
            runs: m.counter("alrescha_engine_runs_total", true, "kernel runs executed"),
            cycles: m.counter("alrescha_engine_cycles_total", true, "simulated cycles"),
            blocks: m.counter(
                "alrescha_engine_blocks_total",
                true,
                "locally-dense blocks executed (all data paths)",
            ),
            cycles_per_block: m.histogram(
                "alrescha_engine_cycles_per_block",
                alrescha_obs::CYCLE_BUCKETS,
                true,
                "cycles charged per locally-dense block",
            ),
            cache_read_hits: m.counter("alrescha_cache_read_hits_total", true, "cache read hits"),
            cache_read_misses: m.counter(
                "alrescha_cache_read_misses_total",
                true,
                "cache read misses",
            ),
            cache_writes: m.counter("alrescha_cache_writes_total", true, "cache writes"),
            // Reads only: hits / (hits + misses). Writes are write-allocate
            // traffic and must not inflate the denominator.
            cache_hit_rate: m.gauge(
                "alrescha_cache_hit_rate",
                true,
                "read hit rate of the last run: hits / (hits + misses)",
            ),
            reconfig_switches: m.counter(
                "alrescha_reconfig_switches_total",
                true,
                "RCU data-path switches",
            ),
            reconfig_exposed: m.counter(
                "alrescha_reconfig_exposed_stall_cycles_total",
                true,
                "reconfiguration stall cycles not hidden by the drain",
            ),
            reconfig_hidden: m.counter(
                "alrescha_reconfig_hidden_cycles_total",
                true,
                "reconfiguration cycles hidden under the drain",
            ),
            faults_detected: m.counter(
                "alrescha_faults_detected_total",
                true,
                "injected faults caught by ABFT/structural checks",
            ),
            faults_recovered: m.counter(
                "alrescha_faults_recovered_total",
                true,
                "detected faults cleared by retry",
            ),
            fault_retries: m.counter("alrescha_fault_retries_total", true, "recovery retries"),
            recovery_cycles: m.counter(
                "alrescha_recovery_cycles_total",
                true,
                "cycles spent on recovery redo and backoff",
            ),
            checkpoint_writes: m.counter(
                "alrescha_checkpoint_writes_total",
                true,
                "solver checkpoints serialized",
            ),
            checkpoint_bytes: m.counter(
                "alrescha_checkpoint_bytes_total",
                true,
                "encoded checkpoint bytes",
            ),
            // Nondeterministic: whether a call hits depends on what the
            // engine ran before, which a fleet's scheduling decides.
            memo_hits: m.counter(
                "alrescha_engine_timing_memo_hits_total",
                false,
                "SpMV calls and SOR sweeps timed from the timing memo",
            ),
            memo_misses: m.counter(
                "alrescha_engine_timing_memo_misses_total",
                false,
                "fault-free SpMV calls and SOR sweeps timed in full and memoised",
            ),
        }
    }
}

/// Per-run mutable accounting.
#[derive(Debug)]
struct RunState {
    kernel: &'static str,
    reduce: Reduce,
    cycles: u64,
    memory: MemoryStream,
    cache_busy: u64,
    counts: DataPathCounts,
    cache_base: (u64, u64, u64), // (hits, misses, writes) at run start
    reconfig_base: crate::rcu::ReconfigStats,
    breakdown: crate::report::CycleBreakdown,
    fault_base: FaultCounters,
    wall_start: std::time::Instant,
    arming: Arming,
    /// Where this run's timing goes into the memo when it finishes.
    memo_key: Option<memo::Key>,
}

/// A run's telemetry state, taken as it starts.
#[derive(Debug, Clone, Copy)]
struct Arming {
    /// Telemetry was attached and enabled when the run began; the trace
    /// events from `trace_base` on belong to this run's device timeline.
    armed: bool,
    trace_base: usize,
    t0_ns: u64,
}

/// A memo hit in flight: the timing to replay once the value walk is done.
struct Hit {
    slot: usize,
    arming: Arming,
}

// Word-address regions for the cached vector operands.
const REGION_X: usize = 0;
const REGION_B: usize = 2 << 28;
const REGION_DIAG: usize = 3 << 28;

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        let fcu = Fcu::new(&config);
        let rcu = Rcu::new(&config);
        let cache = LocalCache::new(&config);
        let chunk_lines = config.omega.div_ceil(config.values_per_line()) as u64;
        Engine {
            config,
            fcu,
            rcu,
            cache,
            chunk_lines,
            trace: crate::trace::Trace::new(),
            faults: None,
            recovery: RecoveryPolicy::default(),
            budget: ExecBudget::default(),
            telemetry: None,
            scratch: Scratch::default(),
            memo: TimingMemo::default(),
        }
    }

    /// Recycles the engine for a new, unrelated workload: every piece of
    /// engine-lifetime state — RCU data-path wiring and reconfiguration
    /// statistics, energy counters, cache contents and counters, the trace
    /// log, the fault plan, the recovery policy, and the budget — returns
    /// to its just-built value, while config-derived allocations are kept.
    /// The hot-path scratch buffers keep their capacity but no contents,
    /// and the timing memo keeps its entries: they hold only deterministic
    /// facts about this configuration.
    ///
    /// The contract (relied on by per-worker engine reuse in the batch
    /// runtime, and asserted by `recycled_engine_is_bit_identical` below)
    /// is that a recycled engine produces bit-identical results *and*
    /// reports to a freshly constructed `Engine::new(config)`.
    pub fn reset(&mut self) {
        self.fcu.reset();
        self.rcu.reset();
        self.cache.reset();
        self.trace = crate::trace::Trace::new();
        self.faults = None;
        self.recovery = RecoveryPolicy::default();
        self.budget = ExecBudget::default();
        self.scratch.clear();
        // Telemetry is an observer, not engine state: it never feeds results
        // or reports, so keeping it attached preserves the bit-identical
        // recycled-engine contract while letting long-lived workers keep
        // streaming spans across jobs.
    }

    /// Arms cycle/wall-clock limits and the progress-watchdog window for
    /// all subsequent runs (default: [`ExecBudget::none`], fully open).
    pub fn set_budget(&mut self, budget: ExecBudget) {
        self.budget = budget;
    }

    /// The active execution budget.
    pub fn budget(&self) -> ExecBudget {
        self.budget
    }

    /// Captures the fault injector's mutable state (RNG cursor, cycle,
    /// counters) for embedding in a solver checkpoint. `None` when no
    /// fault plan is armed.
    pub fn fault_snapshot(&self) -> Option<InjectorSnapshot> {
        self.faults.as_ref().map(FaultInjector::snapshot)
    }

    /// Restores injector state captured by [`Engine::fault_snapshot`]; a
    /// no-op when no fault plan is armed.
    pub fn restore_fault_snapshot(&mut self, snap: &InjectorSnapshot) {
        if let Some(inj) = &self.faults {
            inj.restore(snap);
        }
    }

    /// Arms (or, with `None`, disarms) deterministic fault injection for
    /// all subsequent runs. The injector is shared with the FCU, the RCU,
    /// the local cache, and each run's memory stream.
    ///
    /// Attaching an *inert* plan ([`FaultPlan::inert`]) enables the ABFT
    /// verification machinery without perturbing anything: results and
    /// timing stay bit-identical to an un-instrumented engine.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.map(FaultInjector::new);
        self.fcu.attach_injector(self.faults.clone());
        self.rcu.attach_injector(self.faults.clone());
        self.cache.attach_injector(self.faults.clone());
    }

    /// Sets what the engine does when a fault is detected (default:
    /// [`RecoveryPolicy::FailFast`]).
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// The active recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The armed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Turns on event tracing (see [`crate::trace`]).
    pub fn enable_tracing(&mut self) {
        self.trace.enable();
    }

    /// Takes the recorded trace events (empty unless tracing is enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Attaches (or, with `None`, detaches) an alobs telemetry sink. Metric
    /// handles are registered once here; per-run publication afterwards is
    /// a handful of gated atomic adds.
    ///
    /// While telemetry is attached *and enabled*, each run auto-enables
    /// event tracing and consumes its own events when the run finishes to
    /// build a device timeline, so [`Engine::take_trace`] only returns
    /// events recorded outside runs (e.g. checkpoint writes). Detaching
    /// does not disable tracing that was enabled explicitly.
    pub fn set_telemetry(&mut self, tele: Option<std::sync::Arc<alrescha_obs::Telemetry>>) {
        self.telemetry = tele.map(|t| EngineTelemetry::new(&t));
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&std::sync::Arc<alrescha_obs::Telemetry>> {
        self.telemetry.as_ref().map(|et| &et.tele)
    }

    /// Records a solver checkpoint serialization against this engine's
    /// trace and metrics. Called by the host solver loop between runs.
    pub fn note_checkpoint_write(&mut self, bytes: u64) {
        self.trace.record(TraceEvent::CheckpointWrite { bytes });
        if let Some(et) = &self.telemetry {
            et.checkpoint_writes.inc();
            et.checkpoint_bytes.add(bytes);
        }
    }

    /// Records a block completion: pairs the closest preceding `BlockBegin`
    /// and feeds the cycles-per-block histogram.
    fn note_block_end(&mut self, cycles: u64) {
        self.trace.record(TraceEvent::BlockEnd { cycles });
        if let Some(et) = &self.telemetry {
            et.cycles_per_block.observe(cycles);
        }
    }

    fn trace_block(&mut self, block_row: usize, block_col: usize, kind: DataPathKind) {
        self.trace.record(TraceEvent::BlockBegin {
            block_row,
            block_col,
            kind,
        });
    }

    /// Wires the RCU for `kind` inside the drain of the `reduce` tree and
    /// traces the switch, if there was one (a data path already in place
    /// costs nothing). Returns the drain cycles.
    fn configure(&mut self, kind: DataPathKind, reduce: Reduce) -> u64 {
        let drain = self.fcu.drain(reduce);
        if self.rcu.current() != Some(kind) {
            let exposed = self.rcu.configure(kind, drain);
            self.trace
                .record(TraceEvent::Reconfigure { to: kind, exposed });
        }
        drain
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Checks a kernel's operands: `a`'s layout, then each
    /// `(expected, found)` length pair in order, then `a`'s block width
    /// against the engine's ω lanes.
    fn check_operands(&self, a: &Alf, layout: AlfLayout, dims: &[(usize, usize)]) -> Result<()> {
        if a.layout() != layout {
            let name = |l| match l {
                AlfLayout::Streaming => "streaming",
                AlfLayout::SymGs => "symgs",
            };
            return Err(SimError::LayoutMismatch {
                expected: name(layout),
                found: name(a.layout()),
            });
        }
        if let Some(&(expected, found)) = dims.iter().find(|(e, f)| e != f) {
            return Err(SimError::DimensionMismatch { expected, found });
        }
        if a.omega() != self.config.omega {
            return Err(SimError::BlockWidthMismatch {
                engine: self.config.omega,
                matrix: a.omega(),
            });
        }
        Ok(())
    }

    /// Opens a run of `kernel` on a `reduce` tree: flushes the cache,
    /// snapshots the counters the report takes deltas of, and traces the
    /// kernel's start.
    fn begin(&mut self, kernel: &'static str, reduce: Reduce) -> RunState {
        self.cache.flush();
        let arming = self.arm_telemetry();
        self.trace.record(TraceEvent::KernelBegin { kernel });
        let fill = self.fcu.fill_latency(reduce);
        let mut memory = MemoryStream::new(&self.config);
        memory.attach_injector(self.faults.clone());
        RunState {
            kernel,
            reduce,
            cycles: fill,
            memory,
            cache_busy: 0,
            counts: DataPathCounts::default(),
            cache_base: (self.cache.hits(), self.cache.misses(), self.cache.writes()),
            reconfig_base: self.rcu.stats(),
            breakdown: crate::report::CycleBreakdown {
                drain_cycles: fill,
                ..Default::default()
            },
            fault_base: self
                .faults
                .as_ref()
                .map(FaultInjector::counters)
                .unwrap_or_default(),
            wall_start: std::time::Instant::now(),
            arming,
            memo_key: None,
        }
    }

    /// Turns tracing on when telemetry is attached and enabled, and notes
    /// where the starting run's trace events and host time begin.
    fn arm_telemetry(&mut self) -> Arming {
        let armed = self
            .telemetry
            .as_ref()
            .is_some_and(|et| et.tele.is_enabled());
        let mut t0_ns = 0;
        if armed {
            self.trace.enable();
            if let Some(et) = &self.telemetry {
                t0_ns = et.tele.now_ns();
            }
        }
        Arming {
            armed,
            trace_base: self.trace.events().len(),
            t0_ns,
        }
    }

    /// [`Engine::begin`] for a memoisable `call` on `a` (a Sum-tree run):
    /// when the memo applies, the run's timing is memoised as it finishes.
    fn begin_memoised(&mut self, kernel: &'static str, call: memo::Call, a: &Alf) -> RunState {
        let memo_key = self
            .memo_applies()
            .then(|| memo::Key::of(call, self.rcu.current(), a));
        let mut state = self.begin(kernel, Reduce::Sum);
        state.memo_key = memo_key;
        state
    }

    /// Whether a call's timing may come from, or go into, the memo: no
    /// fault plan (the timing walk draws its faults), no wall-clock limit
    /// (it can trip anywhere), and no energy events left over from a
    /// failed run (the next report absorbs them).
    fn memo_applies(&self) -> bool {
        let idle = EnergyCounters::new();
        self.faults.is_none()
            && self.budget.max_wall.is_none()
            && *self.fcu.counters() == idle
            && *self.rcu.counters() == idle
    }

    /// Looks `call` on `a` up in the memo. A traced call needs a timing
    /// recorded with its events. A hit whose cycles exceed the cycle
    /// budget, or a sweep over a zero diagonal entry, takes the full walk
    /// instead, so that it fails exactly where that walk fails. Armed
    /// telemetry turns tracing on as [`Engine::begin`] does.
    fn memo_hit(&mut self, call: memo::Call, a: &Alf) -> Option<Hit> {
        if !self.memo_applies() {
            return None;
        }
        let arming = self.arm_telemetry();
        let traced = self.trace.is_enabled();
        let slot = self.memo.find(call, self.rcu.current(), a, traced)?;
        let cycles = self.memo.get(slot).report.cycles;
        if self.budget.max_cycles.is_some_and(|max| cycles > max) {
            return None;
        }
        let rows = &a.diagonal()[..a.rows().min(a.diagonal().len())];
        if matches!(call, memo::Call::Sweep { .. }) && rows.contains(&0.0) {
            return None;
        }
        Some(Hit { slot, arming })
    }

    /// Finishes a memo hit once its value walk is done: returns the
    /// memoised report, leaves the RCU wiring and statistics and the cache
    /// counters as the full walk would, replays the trace events, and
    /// publishes the run as [`Engine::finish`] does. The cache contents
    /// need no replay: every run starts by flushing them.
    fn replay(&mut self, hit: Hit) -> ExecutionReport {
        // The value walk counted its FCU events again; the report holds
        // the call's own.
        let _ = self.fcu.take_counters();
        let timing = self.memo.get(hit.slot);
        let report = timing.report.clone();
        self.rcu.replay(timing.exit_path, report.reconfig);
        self.cache.replay(&report.cache);
        if let (true, Some(events)) = (self.trace.is_enabled(), &timing.events) {
            self.trace.extend(events);
            if let Some(et) = &self.telemetry {
                for event in events {
                    if let TraceEvent::BlockEnd { cycles } = event {
                        et.cycles_per_block.observe(*cycles);
                    }
                }
            }
        }
        if let Some(et) = &self.telemetry {
            et.memo_hits.inc();
        }
        self.publish_metrics(&report);
        self.capture_device_timeline(hit.arming, &report);
        report
    }

    /// Enforces the cycle and wall-clock limits of the active budget.
    /// Called once per scheduled unit of work (block, block row, round);
    /// with the default open budget both tests short-circuit.
    fn check_budget(&self, state: &RunState) -> Result<()> {
        if let Some(max) = self.budget.max_cycles {
            if state.cycles > max {
                return Err(SimError::DeadlineExceeded {
                    budget: "cycle",
                    cycle: state.cycles,
                });
            }
        }
        if let Some(max_wall) = self.budget.max_wall {
            if state.wall_start.elapsed() > max_wall {
                return Err(SimError::DeadlineExceeded {
                    budget: "wall-clock",
                    cycle: state.cycles,
                });
            }
        }
        Ok(())
    }

    /// Handles a wedged D-SymGS block scheduler: the engine would idle
    /// forever waiting for a block that will never issue, so the outcome is
    /// computed directly instead of spinning — the cycle budget expires if
    /// it is tighter than the watchdog window, otherwise the watchdog fires
    /// after one full window of zero progress.
    fn scheduler_stall(&self, state: &RunState) -> SimError {
        if let Some(inj) = &self.faults {
            inj.note_scheduler_wedge();
        }
        let window = self.budget.effective_watchdog();
        let fires_at = state.cycles.saturating_add(window);
        if let Some(max) = self.budget.max_cycles {
            if max < fires_at {
                return SimError::DeadlineExceeded {
                    budget: "cycle",
                    cycle: max,
                };
            }
        }
        SimError::Stalled {
            site: "d-symgs block scheduler",
            cycle: fires_at,
            idle_cycles: window,
        }
    }

    /// Publishes the run's cycle count to the injector (window gating and
    /// error reporting).
    fn publish_cycle(&self, state: &RunState) {
        if let Some(inj) = &self.faults {
            inj.set_cycle(state.cycles);
        }
    }

    fn finish(&mut self, state: RunState) -> ExecutionReport {
        // Reconfiguration statistics are engine-lifetime totals; report the
        // delta accumulated by this run only.
        let totals = self.rcu.stats();
        let reconfig = crate::rcu::ReconfigStats {
            switches: totals.switches - state.reconfig_base.switches,
            hidden_cycles: totals.hidden_cycles - state.reconfig_base.hidden_cycles,
            exposed_cycles: totals.exposed_cycles - state.reconfig_base.exposed_cycles,
        };
        let drain = self.fcu.drain(state.reduce);
        let mut breakdown = state.breakdown;
        breakdown.drain_cycles += drain + reconfig.exposed_cycles;
        let cycles = state.cycles + drain + reconfig.exposed_cycles;
        let mut energy = EnergyCounters::new();
        energy.merge(&self.fcu.take_counters());
        energy.merge(&self.rcu.take_counters());
        let (h0, m0, w0) = state.cache_base;
        let cache = CacheStats {
            hits: self.cache.hits() - h0,
            misses: self.cache.misses() - m0,
            writes: self.cache.writes() - w0,
            busy_cycles: state.cache_busy,
        };
        energy.cache_accesses = cache.accesses();
        energy.dram_bytes = state.memory.bytes_streamed();
        self.trace.record(TraceEvent::KernelEnd { cycles });
        let seconds = self.config.cycles_to_seconds(cycles);
        let faults = self
            .faults
            .as_ref()
            .map(|inj| inj.counters().delta(&state.fault_base))
            .unwrap_or_default();
        let report = ExecutionReport {
            kernel: state.kernel,
            cycles,
            seconds,
            bytes_streamed: state.memory.bytes_streamed(),
            bandwidth_utilization: state.memory.utilization(cycles),
            cache_time_fraction: if cycles > 0 {
                (state.cache_busy as f64 / cycles as f64).min(1.0)
            } else {
                0.0
            },
            energy,
            reconfig,
            cache,
            datapaths: state.counts,
            breakdown,
            faults,
            breaker: crate::report::BreakerStats::default(),
        };
        if let Some(key) = state.memo_key {
            let events = self
                .trace
                .is_enabled()
                .then(|| self.trace.events()[state.arming.trace_base..].to_vec());
            self.memo.insert(Timing {
                key,
                report: report.clone(),
                exit_path: self.rcu.current(),
                events,
            });
            if let Some(et) = &self.telemetry {
                et.memo_misses.inc();
            }
        }
        self.publish_metrics(&report);
        self.capture_device_timeline(state.arming, &report);
        report
    }

    /// Publishes one run's report deltas into the attached metrics registry.
    fn publish_metrics(&self, report: &ExecutionReport) {
        let Some(et) = &self.telemetry else { return };
        et.runs.inc();
        et.cycles.add(report.cycles);
        let d = &report.datapaths;
        et.blocks
            .add(d.gemv_blocks + d.dsymgs_blocks + d.graph_blocks);
        let c = &report.cache;
        et.cache_read_hits.add(c.hits);
        et.cache_read_misses.add(c.misses);
        et.cache_writes.add(c.writes);
        let reads = c.hits + c.misses;
        if reads > 0 {
            et.cache_hit_rate.set(c.hits as f64 / reads as f64);
        }
        et.reconfig_switches.add(report.reconfig.switches);
        et.reconfig_exposed.add(report.reconfig.exposed_cycles);
        et.reconfig_hidden.add(report.reconfig.hidden_cycles);
        et.faults_detected.add(report.faults.detected);
        et.faults_recovered.add(report.faults.recovered);
        et.fault_retries.add(report.faults.retries);
        et.recovery_cycles.add(report.breakdown.recovery_cycles);
    }

    /// For a run with armed telemetry: converts the trace events it
    /// appended (from `trace_base` on) into a device timeline pinned to
    /// host time `[t0_ns, now]`, records it on the telemetry sink, and
    /// removes the consumed events.
    fn capture_device_timeline(&mut self, arming: Arming, report: &ExecutionReport) {
        let Arming {
            armed,
            trace_base,
            t0_ns,
        } = arming;
        let Some(et) = self.telemetry.as_ref().filter(|_| armed) else {
            return;
        };
        let events = crate::trace::to_device_events(&self.trace.events()[trace_base..]);
        et.tele.record_device(alrescha_obs::DeviceTimeline {
            kernel: report.kernel.to_owned(),
            t0_ns,
            t1_ns: et.tele.now_ns().max(t0_ns),
            cycles: report.cycles,
            events,
        });
        self.trace.truncate(trace_base);
    }

    /// Reads one ω-chunk of a cached vector operand; charges cache-port
    /// occupancy (the cache is pipelined: one line access per cycle, so a
    /// chunk read occupies ⌈ω/line⌉ cycles) and, on a miss, the bandwidth
    /// of fetching the chunk (prefetched via the configuration table, so no
    /// exposed latency).
    ///
    /// `len` is the logical length of the vector living in `region`: when
    /// the matrix dimension is not a multiple of ω the final chunk is
    /// partially padded, and only the `len - chunk_start` real lanes cost
    /// cache occupancy and bandwidth.
    fn read_chunk(&mut self, state: &mut RunState, region: usize, chunk_start: usize, len: usize) {
        let valid = self.config.omega.min(len.saturating_sub(chunk_start));
        if valid == 0 {
            return;
        }
        let missed = self.cache.read_run(region + chunk_start, valid);
        state.cache_busy += self.chunk_lines(valid);
        if missed {
            state.memory.stream_values(valid);
        }
    }

    /// Writes one ω-chunk of a cached vector operand; `len` clamps the
    /// padded tail exactly as in [`Engine::read_chunk`].
    fn write_chunk(&mut self, state: &mut RunState, region: usize, chunk_start: usize, len: usize) {
        let valid = self.config.omega.min(len.saturating_sub(chunk_start));
        if valid == 0 {
            return;
        }
        self.cache.write_run(region + chunk_start, valid);
        state.cache_busy += self.chunk_lines(valid);
    }

    /// Cache-port cycles of a `valid`-word chunk: one per line it spans.
    fn chunk_lines(&self, valid: usize) -> u64 {
        if valid == self.config.omega {
            self.chunk_lines
        } else {
            valid.div_ceil(self.config.values_per_line()) as u64
        }
    }

    /// Runs `f` with the engine's scratch buffers lent out beside `self`.
    fn with_scratch<T>(&mut self, f: impl FnOnce(&mut Self, &mut Scratch) -> T) -> T {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = f(self, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// The engine's one recovery loop, shared by every checked fault site
    /// (the GEMV checksum, the link-stack push, the operand-FIFO fill).
    ///
    /// Each attempt opens a verification scope and runs `attempt`, which
    /// returns `Some` when its check passes. A failed check confirms the
    /// scope's faults as detected. While the [`RecoveryPolicy`] has retries
    /// left, `rollback` undoes the attempt and returns its redo cycles; the
    /// redo plus the policy's backoff stall is charged to the recovery
    /// bucket, and `RecoveryBegin`/`RecoveryEnd` bracket the retries. Once
    /// the retries are spent the fault surfaces as
    /// [`SimError::FaultDetected`] at `site`. `ctx` is the state both
    /// closures work on.
    fn retry<C, T>(
        &mut self,
        state: &mut RunState,
        site: FaultSite,
        ctx: &mut C,
        mut attempt: impl FnMut(&mut Self, &mut RunState, &mut C) -> Option<T>,
        mut rollback: impl FnMut(&mut RunState, &mut C) -> u64,
    ) -> Result<T> {
        let mut retries = 0u32;
        let mut caught = 0u64;
        let mut redo_total = 0u64;
        let outcome = loop {
            if let Some(inj) = &self.faults {
                inj.begin_scope();
            }
            if let Some(out) = attempt(self, state, ctx) {
                break Ok(out);
            }
            let newly = self
                .faults
                .as_ref()
                .map_or(0, FaultInjector::confirm_detected);
            caught += newly;
            if newly > 0 {
                self.trace.record(TraceEvent::FaultInjected { site });
            }
            if retries >= self.recovery.max_retries() {
                break Err(SimError::FaultDetected {
                    site,
                    cycle: state.cycles,
                });
            }
            if retries == 0 {
                self.trace.record(TraceEvent::RecoveryBegin { site });
            }
            retries += 1;
            if let Some(inj) = &self.faults {
                inj.note_retry();
            }
            let redo = rollback(state, ctx) + self.recovery.backoff_cycles();
            state.cycles += redo;
            state.breakdown.recovery_cycles += redo;
            redo_total += redo;
        };
        if let (Ok(_), Some(inj)) = (&outcome, &self.faults) {
            if caught > 0 {
                inj.note_recovered(caught);
            }
        }
        if retries > 0 {
            self.trace.record(TraceEvent::RecoveryEnd {
                recovered: outcome.is_ok(),
                cycles: redo_total,
            });
        }
        outcome
    }

    /// One GEMV block: traces it, charges its payload stream, its operand
    /// chunk read and its ω compute cycles, and leaves its ω dot products
    /// in `sc.dots`. Returns the block's cycles for its `BlockEnd`.
    ///
    /// With a fault injector armed, the partial sums are verified against
    /// the block's ABFT column-sum checksum — Σᵢ dotᵢ must equal
    /// (Σᵢ rowᵢ)·x up to rounding, with the checksum vector computed from
    /// the pristine payload at format-programming time — and the block is
    /// re-executed (re-stream + recompute + backoff stall) through
    /// [`Engine::retry`] when the check trips. A permanent stuck-at payload
    /// corruption reported by the memory stream re-applies on every retry,
    /// so it exhausts the retry budget and surfaces as
    /// [`SimError::FaultDetected`] at [`FaultSite::Memory`].
    ///
    /// Without an injector this is a plain, checksum-free block execution:
    /// one [`Fcu::gemv_block`] call over the streamed payload, which sums
    /// every row in logical lane order, so the result is bit-identical to
    /// multiplying the logical rows one by one.
    fn gemv_block(
        &mut self,
        sc: &mut Scratch,
        state: &mut RunState,
        block: AlfBlock<'_>,
        x: &[f64],
    ) -> Result<u64> {
        let omega = self.config.omega;
        let col_base = block.block_col() * omega;
        self.trace_block(block.block_row(), block.block_col(), DataPathKind::Gemv);
        let (mem, stuck) = state
            .memory
            .stream_block(block.block_row(), block.block_col());
        self.read_chunk(state, REGION_X, col_base, x.len());
        let block_cycles = mem.max(omega as u64);
        state.cycles += block_cycles;
        state.breakdown.gemv_cycles += block_cycles;
        state.counts.gemv_blocks += 1;
        self.publish_cycle(state);

        let Some(inj) = self.faults.clone() else {
            sc.gemv(&mut self.fcu, block, x);
            return Ok(block_cycles);
        };
        let operand = operand_chunk(&mut sc.operand, x, col_base, omega);

        // Column j's checksum and absolute checksum, folded straight into
        // Σⱼ chkⱼ·xⱼ and Σⱼ |chk|ⱼ·|xⱼ| in column order.
        let (mut expected, mut scale) = (-0.0, -0.0);
        for (j, &xj) in operand.iter().enumerate() {
            let (mut chk, mut chk_abs) = (0.0, 0.0);
            for i in 0..omega {
                let v = block.get(i, j);
                chk += v;
                chk_abs += v.abs();
            }
            expected += chk * xj;
            scale += chk_abs * xj.abs();
        }
        if !expected.is_finite() || !scale.is_finite() {
            // Non-finite inputs: retrying cannot help.
            return Err(SimError::NumericalBreakdown {
                context: "gemv checksum",
                cycle: state.cycles,
            });
        }
        let tol = 1e-9 * scale;
        let site = if stuck.is_some() {
            FaultSite::Memory
        } else {
            FaultSite::FcuLane
        };
        self.retry(
            state,
            site,
            &mut (&mut sc.dots, &mut sc.row),
            |eng, state, (dots, logical)| {
                // A retry runs at the cycle its redo advanced to.
                eng.publish_cycle(state);
                if stuck.is_some() {
                    inj.note_stuck_applied();
                }
                inj.set_fcu_armed(true);
                dots.clear();
                for i in 0..omega {
                    logical.clear();
                    logical.extend((0..omega).map(|j| block.get(i, j)));
                    if let Some((word, bit)) = stuck {
                        if word / omega == i {
                            logical[word % omega] = fault::flip_bit(logical[word % omega], bit);
                        }
                    }
                    dots.push(eng.fcu.mac_row(logical, operand));
                }
                inj.set_fcu_armed(false);
                let actual: f64 = dots.iter().sum();
                (actual.is_finite() && (actual - expected).abs() <= tol).then_some(())
            },
            // Retry from checkpoint: re-stream the payload and re-run the
            // ω rows.
            |state, _| state.memory.stream_payload().max(omega as u64),
        )?;
        Ok(block_cycles)
    }

    /// One graph-kernel block (D-BFS, D-SSSP, D-PR, CC): traces it and
    /// charges its payload stream, its source-chunk read over the
    /// `n`-vertex operand and its ω compute cycles.
    fn graph_block(
        &mut self,
        state: &mut RunState,
        block: AlfBlock<'_>,
        kind: DataPathKind,
        n: usize,
    ) {
        let omega = self.config.omega;
        self.trace_block(block.block_row(), block.block_col(), kind);
        let payload = state.memory.stream_payload();
        self.read_chunk(state, REGION_X, block.block_col() * omega, n);
        let block_cycles = payload.max(omega as u64);
        state.cycles += block_cycles;
        state.breakdown.graph_cycles += block_cycles;
        state.counts.graph_blocks += 1;
        self.note_block_end(block_cycles);
    }

    /// Runs SpMV (`y = A·x`) over a [`AlfLayout::Streaming`] matrix.
    ///
    /// # Errors
    ///
    /// * [`SimError::LayoutMismatch`] if `a` was built for SymGS.
    /// * [`SimError::DimensionMismatch`] if `x.len() != a.cols()`.
    pub fn run_spmv(&mut self, a: &Alf, x: &[f64]) -> Result<(Vec<f64>, ExecutionReport)> {
        self.check_operands(a, AlfLayout::Streaming, &[(a.cols(), x.len())])?;
        let mut y = vec![0.0; a.rows()];
        if let Some(hit) = self.memo_hit(memo::Call::Spmv, a) {
            self.with_scratch(|eng, sc| eng.spmv_values(sc, a, x, &mut y));
            return Ok((y, self.replay(hit)));
        }
        let omega = self.config.omega;
        let mut state = self.begin_memoised("spmv", memo::Call::Spmv, a);
        self.configure(DataPathKind::Gemv, Reduce::Sum);
        self.with_scratch(|eng, sc| eng.spmv_blocks(sc, &mut state, a, x, &mut y))?;

        // Result write-back: one pass over y through the cache and out.
        for chunk in (0..a.rows()).step_by(omega) {
            self.write_chunk(&mut state, REGION_X, chunk, a.rows());
        }
        state.memory.record_bytes(a.rows() as u64 * 8);
        Ok((y, self.finish(state)))
    }

    /// SpMV's block loop: one GEMV per block, its dots added into `y`.
    fn spmv_blocks(
        &mut self,
        sc: &mut Scratch,
        state: &mut RunState,
        a: &Alf,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<()> {
        for block in a.blocks() {
            self.check_budget(state)?;
            let block_cycles = self.gemv_block(sc, state, block, x)?;
            self.note_block_end(block_cycles);
            add_dots(y, block.block_row() * self.config.omega, &sc.dots);
        }
        Ok(())
    }

    /// SpMV's value walk: [`Engine::spmv_blocks`] without the timing.
    fn spmv_values(&mut self, sc: &mut Scratch, a: &Alf, x: &[f64], y: &mut [f64]) {
        for block in a.blocks() {
            sc.gemv(&mut self.fcu, block, x);
            add_dots(y, block.block_row() * self.config.omega, &sc.dots);
        }
    }

    /// One forward Gauss-Seidel sweep over a [`AlfLayout::SymGs`] matrix,
    /// updating `x` in place. Functionally identical (up to floating-point
    /// reassociation) to `alrescha_kernels::symgs::forward_sweep`.
    ///
    /// # Errors
    ///
    /// * [`SimError::LayoutMismatch`] if `a` was built for streaming.
    /// * [`SimError::DimensionMismatch`] on operand length mismatches.
    pub fn run_symgs_forward(
        &mut self,
        a: &Alf,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<ExecutionReport> {
        self.run_sor_sweep(a, b, x, false, 1.0)
    }

    /// One backward Gauss-Seidel sweep (block rows and in-block rows in
    /// descending order). See [`Engine::run_symgs_forward`].
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_symgs_forward`].
    pub fn run_symgs_backward(
        &mut self,
        a: &Alf,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<ExecutionReport> {
        self.run_sor_sweep(a, b, x, true, 1.0)
    }

    /// One symmetric Gauss-Seidel application (forward then backward sweep),
    /// the SymGS kernel of Table 1: [`Engine::run_ssor`] at relaxation 1.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_symgs_forward`].
    pub fn run_symgs(&mut self, a: &Alf, b: &[f64], x: &mut [f64]) -> Result<ExecutionReport> {
        self.run_ssor(a, b, x, 1.0)
    }

    /// One symmetric SOR (SSOR) application on the device: a forward then
    /// a backward sweep of the D-SymGS data path, with the RCU's PEs
    /// additionally applying the relaxation blend
    /// `x ← (1−ω_r)·x_old + ω_r·x_gs` (one extra PE operation per row —
    /// the LUT-based PEs provide exactly these operations, §4.3).
    /// `omega_relax = 1` is [`Engine::run_symgs`].
    ///
    /// # Errors
    ///
    /// [`SimError::RelaxationOutOfRange`] for a relaxation factor outside
    /// `(0, 2)`, then the [`Engine::run_symgs_forward`] conditions.
    pub fn run_ssor(
        &mut self,
        a: &Alf,
        b: &[f64],
        x: &mut [f64],
        omega_relax: f64,
    ) -> Result<ExecutionReport> {
        if !(omega_relax > 0.0 && omega_relax < 2.0) {
            return Err(SimError::RelaxationOutOfRange {
                factor: omega_relax,
            });
        }
        let mut report = self.run_sor_sweep(a, b, x, false, omega_relax)?;
        let back = self.run_sor_sweep(a, b, x, true, omega_relax)?;
        report.merge(&back, &self.config);
        report.datapaths.iterations = 1;
        Ok(report)
    }

    fn run_sor_sweep(
        &mut self,
        a: &Alf,
        b: &[f64],
        x: &mut [f64],
        backward: bool,
        omega_relax: f64,
    ) -> Result<ExecutionReport> {
        self.check_operands(
            a,
            AlfLayout::SymGs,
            &[(a.rows(), b.len()), (a.cols(), x.len())],
        )?;
        let sweep = Sweep {
            a,
            b,
            backward,
            omega_relax,
        };
        let call = memo::Call::Sweep {
            backward,
            relax_bits: omega_relax.to_bits(),
        };
        if let Some(hit) = self.memo_hit(call, a) {
            self.with_scratch(|eng, sc| eng.sor_values(sc, sweep, x))?;
            return Ok(self.replay(hit));
        }
        let kernel = if backward {
            "symgs-backward"
        } else {
            "symgs-forward"
        };
        let mut state = self.begin_memoised(kernel, call, a);
        // The extracted diagonal is loaded into the local cache once per
        // sweep (programming-time traffic, §4.5).
        state.memory.record_bytes(a.diagonal().len() as u64 * 8);
        self.with_scratch(|eng, sc| eng.sor_block_rows(sc, &mut state, sweep, x))?;
        state.memory.record_bytes(a.rows() as u64 * 8); // x write-back
        state.counts.iterations = 1;
        Ok(self.finish(state))
    }

    /// The sweep proper: every block row in sweep order, each through the
    /// four phases of Figure 11 — GEMVs pushing onto the link stack, the
    /// link-stack drain, the operand FIFO fill, and the D-SymGS recurrence.
    fn sor_block_rows(
        &mut self,
        sc: &mut Scratch,
        state: &mut RunState,
        sweep: Sweep<'_>,
        x: &mut [f64],
    ) -> Result<()> {
        // Index blocks by block row once; within a row keep stream order.
        sc.index_block_rows(sweep.a);
        for br in sweep.block_row_order() {
            self.check_budget(state)?;
            let diag_block = self.gemv_link_push(sc, state, sweep.a, x, br)?;
            self.drain_link_stack(sc, state);
            self.switch_to_dsymgs(state, br)?;
            self.fill_operand_fifos(state, sweep.a, br)?;
            self.dsymgs_recurrence(sc, state, sweep, x, br, diag_block)?;
        }
        Ok(())
    }

    /// The sweep's value walk: [`Engine::sor_block_rows`] without the
    /// timing. Each block row's off-diagonal GEMVs push their dots onto
    /// the link stack, the stack drains into the partial sums, and the
    /// recurrence produces the row's `x` entries.
    fn sor_values(&mut self, sc: &mut Scratch, sweep: Sweep<'_>, x: &mut [f64]) -> Result<()> {
        let omega = self.config.omega;
        sc.index_block_rows(sweep.a);
        for br in sweep.block_row_order() {
            sc.link.clear();
            let mut diag_block = None;
            for pos in sc.row_start[br]..sc.row_start[br + 1] {
                let block = sweep.a.block(sc.row_blocks[pos]);
                if block.kind() == BlockKind::Diagonal {
                    diag_block = Some(block);
                    continue;
                }
                sc.gemv(&mut self.fcu, block, x);
                sc.link.extend_from_slice(&sc.dots);
            }
            sc.reduce_link_stack(omega);
            let mut steps = 0;
            self.dsymgs_values(sc, sweep, x, br, diag_block, &mut steps)?;
        }
        Ok(())
    }

    /// Phase 1: the GEMV data path over block row `br`'s off-diagonal
    /// blocks. Intermediate GEMV results ride the LIFO link stack to the
    /// D-SymGS data path (Figure 11): one ω-frame of dots per GEMV block.
    /// Returns the row's diagonal block, if any.
    fn gemv_link_push<'a>(
        &mut self,
        sc: &mut Scratch,
        state: &mut RunState,
        a: &'a Alf,
        x: &[f64],
        br: usize,
    ) -> Result<Option<AlfBlock<'a>>> {
        sc.link.clear();
        let mut diag_block = None;
        for pos in sc.row_start[br]..sc.row_start[br + 1] {
            let block = a.block(sc.row_blocks[pos]);
            if block.kind() == BlockKind::Diagonal {
                diag_block = Some(block);
                continue;
            }
            self.configure(DataPathKind::Gemv, Reduce::Sum);
            let block_cycles = self.gemv_block(sc, state, block, x)?;
            // The verified dots ride the link stack as one ω-frame. The RCU
            // draws every entry's in-flight drop, in lane order, and the
            // occupancy check catches any drop: the frame came up short.
            let frame = sc.link.len();
            self.retry(
                state,
                FaultSite::RcuLifo,
                sc,
                |eng, _, sc| {
                    sc.link.extend_from_slice(&sc.dots);
                    let drops = sc.dots.iter().filter(|_| eng.rcu.link_push_event());
                    (drops.count() == 0).then_some(())
                },
                // Roll back this attempt's pushes.
                |_, sc| {
                    sc.link.truncate(frame);
                    0
                },
            )?;
            self.note_block_end(block_cycles);
        }
        Ok(diag_block)
    }

    /// Phase 2: the successive D-SymGS pops the GEMV results off the stack
    /// and reduces them per lane into `sc.partial`. The stack drains in one
    /// go, in LIFO order: frame by frame from the last pushed, the order
    /// each lane's partial sum adds in. It is at its deepest now, after the
    /// row's last frame.
    fn drain_link_stack(&mut self, sc: &mut Scratch, state: &mut RunState) {
        let peak = &mut state.counts.link_stack_peak;
        *peak = (*peak).max(sc.link.len() as u64);
        self.rcu.buffer_events(sc.link.len() as u64);
        sc.reduce_link_stack(self.config.omega);
    }

    /// Issues block row `br`'s D-SymGS: the data-path switch, whose drain
    /// is charged unless the overlap-drain ablation forwards through it.
    /// A wedged scheduler never issues it: the run terminates through the
    /// watchdog or the cycle budget instead of idling forever.
    fn switch_to_dsymgs(&mut self, state: &mut RunState, br: usize) -> Result<()> {
        if let Some(inj) = &self.faults {
            if inj.scheduler_wedged(state.counts.dsymgs_blocks) {
                return Err(self.scheduler_stall(state));
            }
        }
        let drain = self.configure(DataPathKind::DSymGs, Reduce::Sum);
        self.trace_block(br, br, DataPathKind::DSymGs);
        if !self.config.overlap_drain {
            state.cycles += drain;
            state.breakdown.drain_cycles += drain;
        }
        Ok(())
    }

    /// Phase 3: the right-hand side and the extracted diagonal of block
    /// row `br` arrive through FIFOs (deterministic access order, §4.3).
    /// The FIFOs hand the recurrence `b` and the diagonal in the order it
    /// reads them, so only their occupancy is modelled: each valid lane
    /// pushes its `b` entry, then its diagonal entry, and the RCU draws
    /// each push's in-flight drop.
    fn fill_operand_fifos(&mut self, state: &mut RunState, a: &Alf, br: usize) -> Result<()> {
        let omega = self.config.omega;
        let row_base = br * omega;
        self.read_chunk(state, REGION_B, row_base, a.rows());
        self.read_chunk(state, REGION_DIAG, row_base, a.diagonal().len());
        // The block row's valid lanes (the last row may be padded).
        let filled = ((row_base + omega).min(a.rows()) - row_base) as u64;
        self.retry(
            state,
            FaultSite::RcuFifo,
            &mut (),
            |eng, state, ()| {
                let (mut b_held, mut diag_held) = (0, 0);
                for _ in 0..filled {
                    b_held += u64::from(!eng.rcu.fifo_push_event());
                    diag_held += u64::from(!eng.rcu.fifo_push_event());
                }
                // Occupancy check: both FIFOs must hold exactly one entry
                // per valid lane before the recurrence starts.
                let peak = &mut state.counts.operand_fifo_peak;
                *peak = (*peak).max(b_held);
                (b_held == filled && diag_held == filled).then_some(())
            },
            // A failed fill's entries are flushed; the next attempt starts
            // from empty FIFOs.
            |_, ()| 0,
        )
    }

    /// Phase 4: the D-SymGS recurrence over block row `br` (Figure 10),
    /// then the row's cycle charge and the `x` chunk write-back.
    fn dsymgs_recurrence(
        &mut self,
        sc: &mut Scratch,
        state: &mut RunState,
        sweep: Sweep<'_>,
        x: &mut [f64],
        br: usize,
        diag_block: Option<AlfBlock<'_>>,
    ) -> Result<()> {
        let mut steps = 0;
        let updated = self.dsymgs_values(sc, sweep, x, br, diag_block, &mut steps);
        // One link-stack pop feeds each step of a diagonal block; the PE
        // produces each x_g, with the SOR blend as a second operation.
        if diag_block.is_some() {
            self.rcu.buffer_events(steps);
        }
        let pe_ops = if unit_relaxation(sweep.omega_relax) {
            steps
        } else {
            2 * steps
        };
        for _ in 0..pe_ops {
            let _ = self.rcu.pe_op();
        }
        updated?;
        let row_base = br * self.config.omega;
        let dsymgs_cycles = if diag_block.is_some() {
            let payload_cycles = state.memory.stream_payload();
            let compute = steps * self.config.dsymgs_step_latency();
            let block_cycles = payload_cycles.max(compute);
            state.cycles += block_cycles;
            state.breakdown.dsymgs_cycles += block_cycles;
            state.counts.dsymgs_blocks += 1;
            block_cycles
        } else if steps > 0 {
            // Rows with only an extracted diagonal: pure PE updates.
            let block_cycles = steps * self.config.dsymgs_step_latency();
            state.cycles += block_cycles;
            state.breakdown.dsymgs_cycles += block_cycles;
            block_cycles
        } else {
            0
        };
        self.note_block_end(dsymgs_cycles);
        self.publish_cycle(state);
        self.write_chunk(state, REGION_X, row_base, sweep.a.rows());
        Ok(())
    }

    /// The D-SymGS recurrence's values over block row `br`: each valid
    /// row's new `x` entry from `b`, the link-stack partial sums in
    /// `sc.partial` and the diagonal block's row, through the PE's SOR
    /// blend. Counts the rows updated into `steps`, also when a zero
    /// diagonal entry stops the recurrence.
    ///
    /// Each step reads the block row's `x` chunk in place, its earlier
    /// steps' fresh values included. Forward sweeps sum its products in
    /// the operand shift register's lane order ([`Fcu::mac_row_shifted`]).
    /// The backward sweep is the mirror-image hardware and uses the
    /// addressable cache path directly, walking the streamed row in
    /// logical order.
    fn dsymgs_values(
        &mut self,
        sc: &mut Scratch,
        sweep: Sweep<'_>,
        x: &mut [f64],
        br: usize,
        diag_block: Option<AlfBlock<'_>>,
        steps: &mut u64,
    ) -> Result<()> {
        let Sweep {
            a,
            b,
            backward,
            omega_relax,
        } = sweep;
        let omega = self.config.omega;
        let row_base = br * omega;
        for step in 0..omega {
            let i = if backward { omega - 1 - step } else { step };
            let g = row_base + i;
            if g >= a.rows() {
                continue;
            }
            let diag = a.diagonal()[g];
            if diag == 0.0 {
                return Err(SimError::Structure(
                    alrescha_sparse::Error::MissingDiagonal { row: g },
                ));
            }
            let mut sum = b[g] - sc.partial[i];
            if let Some(block) = diag_block {
                // Payload of the diagonal block streams in parallel with
                // the recurrence; its diagonal slots are zero so the full
                // ω-wide dot product is safe.
                let streamed = block.row(i);
                let chunk = operand_chunk(&mut sc.operand, x, row_base, omega);
                sum -= if !backward {
                    self.fcu.mac_row_shifted(streamed, chunk, i)
                } else if block.reversed() {
                    self.fcu.mac_row_reversed(streamed, chunk)
                } else {
                    self.fcu.mac_row(streamed, chunk)
                };
            }
            x[g] = sor_blend(x[g], sum, diag, omega_relax);
            *steps += 1;
        }
        Ok(())
    }

    /// Runs BFS from `source` over the transposed adjacency structure
    /// `at` ([`AlfLayout::Streaming`], built from `Aᵀ` so each block row
    /// gathers a destination chunk's incoming edges). Edge weights are
    /// ignored (unit hop cost). Returns levels with [`UNREACHED`] where no
    /// path exists.
    ///
    /// # Errors
    ///
    /// Layout/shape errors as in [`Engine::run_spmv`], plus a source bound
    /// check.
    pub fn run_bfs(&mut self, at: &Alf, source: usize) -> Result<(Vec<f64>, ExecutionReport)> {
        self.run_minplus(at, Some(source), "bfs", DataPathKind::DBfs, |_w, d| 1.0 + d)
    }

    /// Runs SSSP from `source` over the transposed adjacency `at` with the
    /// stored edge weights. Returns distances with [`UNREACHED`] where no
    /// path exists.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_bfs`].
    pub fn run_sssp(&mut self, at: &Alf, source: usize) -> Result<(Vec<f64>, ExecutionReport)> {
        self.run_minplus(at, Some(source), "sssp", DataPathKind::DSssp, |w, d| w + d)
    }

    /// Runs connected components by label propagation over `at`, the
    /// [`AlfLayout::Streaming`] format of the *symmetrized, transposed*
    /// adjacency (callers symmetrize; propagation needs both directions).
    ///
    /// This is the min-plus data path with a phase-1 pass-through of the
    /// neighbor's vertex-id label in place of the edge-weight add —
    /// demonstrating the §4.2 claim that Table 1's common phases make new
    /// kernels cheap to add. Returns the per-vertex component labels.
    ///
    /// # Errors
    ///
    /// Layout/shape errors as in [`Engine::run_spmv`].
    pub fn run_connected_components(&mut self, at: &Alf) -> Result<(Vec<usize>, ExecutionReport)> {
        let (labels, report) = self.run_minplus(at, None, "cc", DataPathKind::DBfs, |_w, l| l)?;
        Ok((labels.iter().map(|&l| l as usize).collect(), report))
    }

    /// The min-reduce graph kernels: rounds of `min` over `op(edge, value)`
    /// gathered from each destination's in-neighbors, with a phase-3
    /// compare-and-assign, until a round changes nothing. Values start at
    /// [`UNREACHED`] except 0 at `source`, or, without a source, at each
    /// vertex's own id.
    fn run_minplus(
        &mut self,
        at: &Alf,
        source: Option<usize>,
        kernel: &'static str,
        kind: DataPathKind,
        op: impl Fn(f64, f64) -> f64,
    ) -> Result<(Vec<f64>, ExecutionReport)> {
        self.check_operands(at, AlfLayout::Streaming, &[(at.rows(), at.cols())])?;
        let n = at.rows();
        let mut dist: Vec<f64> = match source {
            Some(s) if s >= n => {
                return Err(SimError::DimensionMismatch {
                    expected: n,
                    found: s,
                })
            }
            Some(s) => (0..n)
                .map(|v| if v == s { 0.0 } else { UNREACHED })
                .collect(),
            None => (0..n).map(|v| v as f64).collect(),
        };
        let omega = self.config.omega;
        let mut state = self.begin(kernel, Reduce::Min);
        self.configure(kind, Reduce::Min);
        let mut rounds = 0u64;

        loop {
            let mut changed = false;
            rounds += 1;
            self.check_budget(&state)?;
            for block in at.blocks() {
                // Block of Aᵀ: rows are destinations, columns sources.
                self.graph_block(&mut state, block, kind, n);
                let dst_base = block.block_row() * omega;
                let valid = (n - dst_base).min(omega);
                let sc = &mut self.scratch;
                let operand =
                    operand_chunk(&mut sc.operand, &dist, block.block_col() * omega, omega);
                sc.dots.resize(omega, 0.0);
                let cands = &mut sc.dots[..valid];
                self.fcu
                    .min_plus_block(block.payload(), block.reversed(), operand, &op, cands);
                for (i, &cand) in cands.iter().enumerate() {
                    let d = dst_base + i;
                    if cand < dist[d] {
                        // Phase-3 assign: compare and update (Table 1).
                        let _ = self.rcu.pe_op();
                        self.cache.write(REGION_X + d);
                        state.cache_busy += 1;
                        dist[d] = cand;
                        changed = true;
                    }
                }
            }
            if !changed || rounds as usize > n {
                break;
            }
        }

        state.memory.record_bytes(n as u64 * 8);
        let mut report = self.finish(state);
        report.datapaths.iterations = rounds;
        Ok((dist, report))
    }

    /// Runs PageRank over the transposed adjacency structure `at`
    /// (edge `u → v` gathered at `v`), with `out_degrees[u]` counting `u`'s
    /// outgoing edges. Dangling mass is redistributed uniformly. Returns
    /// `(ranks, report)`.
    ///
    /// # Errors
    ///
    /// Layout/shape errors as in [`Engine::run_spmv`], plus
    /// [`SimError::NoConvergence`] when the iteration budget is exhausted.
    pub fn run_pagerank(
        &mut self,
        at: &Alf,
        out_degrees: &[usize],
        opts: &PageRankConfig,
    ) -> Result<(Vec<f64>, ExecutionReport)> {
        self.check_operands(
            at,
            AlfLayout::Streaming,
            &[(at.rows(), at.cols()), (at.rows(), out_degrees.len())],
        )?;
        let omega = self.config.omega;
        let n = at.rows();
        let mut state = self.begin("pagerank", Reduce::Sum);
        self.configure(DataPathKind::DPr, Reduce::Sum);
        let mut rank = vec![1.0 / n as f64; n];

        for it in 1..=opts.max_iters {
            self.check_budget(&state)?;
            // Phase-1 division: contribution of every vertex (ω-wide PEs).
            let contrib = &mut self.scratch.contrib;
            contrib.clear();
            contrib.resize(n, 0.0);
            let mut dangling = 0.0;
            for u in 0..n {
                if out_degrees[u] == 0 {
                    dangling += rank[u];
                } else {
                    let _ = self.rcu.pe_op();
                    contrib[u] = opts.damping * rank[u] / out_degrees[u] as f64;
                }
            }
            let div_cycles = (n as u64).div_ceil(omega as u64) * self.config.pe_latency;
            state.cycles += div_cycles;
            state.breakdown.graph_cycles += div_cycles;

            let base = (1.0 - opts.damping) / n as f64 + opts.damping * dangling / n as f64;
            self.scratch.next.clear();
            self.scratch.next.resize(n, base);
            for block in at.blocks() {
                self.graph_block(&mut state, block, DataPathKind::DPr, n);
                let dst_base = block.block_row() * omega;
                let valid = (n - dst_base).min(omega);
                let sc = &mut self.scratch;
                let operand = operand_chunk(
                    &mut sc.operand,
                    &sc.contrib,
                    block.block_col() * omega,
                    omega,
                );
                // Structure-only gather: an edge contributes its source's
                // (already damped and divided) share.
                self.fcu.pagerank_block(
                    block.payload(),
                    block.reversed(),
                    operand,
                    &mut sc.next[dst_base..dst_base + valid],
                );
            }
            for chunk in (0..n).step_by(omega) {
                self.write_chunk(&mut state, REGION_X, chunk, n);
            }

            let next = &mut self.scratch.next;
            let delta: f64 = rank.iter().zip(&*next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut rank, next);
            if delta < opts.tol {
                state.memory.record_bytes(n as u64 * 8);
                let mut report = self.finish(state);
                report.datapaths.iterations = it as u64;
                return Ok((rank, report));
            }
        }
        Err(SimError::NoConvergence {
            iterations: opts.max_iters,
        })
    }

    /// Runs SpMV streaming the matrix in *CSR* instead of the locally-dense
    /// format — the ALRESCHA-minus-its-format ablation.
    ///
    /// The same FCU/RCU hardware now pays for what the format otherwise
    /// eliminates: column indices and row pointers stream alongside the
    /// values (12 bytes per non-zero instead of dense 8-byte payload), the
    /// vector operand is gathered per element through the cache with no
    /// chunk locality, and rows shorter than ω leave ALU lanes idle. This
    /// quantifies the paper's "NOT transferring meta-data" row of Table 2
    /// on otherwise identical hardware.
    ///
    /// # Errors
    ///
    /// [`SimError::DimensionMismatch`] if `x.len() != a.cols()`.
    pub fn run_spmv_csr(
        &mut self,
        a: &alrescha_sparse::Csr,
        x: &[f64],
    ) -> Result<(Vec<f64>, ExecutionReport)> {
        if x.len() != a.cols() {
            return Err(SimError::DimensionMismatch {
                expected: a.cols(),
                found: x.len(),
            });
        }
        let mut state = self.begin("spmv-csr", Reduce::Sum);
        self.configure(DataPathKind::Gemv, Reduce::Sum);

        let mut y = vec![0.0; a.rows()];
        // Row pointers stream once (4 bytes each).
        state.memory.record_bytes((a.rows() as u64 + 1) * 4);
        self.with_scratch(|eng, sc| eng.csr_rows(sc, &mut state, a, x, &mut y))?;
        state.memory.record_bytes(a.rows() as u64 * 8);
        Ok((y, self.finish(state)))
    }

    /// CSR SpMV's row loop: each row in ω-element chunks, one FCU pass per
    /// chunk with the lanes beyond the chunk idle.
    fn csr_rows(
        &mut self,
        sc: &mut Scratch,
        state: &mut RunState,
        a: &alrescha_sparse::Csr,
        x: &[f64],
        y: &mut [f64],
    ) -> Result<()> {
        let omega = self.config.omega;
        let row_ptr = a.row_ptr();
        for (r, yr) in y.iter_mut().enumerate() {
            self.check_budget(state)?;
            let span = row_ptr[r]..row_ptr[r + 1];
            let (cols, vals) = (&a.col_idx()[span.clone()], &a.values()[span]);
            let mut acc = 0.0;
            for (cols, vals) in cols.chunks(omega).zip(vals.chunks(omega)) {
                // Values (8 B) + column indices (4 B) per element, padded
                // to the ω-lane issue width.
                let payload_values = cols.len() + cols.len().div_ceil(2); // 12 B/nnz in 8 B units
                let mem = state.memory.stream_values(payload_values.max(1));
                // Irregular gather: every element is its own cache access,
                // no chunk reuse guarantee.
                let mut gather_cycles = 0u64;
                for &c in cols {
                    let access = self.cache.read(c);
                    if !access.hit {
                        state.memory.stream_values(self.config.values_per_line());
                    }
                    gather_cycles += 1;
                }
                state.cache_busy += gather_cycles;
                sc.row.clear();
                sc.row.extend_from_slice(vals);
                sc.row.resize(omega, 0.0);
                sc.operand.clear();
                sc.operand.extend(cols.iter().map(|&c| x[c]));
                sc.operand.resize(omega, 0.0);
                acc += self.fcu.mac_row(&sc.row, &sc.operand);
                let compute = 1u64.max(gather_cycles);
                let cycles = mem.max(compute);
                state.cycles += cycles;
                state.breakdown.gemv_cycles += cycles;
                state.counts.gemv_blocks += 1;
            }
            *yr = acc;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::{gen, Coo, Csr};

    fn engine() -> Engine {
        Engine::new(SimConfig::paper())
    }

    fn spmv_alf(coo: &Coo) -> Alf {
        Alf::from_coo(coo, 8, AlfLayout::Streaming).unwrap()
    }

    #[test]
    fn spmv_matches_reference() {
        let coo = gen::stencil27(3);
        let a = spmv_alf(&coo);
        let csr = Csr::from_coo(&coo);
        let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let (y, report) = engine().run_spmv(&a, &x).unwrap();
        let expect = alrescha_kernels::spmv::spmv(&csr, &x);
        assert!(alrescha_sparse::approx_eq(&y, &expect, 1e-12));
        assert!(report.cycles > 0);
        assert!(report.bandwidth_utilization > 0.0);
        assert_eq!(report.datapaths.gemv_blocks as usize, a.blocks().len());
    }

    #[test]
    fn recycled_engine_is_bit_identical() {
        // The contract behind per-worker engine reuse: a run on a recycled
        // engine must match a run on a fresh engine down to every report
        // field — including the RCU switch count, which would differ if the
        // previous run's data-path wiring leaked through the reset — and
        // down to every output bit, which would differ if a larger run's
        // scratch buffers (link stack, PageRank vectors) leaked into a
        // smaller one.
        let coo = gen::stencil27(3);
        let a = spmv_alf(&coo);
        let sg = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = vec![1.0; coo.rows()];
        let graph = gen::GraphClass::Kronecker.generate(48, 5);
        let at = spmv_alf(&graph.transpose());
        let csr = Csr::from_coo(&graph);
        let out_deg: Vec<usize> = (0..csr.rows()).map(|u| csr.row_nnz(u)).collect();
        let pr = PageRankConfig::default();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let symgs = |eng: &mut Engine| {
            let mut xs = x.clone();
            let report = eng.run_symgs(&sg, &b, &mut xs).unwrap();
            (xs, report)
        };

        let (y_fresh, r_fresh) = engine().run_spmv(&a, &x).unwrap();
        let (xs_fresh, rs_fresh) = symgs(&mut engine());
        let (pr_fresh, rp_fresh) = engine().run_pagerank(&at, &out_deg, &pr).unwrap();

        let mut eng = engine();
        // Dirty every piece of engine-lifetime state: a different kernel
        // (leaves the RCU wired for D-SymGS), a fault plan, a budget, an
        // enabled trace, and scratch buffers grown by larger runs.
        eng.set_fault_plan(Some(FaultPlan::inert(3)));
        eng.set_budget(ExecBudget {
            max_cycles: Some(u64::MAX),
            ..ExecBudget::default()
        });
        eng.enable_tracing();
        let mut xs = vec![0.0; coo.cols()];
        eng.run_symgs(&sg, &b, &mut xs).unwrap();
        eng.set_fault_plan(None);
        let big = gen::stencil27(5);
        let big_sg = Alf::from_coo(&big, 8, AlfLayout::SymGs).unwrap();
        let mut big_x = vec![0.5; big.cols()];
        eng.run_symgs(&big_sg, &vec![2.0; big.rows()], &mut big_x)
            .unwrap();
        let big_graph = gen::GraphClass::Kronecker.generate(160, 9);
        let big_csr = Csr::from_coo(&big_graph);
        let big_deg: Vec<usize> = (0..big_csr.rows()).map(|u| big_csr.row_nnz(u)).collect();
        eng.run_pagerank(&spmv_alf(&big_graph.transpose()), &big_deg, &pr)
            .unwrap();

        eng.reset();
        let (y_reused, r_reused) = eng.run_spmv(&a, &x).unwrap();
        assert_eq!(r_fresh, r_reused, "reports must match field-for-field");
        assert_eq!(bits(&y_fresh), bits(&y_reused));
        assert!(eng.fault_injector().is_none(), "reset disarms the plan");
        assert!(eng.take_trace().is_empty(), "reset clears the trace");

        eng.reset();
        let (xs_reused, rs_reused) = symgs(&mut eng);
        assert_eq!(rs_fresh, rs_reused);
        assert_eq!(bits(&xs_fresh), bits(&xs_reused));

        eng.reset();
        let (pr_reused, rp_reused) = eng.run_pagerank(&at, &out_deg, &pr).unwrap();
        assert_eq!(rp_fresh, rp_reused);
        assert_eq!(bits(&pr_fresh), bits(&pr_reused));
    }

    #[test]
    fn memo_hits_leave_lifetime_state_as_the_full_walk() {
        // The engine-lifetime state a hit replays — RCU wiring and
        // reconfiguration totals, cache counters, pending energy events —
        // must equal what the full walk leaves, call after call; the
        // reports alone see only per-run deltas.
        let coo = gen::stencil27(3);
        let a = spmv_alf(&coo);
        let sg = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = vec![1.0; coo.rows()];
        let lifetime = |eng: &Engine| {
            (
                eng.rcu.current(),
                eng.rcu.stats(),
                eng.rcu.counters().clone(),
                eng.fcu.counters().clone(),
                (eng.cache.hits(), eng.cache.misses(), eng.cache.writes()),
            )
        };
        let (mut cold, mut warm) = (engine(), engine());
        for _ in 0..2 {
            for eng in [&mut cold, &mut warm] {
                eng.run_spmv(&a, &x).unwrap();
                eng.run_symgs(&sg, &b, &mut x.clone()).unwrap();
            }
        }
        let mut xs = (x.clone(), x.clone());
        for round in 0..3 {
            cold.memo = TimingMemo::default();
            let (y_cold, r_cold) = cold.run_spmv(&a, &x).unwrap();
            let (y_warm, r_warm) = warm.run_spmv(&a, &x).unwrap();
            assert_eq!((y_cold, r_cold), (y_warm, r_warm), "round {round}");
            assert_eq!(lifetime(&cold), lifetime(&warm), "round {round} spmv");
            cold.memo = TimingMemo::default();
            let r_cold = cold.run_ssor(&sg, &b, &mut xs.0, 1.3).unwrap();
            let r_warm = warm.run_ssor(&sg, &b, &mut xs.1, 1.3).unwrap();
            assert_eq!(r_cold, r_warm, "round {round}");
            assert_eq!(lifetime(&cold), lifetime(&warm), "round {round} ssor");
        }
        assert_eq!(xs.0, xs.1);
    }

    #[test]
    fn spmv_rejects_symgs_layout() {
        let coo = gen::stencil27(2);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let x = vec![0.0; a.cols()];
        assert!(matches!(
            engine().run_spmv(&a, &x),
            Err(SimError::LayoutMismatch { .. })
        ));
    }

    #[test]
    fn spmv_rejects_wrong_x_len() {
        let a = spmv_alf(&gen::stencil27(2));
        assert!(engine().run_spmv(&a, &[1.0]).is_err());
    }

    #[test]
    fn spmv_rejects_block_width_mismatch() {
        let coo = gen::stencil27(2);
        let a = Alf::from_coo(&coo, 4, AlfLayout::Streaming).unwrap();
        let x = vec![0.0; a.cols()];
        assert!(matches!(
            engine().run_spmv(&a, &x),
            Err(SimError::BlockWidthMismatch { .. })
        ));
    }

    #[test]
    fn symgs_forward_matches_reference() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let csr = Csr::from_coo(&coo);
        let b: Vec<f64> = (0..coo.rows()).map(|i| 1.0 + (i % 5) as f64).collect();

        let mut x_sim = vec![0.0; coo.cols()];
        engine().run_symgs_forward(&a, &b, &mut x_sim).unwrap();

        let mut x_ref = vec![0.0; coo.cols()];
        alrescha_kernels::symgs::forward_sweep(&csr, &b, &mut x_ref).unwrap();
        assert!(alrescha_sparse::approx_eq(&x_sim, &x_ref, 1e-10));
    }

    #[test]
    fn symgs_full_matches_reference_on_all_classes() {
        for class in gen::ScienceClass::ALL {
            let coo = class.generate(120, 3);
            let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
            let csr = Csr::from_coo(&coo);
            let b: Vec<f64> = (0..coo.rows()).map(|i| (i as f64 * 0.7).cos()).collect();

            let mut x_sim = vec![0.0; coo.cols()];
            engine().run_symgs(&a, &b, &mut x_sim).unwrap();

            let mut x_ref = vec![0.0; coo.cols()];
            alrescha_kernels::symgs::symgs(&csr, &b, &mut x_ref).unwrap();
            assert!(
                alrescha_sparse::approx_eq(&x_sim, &x_ref, 1e-9),
                "mismatch on {}",
                class.name()
            );
        }
    }

    #[test]
    fn symgs_counts_both_datapaths_and_switches() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let report = engine().run_symgs_forward(&a, &b, &mut x).unwrap();
        assert!(report.datapaths.gemv_blocks > 0);
        assert!(report.datapaths.dsymgs_blocks > 0);
        assert!(
            report.reconfig.switches > 1,
            "must switch between data paths"
        );
        assert_eq!(report.reconfig.exposed_cycles, 0, "drain hides the switch");
    }

    #[test]
    fn bfs_matches_reference() {
        let coo = gen::road_grid(6);
        let at = spmv_alf(&coo.transpose());
        let csr = Csr::from_coo(&coo);
        let (levels, report) = engine().run_bfs(&at, 0).unwrap();
        let expect = alrescha_kernels::graph::bfs(&csr, 0).unwrap();
        assert_eq!(levels, expect);
        assert!(report.datapaths.iterations > 1);
    }

    #[test]
    fn sssp_matches_reference() {
        let coo = gen::GraphClass::Social.generate(100, 5);
        let at = spmv_alf(&coo.transpose());
        let csr = Csr::from_coo(&coo);
        let (dist, _) = engine().run_sssp(&at, 0).unwrap();
        let expect = alrescha_kernels::graph::sssp(&csr, 0).unwrap();
        assert!(dist
            .iter()
            .zip(&expect)
            .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9));
    }

    #[test]
    fn pagerank_matches_reference() {
        let coo = gen::GraphClass::Kronecker.generate(64, 7);
        let at = spmv_alf(&coo.transpose());
        let csr = Csr::from_coo(&coo);
        let out_deg: Vec<usize> = (0..csr.rows()).map(|u| csr.row_nnz(u)).collect();
        let (ranks, report) = engine()
            .run_pagerank(&at, &out_deg, &PageRankConfig::default())
            .unwrap();
        let (expect, _) = alrescha_kernels::graph::pagerank(
            &csr,
            &alrescha_kernels::graph::PageRankOptions::default(),
        )
        .unwrap();
        assert!(alrescha_sparse::approx_eq(&ranks, &expect, 1e-6));
        assert!(report.datapaths.iterations > 1);
    }

    #[test]
    fn bfs_source_out_of_range() {
        let at = spmv_alf(&gen::road_grid(3).transpose());
        assert!(engine().run_bfs(&at, 10_000).is_err());
    }

    #[test]
    fn dsymgs_blocks_dominate_cycles_on_diagonal_matrices() {
        // A banded matrix living inside diagonal blocks: almost all time is
        // the sequential D-SymGS recurrence.
        let coo = gen::banded(256, 3, 1);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; 256];
        let mut x = vec![0.0; 256];
        let report = engine().run_symgs_forward(&a, &b, &mut x).unwrap();
        let step = SimConfig::paper().dsymgs_step_latency();
        let dsymgs_cycles = report.datapaths.dsymgs_blocks * 8 * step;
        assert!(
            dsymgs_cycles * 2 > report.cycles,
            "dsymgs {} of total {}",
            dsymgs_cycles,
            report.cycles
        );
    }

    #[test]
    fn energy_counters_populate() {
        let coo = gen::stencil27(2);
        let a = spmv_alf(&coo);
        let x = vec![1.0; a.cols()];
        let (_, report) = engine().run_spmv(&a, &x).unwrap();
        assert!(report.energy.alu_ops > 0);
        assert!(report.energy.re_ops > 0);
        assert!(report.energy.dram_bytes > 0);
        assert!(report.energy.cache_accesses > 0);
    }
}

#[cfg(test)]
mod breakdown_tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn breakdown_accounts_every_cycle() {
        let coo = gen::stencil27(4);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        let report = engine.run_symgs_forward(&a, &b, &mut x).unwrap();
        assert_eq!(
            report.breakdown.total(),
            report.cycles,
            "breakdown {:?} vs cycles {}",
            report.breakdown,
            report.cycles
        );
        assert!(report.breakdown.gemv_cycles > 0);
        assert!(report.breakdown.dsymgs_cycles > 0);
        assert!(report.breakdown.drain_cycles > 0);
        assert_eq!(report.breakdown.graph_cycles, 0);
    }

    #[test]
    fn overlap_drain_removes_switch_cost() {
        let coo = gen::stencil27(4);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];

        let mut baseline_engine = Engine::new(SimConfig::paper());
        let mut x1 = vec![0.0; coo.cols()];
        let baseline = baseline_engine.run_symgs_forward(&a, &b, &mut x1).unwrap();

        let mut overlap_engine = Engine::new(SimConfig::paper().with_overlap_drain(true));
        let mut x2 = vec![0.0; coo.cols()];
        let overlapped = overlap_engine.run_symgs_forward(&a, &b, &mut x2).unwrap();

        assert!(overlapped.cycles < baseline.cycles);
        assert!(overlapped.breakdown.drain_cycles < baseline.breakdown.drain_cycles);
        // Functional results are identical: the knob is timing-only.
        assert_eq!(x1, x2);
    }

    #[test]
    fn spmv_breakdown_is_gemv_plus_drain() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x = vec![1.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        let (_, report) = engine.run_spmv(&a, &x).unwrap();
        assert_eq!(report.breakdown.total(), report.cycles);
        assert_eq!(report.breakdown.dsymgs_cycles, 0);
        assert!(report.breakdown.gemv_cycles > report.breakdown.drain_cycles);
    }

    #[test]
    fn graph_breakdown_uses_graph_bucket() {
        let coo = gen::road_grid(5);
        let at = Alf::from_coo(&coo.transpose(), 8, AlfLayout::Streaming).unwrap();
        let mut engine = Engine::new(SimConfig::paper());
        let (_, report) = engine.run_bfs(&at, 0).unwrap();
        assert_eq!(report.breakdown.total(), report.cycles);
        assert!(report.breakdown.graph_cycles > 0);
        assert_eq!(report.breakdown.gemv_cycles, 0);
    }
}

#[cfg(test)]
mod link_stack_tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn symgs_reports_link_stack_peak() {
        let coo = gen::stencil27(4);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        let report = engine.run_symgs_forward(&a, &b, &mut x).unwrap();
        // Every block row with k off-diagonal blocks pushes k*omega entries
        // before D-SymGS pops them, so the peak is a positive multiple of
        // omega.
        assert!(report.datapaths.link_stack_peak >= 8);
        assert_eq!(report.datapaths.link_stack_peak % 8, 0);
    }

    #[test]
    fn buffer_peaks_are_per_run_on_a_reused_engine() {
        // The link stack and FIFOs are engine scratch reused across runs;
        // their high-water marks must still be this run's own.
        let sweep = |engine: &mut Engine, side: usize| {
            let coo = gen::stencil27(side);
            let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
            let mut x = vec![0.0; coo.cols()];
            engine
                .run_symgs_forward(&a, &vec![1.0; coo.rows()], &mut x)
                .unwrap()
                .datapaths
        };
        let fresh = sweep(&mut Engine::new(SimConfig::paper()), 2);
        let mut reused = Engine::new(SimConfig::paper());
        let big = sweep(&mut reused, 4);
        assert!(big.link_stack_peak > fresh.link_stack_peak);
        let small = sweep(&mut reused, 2);
        assert_eq!(small.link_stack_peak, fresh.link_stack_peak);
        assert_eq!(small.operand_fifo_peak, fresh.operand_fifo_peak);
    }

    #[test]
    fn spmv_does_not_use_the_link_stack() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x = vec![1.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        let (_, report) = engine.run_spmv(&a, &x).unwrap();
        assert_eq!(report.datapaths.link_stack_peak, 0);
    }

    #[test]
    fn lifo_handoff_preserves_functional_result() {
        // The stack reverses the order of GEMV results; the per-lane
        // reduction must still match the reference sweep exactly.
        let coo = gen::electromagnetic(200, 3);
        let csr = alrescha_sparse::Csr::from_coo(&coo);
        let b: Vec<f64> = (0..200).map(|i| (f64::from(i) * 0.7).sin()).collect();

        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let mut x_dev = vec![0.0; 200];
        Engine::new(SimConfig::paper())
            .run_symgs_forward(&a, &b, &mut x_dev)
            .unwrap();

        let mut x_ref = vec![0.0; 200];
        alrescha_kernels::symgs::forward_sweep(&csr, &b, &mut x_ref).unwrap();
        assert!(alrescha_sparse::approx_eq(&x_dev, &x_ref, 1e-10));
    }
}

#[cfg(test)]
mod runtime_tests {
    use super::*;
    use crate::runtime::ExecBudget;
    use alrescha_sparse::gen;

    #[test]
    fn cycle_budget_interrupts_spmv() {
        let coo = gen::stencil27(4);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x = vec![1.0; a.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        engine.set_budget(ExecBudget::cycles(50));
        match engine.run_spmv(&a, &x) {
            Err(SimError::DeadlineExceeded { budget, cycle }) => {
                assert_eq!(budget, "cycle");
                assert!(cycle > 50, "reported cycle is where the budget tripped");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn open_budget_is_bit_identical_to_no_budget() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x: Vec<f64> = (0..a.cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let (y_plain, r_plain) = Engine::new(SimConfig::paper()).run_spmv(&a, &x).unwrap();
        let mut budgeted = Engine::new(SimConfig::paper());
        budgeted.set_budget(ExecBudget::none().with_watchdog(4096));
        let (y_budget, r_budget) = budgeted.run_spmv(&a, &x).unwrap();
        assert_eq!(y_plain, y_budget);
        assert_eq!(r_plain.cycles, r_budget.cycles);
    }

    #[test]
    fn wedged_scheduler_stalls_within_watchdog() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        engine.set_fault_plan(Some(FaultPlan::inert(1).with_dsymgs_stall_after(2)));
        engine.set_budget(ExecBudget::cycles(1_000_000).with_watchdog(512));
        match engine.run_symgs_forward(&a, &b, &mut x) {
            Err(SimError::Stalled {
                site,
                cycle,
                idle_cycles,
            }) => {
                assert_eq!(site, "d-symgs block scheduler");
                assert_eq!(idle_cycles, 512);
                assert!(cycle <= 1_000_000, "stall detected within the budget");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        let counters = engine.fault_injector().unwrap().counters();
        assert_eq!(counters.injected, 1);
        assert_eq!(counters.detected, 1);
    }

    #[test]
    fn wedge_under_tight_budget_reports_deadline_first() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        engine.set_fault_plan(Some(FaultPlan::inert(1).with_dsymgs_stall_after(0)));
        // The watchdog window extends past the cycle budget, so the budget
        // expires first.
        engine.set_budget(ExecBudget::cycles(100).with_watchdog(1 << 20));
        match engine.run_symgs_forward(&a, &b, &mut x) {
            Err(SimError::DeadlineExceeded { budget, cycle }) => {
                assert_eq!(budget, "cycle");
                assert_eq!(cycle, 100);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn wall_clock_budget_zero_trips_immediately() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x = vec![1.0; a.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        engine.set_budget(ExecBudget::none().with_wall(std::time::Duration::ZERO));
        assert!(matches!(
            engine.run_spmv(&a, &x),
            Err(SimError::DeadlineExceeded {
                budget: "wall-clock",
                ..
            })
        ));
    }

    #[test]
    fn retry_recovery_lands_in_recovery_bucket() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x = vec![1.0; a.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        engine.set_fault_plan(Some(FaultPlan::inert(7).with_fcu_lane_rate(0.05)));
        engine.set_recovery_policy(RecoveryPolicy::Retry {
            max_retries: 8,
            backoff_cycles: 16,
        });
        let (_, report) = engine.run_spmv(&a, &x).unwrap();
        assert!(
            report.faults.retries > 0,
            "plan must force at least one retry"
        );
        assert!(
            report.breakdown.recovery_cycles > 0,
            "retry redo work must be charged to the recovery bucket"
        );
        assert_eq!(report.breakdown.total(), report.cycles);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::TraceEvent;
    use alrescha_sparse::gen;

    #[test]
    fn symgs_trace_orders_gemv_before_dsymgs_per_block_row() {
        let coo = gen::stencil27(4);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        engine.enable_tracing();
        engine.run_symgs_forward(&a, &b, &mut x).unwrap();
        let events = engine.take_trace();
        assert!(!events.is_empty());

        // Within each block row, every GEMV block precedes the D-SymGS.
        let mut seen_dsymgs_for_row: Option<usize> = None;
        for event in &events {
            if let TraceEvent::BlockBegin {
                block_row, kind, ..
            } = event
            {
                match kind {
                    DataPathKind::DSymGs => seen_dsymgs_for_row = Some(*block_row),
                    DataPathKind::Gemv => {
                        if let Some(done_row) = seen_dsymgs_for_row {
                            assert_ne!(
                                *block_row, done_row,
                                "gemv after d-symgs within block row {done_row}"
                            );
                        }
                    }
                    _ => unreachable!("symgs uses only gemv and d-symgs"),
                }
            }
        }
    }

    #[test]
    fn trace_brackets_the_kernel() {
        let coo = gen::stencil27(2);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x = vec![1.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        engine.enable_tracing();
        let (_, report) = engine.run_spmv(&a, &x).unwrap();
        let events = engine.take_trace();
        assert_eq!(
            events.first(),
            Some(&TraceEvent::KernelBegin { kernel: "spmv" })
        );
        assert_eq!(
            events.last(),
            Some(&TraceEvent::KernelEnd {
                cycles: report.cycles
            })
        );
        let blocks = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::BlockBegin { .. }))
            .count();
        assert_eq!(blocks, a.blocks().len());
    }

    #[test]
    fn reconfigure_events_match_report_switches() {
        type Run<'a> = &'a dyn Fn(&mut Engine) -> ExecutionReport;
        // Every kernel, each run twice on one engine: the second run finds
        // its data path already wired (zero switches for the single-path
        // kernels) and must trace exactly as many switches as it reports.
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let sg = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let csr = alrescha_sparse::Csr::from_coo(&coo);
        let at = Alf::from_coo(&coo.transpose(), 8, AlfLayout::Streaming).unwrap();
        let out_deg: Vec<usize> = (0..csr.rows()).map(|u| csr.row_nnz(u)).collect();
        let x = vec![1.0; coo.cols()];
        let b = vec![1.0; coo.rows()];
        let runs: [(&str, Run); 10] = [
            ("spmv", &|e| e.run_spmv(&a, &x).unwrap().1),
            ("spmv-csr", &|e| e.run_spmv_csr(&csr, &x).unwrap().1),
            ("symgs-forward", &|e| {
                e.run_symgs_forward(&sg, &b, &mut x.clone()).unwrap()
            }),
            ("symgs-backward", &|e| {
                e.run_symgs_backward(&sg, &b, &mut x.clone()).unwrap()
            }),
            ("symgs", &|e| e.run_symgs(&sg, &b, &mut x.clone()).unwrap()),
            ("ssor", &|e| {
                e.run_ssor(&sg, &b, &mut x.clone(), 1.3).unwrap()
            }),
            ("bfs", &|e| e.run_bfs(&at, 0).unwrap().1),
            ("sssp", &|e| e.run_sssp(&at, 0).unwrap().1),
            ("cc", &|e| e.run_connected_components(&at).unwrap().1),
            ("pagerank", &|e| {
                e.run_pagerank(&at, &out_deg, &PageRankConfig::default())
                    .unwrap()
                    .1
            }),
        ];
        for (kernel, run) in runs {
            let mut engine = Engine::new(SimConfig::paper());
            engine.enable_tracing();
            for pass in ["first", "second"] {
                let report = run(&mut engine);
                let reconfigs = engine
                    .take_trace()
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Reconfigure { .. }))
                    .count() as u64;
                assert_eq!(
                    reconfigs, report.reconfig.switches,
                    "{kernel}, {pass} run on one engine"
                );
            }
        }
    }

    #[test]
    fn tracing_off_by_default() {
        let coo = gen::stencil27(2);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x = vec![1.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        engine.run_spmv(&a, &x).unwrap();
        assert!(engine.take_trace().is_empty());
    }
}

#[cfg(test)]
mod csr_mode_tests {
    use super::*;
    use alrescha_sparse::{gen, Csr};

    #[test]
    fn csr_mode_is_functionally_correct() {
        let coo = gen::stencil27(3);
        let csr = Csr::from_coo(&coo);
        let x: Vec<f64> = (0..coo.cols()).map(|i| (i as f64 * 0.21).cos()).collect();
        let (y, _) = Engine::new(SimConfig::paper())
            .run_spmv_csr(&csr, &x)
            .unwrap();
        let expect = alrescha_kernels::spmv::spmv(&csr, &x);
        assert!(alrescha_sparse::approx_eq(&y, &expect, 1e-12));
    }

    #[test]
    fn locally_dense_format_beats_csr_streaming_on_stencils() {
        // The format ablation: same hardware, same matrix — the
        // locally-dense layout must win on block-friendly structure.
        let coo = gen::stencil27(6);
        let csr = Csr::from_coo(&coo);
        let alf = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x = vec![1.0; coo.cols()];

        let (_, alf_report) = Engine::new(SimConfig::paper()).run_spmv(&alf, &x).unwrap();
        let (_, csr_report) = Engine::new(SimConfig::paper())
            .run_spmv_csr(&csr, &x)
            .unwrap();
        assert!(
            alf_report.cycles < csr_report.cycles,
            "alf {} csr {}",
            alf_report.cycles,
            csr_report.cycles
        );
    }

    #[test]
    fn csr_mode_streams_metadata() {
        use alrescha_sparse::MetaData;
        let coo = gen::banded(200, 3, 1);
        let csr = Csr::from_coo(&coo);
        let x = vec![1.0; 200];
        let (_, report) = Engine::new(SimConfig::paper())
            .run_spmv_csr(&csr, &x)
            .unwrap();
        // At least 12 bytes per nnz must have moved (values + indices).
        assert!(report.bytes_streamed >= 12 * csr.nnz() as u64);
    }

    #[test]
    fn csr_mode_rejects_bad_operand() {
        let csr = Csr::from_coo(&gen::banded(10, 1, 1));
        assert!(Engine::new(SimConfig::paper())
            .run_spmv_csr(&csr, &[1.0])
            .is_err());
    }
}

#[cfg(test)]
mod cc_tests {
    use super::*;
    use alrescha_sparse::{gen, Coo, Csr};

    fn symmetrized_transposed(adj: &Coo) -> Alf {
        let mut sym = adj.clone();
        for &(u, v, w) in adj.entries() {
            sym.push(v, u, w);
        }
        Alf::from_coo(&sym.transpose().compress(), 8, AlfLayout::Streaming).unwrap()
    }

    #[test]
    fn cc_matches_reference_on_road_grid() {
        let adj = gen::road_grid(6);
        let at = symmetrized_transposed(&adj);
        let (labels, report) = Engine::new(SimConfig::paper())
            .run_connected_components(&at)
            .unwrap();
        let expect = alrescha_kernels::graph::connected_components(&Csr::from_coo(&adj)).unwrap();
        assert_eq!(labels, expect);
        assert!(report.datapaths.iterations >= 1);
    }

    #[test]
    fn cc_finds_separate_components() {
        let mut coo = Coo::new(10, 10);
        coo.push(0, 1, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 4, 1.0);
        let at = symmetrized_transposed(&coo);
        let (labels, _) = Engine::new(SimConfig::paper())
            .run_connected_components(&at)
            .unwrap();
        assert_eq!(labels[0], 0);
        assert_eq!(labels[1], 0);
        assert_eq!(labels[2], 2);
        assert_eq!(labels[4], 2);
        assert_eq!(labels[9], 9);
    }

    #[test]
    fn cc_rejects_symgs_layout() {
        let coo = gen::stencil27(2);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        assert!(Engine::new(SimConfig::paper())
            .run_connected_components(&a)
            .is_err());
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn pagerank_budget_exhaustion_is_an_error() {
        let coo = gen::GraphClass::Kronecker.generate(64, 5);
        let at = Alf::from_coo(&coo.transpose(), 8, AlfLayout::Streaming).unwrap();
        let csr = alrescha_sparse::Csr::from_coo(&coo);
        let out_deg: Vec<usize> = (0..csr.rows()).map(|u| csr.row_nnz(u)).collect();
        let opts = PageRankConfig {
            max_iters: 1,
            tol: 1e-16,
            ..Default::default()
        };
        let err = Engine::new(SimConfig::paper()).run_pagerank(&at, &out_deg, &opts);
        assert!(matches!(
            err,
            Err(SimError::NoConvergence { iterations: 1 })
        ));
    }

    #[test]
    fn non_power_of_two_lanes_run_spmv_correctly() {
        let coo = gen::banded(50, 2, 3);
        let config = SimConfig::paper().with_omega(6);
        let a = Alf::from_coo(&coo, 6, AlfLayout::Streaming).unwrap();
        let x: Vec<f64> = (0..50).map(|i| (f64::from(i) * 0.4).sin()).collect();
        let (y, report) = Engine::new(config).run_spmv(&a, &x).unwrap();
        let expect = alrescha_kernels::spmv::spmv(&alrescha_sparse::Csr::from_coo(&coo), &x);
        assert!(alrescha_sparse::approx_eq(&y, &expect, 1e-12));
        assert!(report.cycles > 0);
    }

    #[test]
    fn empty_matrix_spmv_is_trivial() {
        let coo = alrescha_sparse::Coo::new(16, 16);
        let a = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let x = vec![1.0; 16];
        let (y, report) = Engine::new(SimConfig::paper()).run_spmv(&a, &x).unwrap();
        assert_eq!(y, vec![0.0; 16]);
        assert_eq!(report.datapaths.gemv_blocks, 0);
    }

    #[test]
    fn single_vertex_graph_kernels() {
        let mut coo = alrescha_sparse::Coo::new(1, 1);
        let _ = &mut coo; // no edges
        let at = Alf::from_coo(&coo, 8, AlfLayout::Streaming).unwrap();
        let (levels, _) = Engine::new(SimConfig::paper()).run_bfs(&at, 0).unwrap();
        assert_eq!(levels, vec![0.0]);
    }
}

#[cfg(test)]
mod sor_tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn device_sor_matches_reference() {
        let coo = gen::stencil27(3);
        let csr = alrescha_sparse::Csr::from_coo(&coo);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b: Vec<f64> = (0..coo.rows()).map(|i| (i as f64 * 0.3).sin()).collect();

        for omega_relax in [1.0f64, 1.3, 0.7] {
            let mut x_dev = vec![0.0; coo.cols()];
            Engine::new(SimConfig::paper())
                .run_sor_sweep(&a, &b, &mut x_dev, false, omega_relax)
                .unwrap();
            let mut x_ref = vec![0.0; coo.cols()];
            alrescha_kernels::smoothers::sor_forward(&csr, &b, &mut x_ref, omega_relax).unwrap();
            assert!(
                alrescha_sparse::approx_eq(&x_dev, &x_ref, 1e-9),
                "omega_relax {omega_relax}"
            );
        }
    }

    #[test]
    fn device_sor_rejects_bad_relaxation() {
        let coo = gen::stencil27(2);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        for factor in [0.0, 2.0, 2.5, -1.0] {
            assert_eq!(
                engine.run_ssor(&a, &b, &mut x, factor),
                Err(SimError::RelaxationOutOfRange { factor })
            );
        }
        let nan = engine.run_ssor(&a, &b, &mut x, f64::NAN);
        assert!(
            matches!(nan, Err(SimError::RelaxationOutOfRange { factor }) if factor.is_nan()),
            "{nan:?}"
        );
        assert_eq!(x, vec![0.0; coo.cols()], "a rejected factor runs nothing");
    }
}

#[cfg(test)]
mod ssor_tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn device_ssor_matches_reference_for_any_relaxation() {
        let coo = gen::electromagnetic(150, 9);
        let csr = alrescha_sparse::Csr::from_coo(&coo);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b: Vec<f64> = (0..coo.rows()).map(|i| 1.0 + (i % 4) as f64).collect();
        for omega_relax in [1.0f64, 1.4, 0.6] {
            let mut x_dev = vec![0.0; coo.cols()];
            Engine::new(SimConfig::paper())
                .run_ssor(&a, &b, &mut x_dev, omega_relax)
                .unwrap();
            let mut x_ref = vec![0.0; coo.cols()];
            alrescha_kernels::smoothers::ssor(&csr, &b, &mut x_ref, omega_relax).unwrap();
            assert!(
                alrescha_sparse::approx_eq(&x_dev, &x_ref, 1e-9),
                "omega_relax {omega_relax}"
            );
        }
    }

    #[test]
    fn ssor_at_unit_relaxation_equals_symgs_on_device() {
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x1 = vec![0.0; coo.cols()];
        Engine::new(SimConfig::paper())
            .run_ssor(&a, &b, &mut x1, 1.0)
            .unwrap();
        let mut x2 = vec![0.0; coo.cols()];
        Engine::new(SimConfig::paper())
            .run_symgs(&a, &b, &mut x2)
            .unwrap();
        assert_eq!(x1, x2);
    }
}
