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

use crate::buffers::{Fifo, LinkStack};
use crate::cache::LocalCache;
use crate::config::SimConfig;
use crate::energy::EnergyCounters;
use crate::error::{Result, SimError};
use crate::fault::{
    self, FaultCounters, FaultInjector, FaultPlan, FaultSite, InjectorSnapshot, RecoveryPolicy,
};
use crate::fcu::{Fcu, Reduce};
use crate::memory::MemoryStream;
use crate::rcu::{DataPathKind, Rcu};
use crate::report::{CacheStats, DataPathCounts, ExecutionReport};
use crate::runtime::ExecBudget;
use crate::shift::ShiftRegister;

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
    trace: crate::trace::Trace,
    faults: Option<FaultInjector>,
    recovery: RecoveryPolicy,
    budget: ExecBudget,
    telemetry: Option<EngineTelemetry>,
    scratch: Scratch,
}

/// Engine-owned scratch buffers, reused by every run so that the
/// fault-free hot path makes no heap allocation per block. Every run
/// overwrites what it reads before reading it, so no state can leak from
/// one run into the next; [`Engine::reset`] keeps their capacity but drops
/// their contents.
#[derive(Debug, Default)]
struct Scratch {
    /// The ω dot products of the GEMV block in flight.
    dots: Vec<f64>,
    /// The ω-chunk of the vector operand a block multiplies.
    operand: Vec<f64>,
    /// One payload row rearranged into lane order: rotated onto the
    /// D-SymGS shift register, or reduced to D-PR edge indicators.
    lanes: Vec<f64>,
    /// SymGS block-row index: the blocks of block row `r` are
    /// `row_blocks[row_start[r]..row_start[r + 1]]`, in stream order.
    row_start: Vec<usize>,
    row_blocks: Vec<usize>,
    /// Per-lane sum of the link-stack pops feeding one D-SymGS block.
    partial: Vec<f64>,
    link_stack: LinkStack<(usize, f64)>,
    b_fifo: Fifo<f64>,
    diag_fifo: Fifo<f64>,
    shift: ShiftRegister,
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
            &mut self.lanes,
            &mut self.partial,
            &mut self.contrib,
            &mut self.next,
        ] {
            v.clear();
        }
        self.row_start.clear();
        self.row_blocks.clear();
        self.link_stack.reset();
        self.b_fifo.reset();
        self.diag_fifo.reset();
        self.shift.reload([]);
    }

    /// Indexes `a`'s blocks by block row (a stable counting sort, so each
    /// row keeps its stream order).
    fn index_block_rows(&mut self, a: &Alf) {
        let rows = a.block_rows();
        self.row_start.clear();
        self.row_start.resize(rows + 1, 0);
        for block in a.blocks() {
            self.row_start[block.block_row() + 1] += 1;
        }
        for r in 0..rows {
            self.row_start[r + 1] += self.row_start[r];
        }
        // Fill using row_start[r] as row r's cursor, which leaves it at the
        // start of row r + 1; shifting right restores the starts.
        self.row_blocks.clear();
        self.row_blocks.resize(a.num_blocks(), 0);
        for (k, block) in a.blocks().iter().enumerate() {
            let cursor = &mut self.row_start[block.block_row()];
            self.row_blocks[*cursor] = k;
            *cursor += 1;
        }
        self.row_start.copy_within(0..rows, 1);
        self.row_start[0] = 0;
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

/// Loads the ω-chunk of `x` starting at `start` into `buf`, padding lanes
/// past the end of `x` with zeros.
fn load_operand(buf: &mut Vec<f64>, x: &[f64], start: usize, omega: usize) {
    let end = (start + omega).min(x.len());
    buf.clear();
    buf.extend_from_slice(&x[start.min(end)..end]);
    buf.resize(omega, 0.0);
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
        }
    }
}

/// Per-run mutable accounting.
#[derive(Debug)]
struct RunState {
    cycles: u64,
    memory: MemoryStream,
    cache_busy: u64,
    counts: DataPathCounts,
    cache_base: (u64, u64, u64), // (hits, misses, writes) at run start
    reconfig_base: crate::rcu::ReconfigStats,
    breakdown: crate::report::CycleBreakdown,
    link_stack_peak: usize,
    operand_fifo_peak: usize,
    fault_base: FaultCounters,
    wall_start: std::time::Instant,
    /// Telemetry was attached and enabled when the run began; the trace
    /// events from `trace_base` on belong to this run's device timeline.
    telemetry_armed: bool,
    trace_base: usize,
    t0_ns: u64,
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
        Engine {
            config,
            fcu,
            rcu,
            cache,
            trace: crate::trace::Trace::new(),
            faults: None,
            recovery: RecoveryPolicy::default(),
            budget: ExecBudget::default(),
            telemetry: None,
            scratch: Scratch::default(),
        }
    }

    /// Recycles the engine for a new, unrelated workload: every piece of
    /// engine-lifetime state — RCU data-path wiring and reconfiguration
    /// statistics, energy counters, cache contents and counters, the trace
    /// log, the fault plan, the recovery policy, and the budget — returns
    /// to its just-built value, while config-derived allocations are kept.
    /// The hot-path scratch buffers keep their capacity but no contents.
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
    pub fn take_trace(&mut self) -> Vec<crate::trace::TraceEvent> {
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
        self.trace
            .record(crate::trace::TraceEvent::CheckpointWrite { bytes });
        if let Some(et) = &self.telemetry {
            et.checkpoint_writes.inc();
            et.checkpoint_bytes.add(bytes);
        }
    }

    /// Records a block completion: pairs the closest preceding `BlockBegin`
    /// and feeds the cycles-per-block histogram.
    fn note_block_end(&mut self, cycles: u64) {
        self.trace
            .record(crate::trace::TraceEvent::BlockEnd { cycles });
        if let Some(et) = &self.telemetry {
            et.cycles_per_block.observe(cycles);
        }
    }

    fn trace_reconfigure(&mut self, to: DataPathKind, exposed: u64) {
        self.trace
            .record(crate::trace::TraceEvent::Reconfigure { to, exposed });
    }

    fn trace_block(&mut self, block_row: usize, block_col: usize, kind: DataPathKind) {
        self.trace.record(crate::trace::TraceEvent::BlockBegin {
            block_row,
            block_col,
            kind,
        });
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    fn begin(&mut self, reduce: Reduce) -> RunState {
        self.cache.flush();
        let telemetry_armed = self
            .telemetry
            .as_ref()
            .is_some_and(|et| et.tele.is_enabled());
        let mut t0_ns = 0;
        if telemetry_armed {
            self.trace.enable();
            if let Some(et) = &self.telemetry {
                t0_ns = et.tele.now_ns();
            }
        }
        let trace_base = self.trace.events().len();
        let fill = self.fcu.fill_latency(reduce);
        let mut memory = MemoryStream::new(&self.config);
        memory.attach_injector(self.faults.clone());
        RunState {
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
            link_stack_peak: 0,
            operand_fifo_peak: 0,
            fault_base: self
                .faults
                .as_ref()
                .map(FaultInjector::counters)
                .unwrap_or_default(),
            wall_start: std::time::Instant::now(),
            telemetry_armed,
            trace_base,
            t0_ns,
        }
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

    fn finish(&mut self, kernel: &'static str, state: RunState, reduce: Reduce) -> ExecutionReport {
        // Reconfiguration statistics are engine-lifetime totals; report the
        // delta accumulated by this run only.
        let totals = self.rcu.stats();
        let reconfig = crate::rcu::ReconfigStats {
            switches: totals.switches - state.reconfig_base.switches,
            hidden_cycles: totals.hidden_cycles - state.reconfig_base.hidden_cycles,
            exposed_cycles: totals.exposed_cycles - state.reconfig_base.exposed_cycles,
        };
        let mut breakdown = state.breakdown;
        breakdown.drain_cycles += self.fcu.drain(reduce) + reconfig.exposed_cycles;
        let mut cycles = state.cycles + self.fcu.drain(reduce);
        cycles += reconfig.exposed_cycles;
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
        self.trace
            .record(crate::trace::TraceEvent::KernelEnd { cycles });
        let seconds = self.config.cycles_to_seconds(cycles);
        let faults = self
            .faults
            .as_ref()
            .map(|inj| inj.counters().delta(&state.fault_base))
            .unwrap_or_default();
        let report = ExecutionReport {
            kernel,
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
        self.publish_metrics(&report);
        if state.telemetry_armed {
            self.capture_device_timeline(state.trace_base, state.t0_ns, &report);
        }
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

    /// Converts the trace events this run appended (from `trace_base` on)
    /// into a device timeline pinned to host time `[t0_ns, now]`, records
    /// it on the telemetry sink, and removes the consumed events.
    fn capture_device_timeline(&mut self, trace_base: usize, t0_ns: u64, report: &ExecutionReport) {
        let Some(et) = &self.telemetry else { return };
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
        state.cache_busy += valid.div_ceil(self.config.values_per_line()) as u64;
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
        state.cache_busy += valid.div_ceil(self.config.values_per_line()) as u64;
    }

    /// Runs `f` with the engine's scratch buffers lent out beside `self`.
    fn with_scratch<T>(&mut self, f: impl FnOnce(&mut Self, &mut Scratch) -> T) -> T {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = f(self, &mut scratch);
        self.scratch = scratch;
        out
    }

    /// Computes the ω dot products of one GEMV block through the FCU into
    /// `dots`.
    ///
    /// With a fault injector armed, the partial sums are verified against
    /// the block's ABFT column-sum checksum — Σᵢ dotᵢ must equal
    /// (Σᵢ rowᵢ)·x up to rounding, with the checksum vector computed from
    /// the pristine payload at format-programming time — and the block is
    /// re-executed (re-stream + recompute + backoff stall) under the
    /// engine's [`RecoveryPolicy`] when the check trips. `stuck` is a
    /// permanent payload corruption reported by the memory stream; it
    /// re-applies on every retry, so it exhausts the retry budget and
    /// surfaces as [`SimError::FaultDetected`] at [`FaultSite::Memory`].
    ///
    /// Without an injector this is a plain, checksum-free block execution
    /// that walks the streamed rows in place: a reversed row goes through
    /// the reversed-order MAC, which sums in the same logical lane order,
    /// so the result is bit-identical to multiplying the logical row.
    fn gemv_block_checked(
        &mut self,
        state: &mut RunState,
        block: AlfBlock<'_>,
        operand: &[f64],
        stuck: Option<(usize, u32)>,
        dots: &mut Vec<f64>,
    ) -> Result<()> {
        let omega = self.config.omega;
        let Some(inj) = self.faults.clone() else {
            dots.clear();
            for i in 0..omega {
                let row = block.row(i);
                dots.push(if block.reversed() {
                    self.fcu.mac_row_reversed(row, operand)
                } else {
                    self.fcu.mac_row(row, operand)
                });
            }
            return Ok(());
        };

        let mut chk = vec![0.0; omega];
        let mut chk_abs = vec![0.0; omega];
        for i in 0..omega {
            for j in 0..omega {
                let v = block.get(i, j);
                chk[j] += v;
                chk_abs[j] += v.abs();
            }
        }
        let expected: f64 = chk.iter().zip(operand).map(|(c, x)| c * x).sum();
        let scale: f64 = chk_abs.iter().zip(operand).map(|(c, x)| c * x.abs()).sum();
        if !expected.is_finite() || !scale.is_finite() {
            // Non-finite inputs: retrying cannot help.
            return Err(SimError::NumericalBreakdown {
                context: "gemv checksum",
                cycle: state.cycles,
            });
        }
        let tol = 1e-9 * scale;

        let max_retries = self.recovery.max_retries();
        let site = if stuck.is_some() {
            FaultSite::Memory
        } else {
            FaultSite::FcuLane
        };
        let mut attempt = 0u32;
        let mut caught = 0u64;
        let mut recovering = false;
        let mut redo_total = 0u64;
        let outcome = loop {
            inj.begin_scope();
            if stuck.is_some() {
                inj.note_stuck_applied();
            }
            inj.set_fcu_armed(true);
            let mut dots = Vec::with_capacity(omega);
            for i in 0..omega {
                let mut logical: Vec<f64> = (0..omega).map(|j| block.get(i, j)).collect();
                if let Some((word, bit)) = stuck {
                    if word / omega == i {
                        logical[word % omega] = fault::flip_bit(logical[word % omega], bit);
                    }
                }
                dots.push(self.fcu.mac_row(&logical, operand));
            }
            inj.set_fcu_armed(false);
            let actual: f64 = dots.iter().sum();
            if actual.is_finite() && (actual - expected).abs() <= tol {
                if caught > 0 {
                    inj.note_recovered(caught);
                }
                if recovering {
                    self.trace.record(crate::trace::TraceEvent::RecoveryEnd {
                        recovered: true,
                        cycles: redo_total,
                    });
                }
                // Faults that slipped past the checksum stay injected-only.
                inj.begin_scope();
                break Ok(dots);
            }
            let newly = inj.confirm_detected();
            caught += newly;
            if newly > 0 {
                self.trace
                    .record(crate::trace::TraceEvent::FaultInjected { site });
            }
            if attempt >= max_retries {
                if recovering {
                    self.trace.record(crate::trace::TraceEvent::RecoveryEnd {
                        recovered: false,
                        cycles: redo_total,
                    });
                }
                break Err(SimError::FaultDetected {
                    site,
                    cycle: state.cycles,
                });
            }
            if !recovering {
                recovering = true;
                self.trace
                    .record(crate::trace::TraceEvent::RecoveryBegin { site });
            }
            attempt += 1;
            inj.note_retry();
            // Retry from checkpoint: re-stream the payload, re-run the ω
            // rows, and pay the policy's backoff stall.
            let re_mem = state.memory.stream_values(omega * omega);
            let redo = re_mem.max(omega as u64) + self.recovery.backoff_cycles();
            state.cycles += redo;
            state.breakdown.recovery_cycles += redo;
            redo_total += redo;
            self.publish_cycle(state);
        };
        *dots = outcome?;
        Ok(())
    }

    /// Runs SpMV (`y = A·x`) over a [`AlfLayout::Streaming`] matrix.
    ///
    /// # Errors
    ///
    /// * [`SimError::LayoutMismatch`] if `a` was built for SymGS.
    /// * [`SimError::DimensionMismatch`] if `x.len() != a.cols()`.
    pub fn run_spmv(&mut self, a: &Alf, x: &[f64]) -> Result<(Vec<f64>, ExecutionReport)> {
        if a.layout() != AlfLayout::Streaming {
            return Err(SimError::LayoutMismatch {
                expected: "streaming",
                found: "symgs",
            });
        }
        if x.len() != a.cols() {
            return Err(SimError::DimensionMismatch {
                expected: a.cols(),
                found: x.len(),
            });
        }
        let omega = self.config.omega;
        if a.omega() != omega {
            return Err(SimError::BlockWidthMismatch {
                engine: omega,
                matrix: a.omega(),
            });
        }

        let mut state = self.begin(Reduce::Sum);
        self.trace
            .record(crate::trace::TraceEvent::KernelBegin { kernel: "spmv" });
        let mut y = vec![0.0; a.rows()];
        let exposed = self
            .rcu
            .configure(DataPathKind::Gemv, self.fcu.drain(Reduce::Sum));
        self.trace_reconfigure(DataPathKind::Gemv, exposed);
        self.with_scratch(|eng, sc| eng.spmv_blocks(sc, &mut state, a, x, &mut y))?;

        // Result write-back: one pass over y through the cache and out.
        for chunk in (0..a.rows()).step_by(omega) {
            self.write_chunk(&mut state, REGION_X, chunk, a.rows());
        }
        state.memory.record_bytes(a.rows() as u64 * 8);

        let report = self.finish("spmv", state, Reduce::Sum);
        Ok((y, report))
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
        let omega = self.config.omega;
        for block in a.blocks() {
            self.check_budget(state)?;
            let row_base = block.block_row() * omega;
            let col_base = block.block_col() * omega;
            self.trace_block(block.block_row(), block.block_col(), DataPathKind::Gemv);
            let (mem, stuck) =
                state
                    .memory
                    .stream_block(block.block_row(), block.block_col(), omega * omega);
            self.read_chunk(state, REGION_X, col_base, a.cols());
            let block_cycles = mem.max(omega as u64);
            state.cycles += block_cycles;
            state.breakdown.gemv_cycles += block_cycles;
            state.counts.gemv_blocks += 1;
            self.publish_cycle(state);

            load_operand(&mut sc.operand, x, col_base, omega);
            self.gemv_block_checked(state, block, &sc.operand, stuck, &mut sc.dots)?;
            self.note_block_end(block_cycles);
            for (i, dot) in sc.dots.iter().enumerate() {
                if let Some(yi) = y.get_mut(row_base + i) {
                    *yi += dot;
                }
            }
        }
        Ok(())
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
        self.run_symgs_sweep(a, b, x, false)
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
        self.run_symgs_sweep(a, b, x, true)
    }

    /// One symmetric Gauss-Seidel application (forward then backward sweep),
    /// the SymGS kernel of Table 1.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_symgs_forward`].
    pub fn run_symgs(&mut self, a: &Alf, b: &[f64], x: &mut [f64]) -> Result<ExecutionReport> {
        let mut report = self.run_symgs_forward(a, b, x)?;
        let back = self.run_symgs_backward(a, b, x)?;
        report.merge(&back, &self.config.clone());
        report.datapaths.iterations = 1;
        Ok(report)
    }

    fn run_symgs_sweep(
        &mut self,
        a: &Alf,
        b: &[f64],
        x: &mut [f64],
        backward: bool,
    ) -> Result<ExecutionReport> {
        self.run_sor_sweep(a, b, x, backward, 1.0)
    }

    fn run_sor_sweep(
        &mut self,
        a: &Alf,
        b: &[f64],
        x: &mut [f64],
        backward: bool,
        omega_relax: f64,
    ) -> Result<ExecutionReport> {
        if a.layout() != AlfLayout::SymGs {
            return Err(SimError::LayoutMismatch {
                expected: "symgs",
                found: "streaming",
            });
        }
        if b.len() != a.rows() {
            return Err(SimError::DimensionMismatch {
                expected: a.rows(),
                found: b.len(),
            });
        }
        if x.len() != a.cols() {
            return Err(SimError::DimensionMismatch {
                expected: a.cols(),
                found: x.len(),
            });
        }
        let omega = self.config.omega;
        if a.omega() != omega {
            return Err(SimError::BlockWidthMismatch {
                engine: omega,
                matrix: a.omega(),
            });
        }

        let mut state = self.begin(Reduce::Sum);
        self.trace.record(crate::trace::TraceEvent::KernelBegin {
            kernel: if backward {
                "symgs-backward"
            } else {
                "symgs-forward"
            },
        });
        // The extracted diagonal is loaded into the local cache once per
        // sweep (programming-time traffic, §4.5).
        state.memory.record_bytes(a.diagonal().len() as u64 * 8);

        let sweep = Sweep {
            a,
            b,
            backward,
            omega_relax,
        };
        self.with_scratch(|eng, sc| eng.sor_block_rows(sc, &mut state, sweep, x))?;

        state.memory.record_bytes(a.rows() as u64 * 8); // x write-back
        state.counts.link_stack_peak = state.link_stack_peak as u64;
        state.counts.operand_fifo_peak = state.operand_fifo_peak as u64;
        let mut report = self.finish(
            if backward {
                "symgs-backward"
            } else {
                "symgs-forward"
            },
            state,
            Reduce::Sum,
        );
        report.datapaths.iterations = 1;
        Ok(report)
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
        let block_rows = sweep.a.block_rows();
        for step in 0..block_rows {
            let br = if sweep.backward {
                block_rows - 1 - step
            } else {
                step
            };
            self.check_budget(state)?;
            let diag_block = self.gemv_link_push(sc, state, sweep.a, x, br)?;
            self.drain_link_stack(sc, state);
            self.switch_to_dsymgs(state, br)?;
            self.fill_operand_fifos(sc, state, sweep, br)?;
            self.dsymgs_recurrence(sc, state, sweep, x, br, diag_block)?;
        }
        Ok(())
    }

    /// Phase 1: the GEMV data path over block row `br`'s off-diagonal
    /// blocks. Intermediate GEMV results ride the LIFO link stack to the
    /// D-SymGS data path (Figure 11): one (lane, value) per block-row lane
    /// per GEMV block. Returns the row's diagonal block, if any.
    fn gemv_link_push<'a>(
        &mut self,
        sc: &mut Scratch,
        state: &mut RunState,
        a: &'a Alf,
        x: &[f64],
        br: usize,
    ) -> Result<Option<AlfBlock<'a>>> {
        let omega = self.config.omega;
        sc.link_stack.reset();
        let mut diag_block = None;
        for pos in sc.row_start[br]..sc.row_start[br + 1] {
            let block = a.block(sc.row_blocks[pos]);
            if block.kind() == BlockKind::Diagonal {
                diag_block = Some(block);
                continue;
            }
            let switched = self.rcu.current() != Some(DataPathKind::Gemv);
            let exposed = self
                .rcu
                .configure(DataPathKind::Gemv, self.fcu.drain(Reduce::Sum));
            if switched {
                self.trace_reconfigure(DataPathKind::Gemv, exposed);
            }
            self.trace_block(block.block_row(), block.block_col(), DataPathKind::Gemv);
            let col_base = block.block_col() * omega;
            let (payload_cycles, stuck) =
                state
                    .memory
                    .stream_block(block.block_row(), block.block_col(), omega * omega);
            self.read_chunk(state, REGION_X, col_base, a.cols());
            let block_cycles = payload_cycles.max(omega as u64);
            state.cycles += block_cycles;
            state.breakdown.gemv_cycles += block_cycles;
            state.counts.gemv_blocks += 1;
            self.publish_cycle(state);

            load_operand(&mut sc.operand, x, col_base, omega);
            self.gemv_block_checked(state, block, &sc.operand, stuck, &mut sc.dots)?;
            // The verified dots ride the link stack; entries can still be
            // dropped in flight, which the occupancy check below catches
            // (the stack grew by fewer than ω entries).
            let link_stack = &mut sc.link_stack;
            let mut push_attempt = 0u32;
            let mut drops_caught = 0u64;
            let mut push_recovering = false;
            let mut push_redo = 0u64;
            loop {
                if let Some(inj) = &self.faults {
                    inj.begin_scope();
                }
                let before = link_stack.len();
                for (i, dot) in sc.dots.iter().enumerate() {
                    if !self.rcu.link_push_event() {
                        link_stack.push((i, *dot));
                    }
                }
                if link_stack.len() - before == omega {
                    if drops_caught > 0 {
                        if let Some(inj) = &self.faults {
                            inj.note_recovered(drops_caught);
                        }
                    }
                    if push_recovering {
                        self.trace.record(crate::trace::TraceEvent::RecoveryEnd {
                            recovered: true,
                            cycles: push_redo,
                        });
                    }
                    break;
                }
                let newly = self
                    .faults
                    .as_ref()
                    .map_or(0, FaultInjector::confirm_detected);
                drops_caught += newly;
                if newly > 0 {
                    self.trace.record(crate::trace::TraceEvent::FaultInjected {
                        site: FaultSite::RcuLifo,
                    });
                }
                // Roll back this attempt's (LIFO-ordered) pushes.
                while link_stack.len() > before {
                    let _ = link_stack.pop();
                }
                if push_attempt >= self.recovery.max_retries() {
                    if push_recovering {
                        self.trace.record(crate::trace::TraceEvent::RecoveryEnd {
                            recovered: false,
                            cycles: push_redo,
                        });
                    }
                    return Err(SimError::FaultDetected {
                        site: FaultSite::RcuLifo,
                        cycle: state.cycles,
                    });
                }
                if !push_recovering {
                    push_recovering = true;
                    self.trace.record(crate::trace::TraceEvent::RecoveryBegin {
                        site: FaultSite::RcuLifo,
                    });
                }
                push_attempt += 1;
                if let Some(inj) = &self.faults {
                    inj.note_retry();
                }
                state.cycles += self.recovery.backoff_cycles();
                state.breakdown.recovery_cycles += self.recovery.backoff_cycles();
                push_redo += self.recovery.backoff_cycles();
            }
            self.note_block_end(block_cycles);
        }
        Ok(diag_block)
    }

    /// Phase 2: the successive D-SymGS pops the GEMV results off the stack
    /// and reduces them per lane into `sc.partial` (the pops happen in LIFO
    /// order — the reverse of the push order, which the reduction is
    /// insensitive to because addition commutes).
    fn drain_link_stack(&mut self, sc: &mut Scratch, state: &mut RunState) {
        sc.partial.clear();
        sc.partial.resize(self.config.omega, 0.0);
        state.link_stack_peak = state.link_stack_peak.max(sc.link_stack.max_depth());
        while let Some((lane, value)) = sc.link_stack.pop() {
            sc.partial[lane] += value;
            self.rcu.buffer_event();
        }
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
        let drain = self.fcu.drain(Reduce::Sum);
        let switched = self.rcu.current() != Some(DataPathKind::DSymGs);
        let exposed = self.rcu.configure(DataPathKind::DSymGs, drain);
        if switched {
            self.trace_reconfigure(DataPathKind::DSymGs, exposed);
        }
        self.trace_block(br, br, DataPathKind::DSymGs);
        if !self.config.overlap_drain {
            state.cycles += drain;
            state.breakdown.drain_cycles += drain;
        }
        Ok(())
    }

    /// Phase 3: the right-hand side and the extracted diagonal of block
    /// row `br` arrive through FIFOs (deterministic access order, §4.3).
    fn fill_operand_fifos(
        &mut self,
        sc: &mut Scratch,
        state: &mut RunState,
        sweep: Sweep<'_>,
        br: usize,
    ) -> Result<()> {
        let Sweep { a, b, .. } = sweep;
        let omega = self.config.omega;
        let row_base = br * omega;
        self.read_chunk(state, REGION_B, row_base, a.rows());
        self.read_chunk(state, REGION_DIAG, row_base, a.diagonal().len());
        let (b_fifo, diag_fifo) = (&mut sc.b_fifo, &mut sc.diag_fifo);
        b_fifo.reset();
        diag_fifo.reset();
        let mut fifo_attempt = 0u32;
        let mut fifo_caught = 0u64;
        let mut fifo_recovering = false;
        let mut fifo_redo = 0u64;
        loop {
            if let Some(inj) = &self.faults {
                inj.begin_scope();
            }
            let mut filled = 0usize;
            for i in 0..omega {
                let g = row_base + i;
                if g < a.rows() {
                    if !self.rcu.fifo_push_event() {
                        b_fifo.push(b[g]);
                    }
                    if !self.rcu.fifo_push_event() {
                        diag_fifo.push(a.diagonal()[g]);
                    }
                    filled += 1;
                }
            }
            // Occupancy check: both FIFOs must hold exactly one entry per
            // valid lane before the recurrence starts.
            state.operand_fifo_peak = state.operand_fifo_peak.max(b_fifo.len());
            if b_fifo.len() == filled && diag_fifo.len() == filled {
                if fifo_caught > 0 {
                    if let Some(inj) = &self.faults {
                        inj.note_recovered(fifo_caught);
                    }
                }
                if fifo_recovering {
                    self.trace.record(crate::trace::TraceEvent::RecoveryEnd {
                        recovered: true,
                        cycles: fifo_redo,
                    });
                }
                return Ok(());
            }
            let newly = self
                .faults
                .as_ref()
                .map_or(0, FaultInjector::confirm_detected);
            fifo_caught += newly;
            if newly > 0 {
                self.trace.record(crate::trace::TraceEvent::FaultInjected {
                    site: FaultSite::RcuFifo,
                });
            }
            while b_fifo.pop().is_some() {}
            while diag_fifo.pop().is_some() {}
            if fifo_attempt >= self.recovery.max_retries() {
                if fifo_recovering {
                    self.trace.record(crate::trace::TraceEvent::RecoveryEnd {
                        recovered: false,
                        cycles: fifo_redo,
                    });
                }
                return Err(SimError::FaultDetected {
                    site: FaultSite::RcuFifo,
                    cycle: state.cycles,
                });
            }
            if !fifo_recovering {
                fifo_recovering = true;
                self.trace.record(crate::trace::TraceEvent::RecoveryBegin {
                    site: FaultSite::RcuFifo,
                });
            }
            fifo_attempt += 1;
            if let Some(inj) = &self.faults {
                inj.note_retry();
            }
            state.cycles += self.recovery.backoff_cycles();
            state.breakdown.recovery_cycles += self.recovery.backoff_cycles();
            fifo_redo += self.recovery.backoff_cycles();
        }
    }

    /// Phase 4: the D-SymGS recurrence over block row `br` (Figure 10),
    /// then the row's cycle charge and the `x` chunk write-back.
    ///
    /// Forward sweeps feed the multipliers from the shift register: lane k
    /// starts as x^{t-1}[ω−1−k]; each step pushes the fresh x^t into lane
    /// 0. The streamed (reversed) payload row, rotated by the step index,
    /// lines each lane up with its logical column. The backward sweep is
    /// the mirror-image hardware and uses the addressable cache path
    /// directly, walking the streamed row in logical order.
    fn dsymgs_recurrence(
        &mut self,
        sc: &mut Scratch,
        state: &mut RunState,
        sweep: Sweep<'_>,
        x: &mut [f64],
        br: usize,
        diag_block: Option<AlfBlock<'_>>,
    ) -> Result<()> {
        let Sweep {
            a,
            b,
            backward,
            omega_relax,
        } = sweep;
        let omega = self.config.omega;
        let row_base = br * omega;
        if !backward {
            sc.shift.reload(
                (0..omega).map(|k| x.get(row_base + omega - 1 - k).copied().unwrap_or(0.0)),
            );
        }
        let mut steps = 0u64;
        for step in 0..omega {
            let i = if backward { omega - 1 - step } else { step };
            let g = row_base + i;
            if g >= a.rows() {
                continue;
            }
            let diag = a.diagonal()[g];
            if !backward {
                // Forward sweeps consume the operand FIFOs in order.
                let fb = sc.b_fifo.pop().unwrap_or(b[g]);
                let fd = sc.diag_fifo.pop().unwrap_or(diag);
                debug_assert_eq!(fb.to_bits(), b[g].to_bits());
                debug_assert_eq!(fd.to_bits(), diag.to_bits());
            }
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
                if backward {
                    load_operand(&mut sc.operand, x, row_base, omega);
                    sum -= if block.reversed() {
                        self.fcu.mac_row_reversed(streamed, &sc.operand)
                    } else {
                        self.fcu.mac_row(streamed, &sc.operand)
                    };
                } else {
                    // Lane k multiplies streamed slot (k + ω − i) mod ω
                    // ("rotating the inputs of the multipliers", §4.2).
                    sc.lanes.clear();
                    sc.lanes.extend_from_slice(&streamed[omega - i..]);
                    sc.lanes.extend_from_slice(&streamed[..omega - i]);
                    sum -= self.fcu.mac_row(&sc.lanes, sc.shift.lanes());
                }
                // Link-stack pop feeding the recurrence.
                self.rcu.buffer_event();
            }
            // PE: subtract/divide producing x_g, with the SOR blend (a
            // second PE op) when the relaxation factor is not 1.
            let _ = self.rcu.pe_op();
            if (omega_relax - 1.0).abs() < f64::EPSILON {
                x[g] = sum / diag;
            } else {
                let _ = self.rcu.pe_op();
                x[g] = (1.0 - omega_relax) * x[g] + omega_relax * sum / diag;
            }
            if !backward {
                sc.shift.push(x[g]);
            }
            steps += 1;
        }
        let dsymgs_cycles = if diag_block.is_some() {
            let payload_cycles = state.memory.stream_values(omega * omega);
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
        self.write_chunk(state, REGION_X, row_base, a.rows());
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
        self.run_minplus(at, source, "bfs", DataPathKind::DBfs, |_w| 1.0)
    }

    /// Runs SSSP from `source` over the transposed adjacency `at` with the
    /// stored edge weights. Returns distances with [`UNREACHED`] where no
    /// path exists.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_bfs`].
    pub fn run_sssp(&mut self, at: &Alf, source: usize) -> Result<(Vec<f64>, ExecutionReport)> {
        self.run_minplus(at, source, "sssp", DataPathKind::DSssp, |w| w)
    }

    fn run_minplus(
        &mut self,
        at: &Alf,
        source: usize,
        kernel: &'static str,
        kind: DataPathKind,
        weight_of: impl Fn(f64) -> f64,
    ) -> Result<(Vec<f64>, ExecutionReport)> {
        if at.layout() != AlfLayout::Streaming {
            return Err(SimError::LayoutMismatch {
                expected: "streaming",
                found: "symgs",
            });
        }
        if at.rows() != at.cols() {
            return Err(SimError::DimensionMismatch {
                expected: at.rows(),
                found: at.cols(),
            });
        }
        if source >= at.rows() {
            return Err(SimError::DimensionMismatch {
                expected: at.rows(),
                found: source,
            });
        }
        let omega = self.config.omega;
        if at.omega() != omega {
            return Err(SimError::BlockWidthMismatch {
                engine: omega,
                matrix: at.omega(),
            });
        }

        let n = at.rows();
        let mut dist = vec![UNREACHED; n];
        dist[source] = 0.0;

        let mut state = self.begin(Reduce::Min);
        self.trace
            .record(crate::trace::TraceEvent::KernelBegin { kernel });
        let exposed = self.rcu.configure(kind, self.fcu.drain(Reduce::Min));
        self.trace_reconfigure(kind, exposed);
        let mut rounds = 0u64;

        loop {
            let mut changed = false;
            rounds += 1;
            self.check_budget(&state)?;
            for block in at.blocks() {
                // Block of Aᵀ: rows are destinations, columns sources.
                let dst_base = block.block_row() * omega;
                let src_base = block.block_col() * omega;
                self.trace_block(block.block_row(), block.block_col(), kind);
                let payload = state.memory.stream_values(omega * omega);
                self.read_chunk(&mut state, REGION_X, src_base, n);
                let block_cycles = payload.max(omega as u64);
                state.cycles += block_cycles;
                state.breakdown.graph_cycles += block_cycles;
                state.counts.graph_blocks += 1;
                self.note_block_end(block_cycles);

                load_operand(&mut self.scratch.operand, &dist, src_base, omega);
                let operand = &self.scratch.operand;
                for i in 0..omega {
                    let d = dst_base + i;
                    if d >= n {
                        continue;
                    }
                    let row = block.row(i);
                    let op = |w, dsrc| weight_of(w) + dsrc;
                    let cand = if block.reversed() {
                        self.fcu.min_reduce_row_reversed(row, operand, op)
                    } else {
                        self.fcu.min_reduce_row(row, operand, op)
                    };
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
        let mut report = self.finish(kernel, state, Reduce::Min);
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
        if at.layout() != AlfLayout::Streaming {
            return Err(SimError::LayoutMismatch {
                expected: "streaming",
                found: "symgs",
            });
        }
        if at.rows() != at.cols() {
            return Err(SimError::DimensionMismatch {
                expected: at.rows(),
                found: at.cols(),
            });
        }
        if out_degrees.len() != at.rows() {
            return Err(SimError::DimensionMismatch {
                expected: at.rows(),
                found: out_degrees.len(),
            });
        }
        let omega = self.config.omega;
        if at.omega() != omega {
            return Err(SimError::BlockWidthMismatch {
                engine: omega,
                matrix: at.omega(),
            });
        }

        let n = at.rows();
        let mut state = self.begin(Reduce::Sum);
        self.trace.record(crate::trace::TraceEvent::KernelBegin {
            kernel: "pagerank",
        });
        let exposed = self
            .rcu
            .configure(DataPathKind::DPr, self.fcu.drain(Reduce::Sum));
        self.trace_reconfigure(DataPathKind::DPr, exposed);
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
                let dst_base = block.block_row() * omega;
                let src_base = block.block_col() * omega;
                self.trace_block(block.block_row(), block.block_col(), DataPathKind::DPr);
                let payload = state.memory.stream_values(omega * omega);
                self.read_chunk(&mut state, REGION_X, src_base, n);
                let block_cycles = payload.max(omega as u64);
                state.cycles += block_cycles;
                state.breakdown.graph_cycles += block_cycles;
                state.counts.graph_blocks += 1;
                self.note_block_end(block_cycles);

                let sc = &mut self.scratch;
                load_operand(&mut sc.operand, &sc.contrib, src_base, omega);
                for i in 0..omega {
                    let d = dst_base + i;
                    if d >= n {
                        continue;
                    }
                    // Structure-only gather: an edge contributes its
                    // source's (already damped and divided) share.
                    let indicator = |v: &f64| if *v == 0.0 { 0.0 } else { 1.0 };
                    let row = block.row(i);
                    sc.lanes.clear();
                    if block.reversed() {
                        sc.lanes.extend(row.iter().rev().map(indicator));
                    } else {
                        sc.lanes.extend(row.iter().map(indicator));
                    }
                    sc.next[d] += self.fcu.mac_row(&sc.lanes, &sc.operand);
                }
            }
            for chunk in (0..n).step_by(omega) {
                self.write_chunk(&mut state, REGION_X, chunk, n);
            }

            let next = &mut self.scratch.next;
            let delta: f64 = rank.iter().zip(&*next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut rank, next);
            if delta < opts.tol {
                state.memory.record_bytes(n as u64 * 8);
                let mut report = self.finish("pagerank", state, Reduce::Sum);
                report.datapaths.iterations = it as u64;
                return Ok((rank, report));
            }
        }
        Err(SimError::NoConvergence {
            iterations: opts.max_iters,
        })
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
        // scratch buffers (link stack, FIFOs, shift register, PageRank
        // vectors) leaked into a smaller one.
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
        assert!(report.faults.retries > 0, "plan must force at least one retry");
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
        let coo = gen::stencil27(3);
        let a = Alf::from_coo(&coo, 8, AlfLayout::SymGs).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let mut engine = Engine::new(SimConfig::paper());
        engine.enable_tracing();
        let report = engine.run_symgs_forward(&a, &b, &mut x).unwrap();
        let events = engine.take_trace();
        let reconfigs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Reconfigure { .. }))
            .count() as u64;
        assert_eq!(reconfigs, report.reconfig.switches);
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

impl Engine {
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
        let omega = self.config.omega;
        let mut state = self.begin(Reduce::Sum);
        self.trace
            .record(crate::trace::TraceEvent::KernelBegin { kernel: "spmv-csr" });
        self.rcu
            .configure(DataPathKind::Gemv, self.fcu.drain(Reduce::Sum));

        let mut y = vec![0.0; a.rows()];
        // Row pointers stream once (4 bytes each).
        state.memory.record_bytes((a.rows() as u64 + 1) * 4);
        for (r, yr) in y.iter_mut().enumerate() {
            self.check_budget(&state)?;
            let row: Vec<(usize, f64)> = a.row_entries(r).collect();
            let mut acc = 0.0;
            for chunk in row.chunks(omega) {
                // Values (8 B) + column indices (4 B) per element, padded
                // to the ω-lane issue width.
                let payload_values = chunk.len() + chunk.len().div_ceil(2); // 12 B/nnz in 8 B units
                let mem = state.memory.stream_values(payload_values.max(1));
                // Irregular gather: every element is its own cache access,
                // no chunk reuse guarantee.
                let mut gather_cycles = 0u64;
                for &(c, _) in chunk {
                    let access = self.cache.read(c);
                    if !access.hit {
                        state.memory.stream_values(self.config.values_per_line());
                    }
                    gather_cycles += 1;
                }
                state.cache_busy += gather_cycles;
                // One ω-wide FCU pass per chunk, lanes beyond the chunk idle.
                let mut lanes = vec![0.0; omega];
                let mut operand = vec![0.0; omega];
                for (k, &(c, v)) in chunk.iter().enumerate() {
                    lanes[k] = v;
                    operand[k] = x[c];
                }
                acc += self.fcu.mac_row(&lanes, &operand);
                let compute = 1u64.max(gather_cycles);
                let cycles = mem.max(compute);
                state.cycles += cycles;
                state.breakdown.gemv_cycles += cycles;
                state.counts.gemv_blocks += 1;
            }
            *yr = acc;
        }
        state.memory.record_bytes(a.rows() as u64 * 8);
        let report = self.finish("spmv-csr", state, Reduce::Sum);
        Ok((y, report))
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

impl Engine {
    /// Runs connected components by label propagation over `at`, the
    /// [`AlfLayout::Streaming`] format of the *symmetrized, transposed*
    /// adjacency (callers symmetrize; propagation needs both directions).
    ///
    /// A new dense data path built from the existing machinery: phase-1
    /// pass-through of neighbor labels, `min` reduce, compare-and-assign —
    /// demonstrating the §4.2 claim that Table 1's common phases make new
    /// kernels cheap to add. Returns the per-vertex component labels.
    ///
    /// # Errors
    ///
    /// Layout/shape errors as in [`Engine::run_spmv`].
    pub fn run_connected_components(&mut self, at: &Alf) -> Result<(Vec<usize>, ExecutionReport)> {
        if at.layout() != AlfLayout::Streaming {
            return Err(SimError::LayoutMismatch {
                expected: "streaming",
                found: "symgs",
            });
        }
        if at.rows() != at.cols() {
            return Err(SimError::DimensionMismatch {
                expected: at.rows(),
                found: at.cols(),
            });
        }
        let omega = self.config.omega;
        if at.omega() != omega {
            return Err(SimError::BlockWidthMismatch {
                engine: omega,
                matrix: at.omega(),
            });
        }

        let n = at.rows();
        let mut label: Vec<f64> = (0..n).map(|v| v as f64).collect();
        let mut state = self.begin(Reduce::Min);
        self.trace
            .record(crate::trace::TraceEvent::KernelBegin { kernel: "cc" });
        let exposed = self
            .rcu
            .configure(DataPathKind::DBfs, self.fcu.drain(Reduce::Min));
        self.trace_reconfigure(DataPathKind::DBfs, exposed);
        let mut rounds = 0u64;

        loop {
            let mut changed = false;
            rounds += 1;
            self.check_budget(&state)?;
            for block in at.blocks() {
                let dst_base = block.block_row() * omega;
                let src_base = block.block_col() * omega;
                self.trace_block(block.block_row(), block.block_col(), DataPathKind::DBfs);
                let payload = state.memory.stream_values(omega * omega);
                self.read_chunk(&mut state, REGION_X, src_base, n);
                let block_cycles = payload.max(omega as u64);
                state.cycles += block_cycles;
                state.breakdown.graph_cycles += block_cycles;
                state.counts.graph_blocks += 1;
                self.note_block_end(block_cycles);

                load_operand(&mut self.scratch.operand, &label, src_base, omega);
                let operand = &self.scratch.operand;
                for i in 0..omega {
                    let d = dst_base + i;
                    if d >= n {
                        continue;
                    }
                    let row = block.row(i);
                    // Phase 1 passes the neighbor label through untouched.
                    let cand = if block.reversed() {
                        self.fcu.min_reduce_row_reversed(row, operand, |_w, l| l)
                    } else {
                        self.fcu.min_reduce_row(row, operand, |_w, l| l)
                    };
                    if cand < label[d] {
                        let _ = self.rcu.pe_op();
                        self.cache.write(REGION_X + d);
                        state.cache_busy += 1;
                        label[d] = cand;
                        changed = true;
                    }
                }
            }
            if !changed || rounds as usize > n {
                break;
            }
        }

        state.memory.record_bytes(n as u64 * 8);
        let mut report = self.finish("cc", state, Reduce::Min);
        report.datapaths.iterations = rounds;
        Ok((label.iter().map(|&l| l as usize).collect(), report))
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

impl Engine {
    /// One forward SOR sweep on the device: the D-SymGS data path with the
    /// RCU's PEs additionally applying the relaxation blend
    /// `x ← (1−ω_r)·x_old + ω_r·x_gs` (one extra PE operation per row —
    /// the LUT-based PEs provide exactly these operations, §4.3).
    ///
    /// `omega_relax = 1` is identical to [`Engine::run_symgs_forward`].
    ///
    /// # Errors
    ///
    /// The [`Engine::run_symgs_forward`] conditions, plus
    /// [`SimError::DimensionMismatch`] for a relaxation factor outside
    /// `(0, 2)`.
    pub fn run_sor_forward(
        &mut self,
        a: &Alf,
        b: &[f64],
        x: &mut [f64],
        omega_relax: f64,
    ) -> Result<ExecutionReport> {
        if !(omega_relax > 0.0 && omega_relax < 2.0) {
            return Err(SimError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        self.run_sor_sweep(a, b, x, false, omega_relax)
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
                .run_sor_forward(&a, &b, &mut x_dev, omega_relax)
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
        assert!(engine.run_sor_forward(&a, &b, &mut x, 0.0).is_err());
        assert!(engine.run_sor_forward(&a, &b, &mut x, 2.5).is_err());
    }
}

impl Engine {
    /// One backward SOR sweep on the device (rows descending).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run_sor_forward`].
    pub fn run_sor_backward(
        &mut self,
        a: &Alf,
        b: &[f64],
        x: &mut [f64],
        omega_relax: f64,
    ) -> Result<ExecutionReport> {
        if !(omega_relax > 0.0 && omega_relax < 2.0) {
            return Err(SimError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        self.run_sor_sweep(a, b, x, true, omega_relax)
    }

    /// One symmetric SOR (SSOR) application on the device: forward then
    /// backward sweep. `omega_relax = 1` is [`Engine::run_symgs`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::run_sor_forward`].
    pub fn run_ssor(
        &mut self,
        a: &Alf,
        b: &[f64],
        x: &mut [f64],
        omega_relax: f64,
    ) -> Result<ExecutionReport> {
        let mut report = self.run_sor_forward(a, b, x, omega_relax)?;
        let back = self.run_sor_backward(a, b, x, omega_relax)?;
        report.merge(&back, &self.config.clone());
        report.datapaths.iterations = 1;
        Ok(report)
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
