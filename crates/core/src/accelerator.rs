//! The accelerator facade: program once, run kernels, read reports.
//!
//! Mirrors the paper's host/accelerator split (Figure 7): the host converts
//! a sparse kernel into dense data paths and writes the configuration table
//! through the *program interface* ([`Alrescha::program`]); runs then stream
//! data through the *data interface* and return an
//! [`alrescha_sim::ExecutionReport`].

use alrescha_kernels::symgs;
use alrescha_sim::{
    BreakerStats, Engine, ExecBudget, ExecutionReport, FaultCounters, FaultPlan, InjectorSnapshot,
    PageRankConfig, RecoveryPolicy, Result as SimResult, SimConfig, SimError,
};
use alrescha_sparse::{Coo, Csr, MetaData};

use crate::breaker::{BackendChoice, BreakerConfig, BreakerState, CircuitBreaker};
use crate::convert::{convert, ConfigTable, KernelType};
use crate::{CoreError, Result};

/// A kernel programmed onto the accelerator: the reformatted matrix plus
/// its configuration table.
///
/// The payloads live behind [`std::sync::Arc`], so cloning a program —
/// e.g. handing a cached conversion to many concurrent jobs in the batch
/// runtime — is a reference-count bump, not a copy of the matrix.
#[derive(Debug, Clone)]
pub struct ProgrammedKernel {
    kernel: KernelType,
    alf: std::sync::Arc<alrescha_sparse::Alf>,
    table: std::sync::Arc<ConfigTable>,
    /// Out-degrees of the original adjacency (graph kernels only).
    out_degrees: Option<std::sync::Arc<Vec<usize>>>,
}

impl ProgrammedKernel {
    fn build(
        kernel: KernelType,
        alf: alrescha_sparse::Alf,
        table: ConfigTable,
        out_degrees: Option<Vec<usize>>,
    ) -> Self {
        ProgrammedKernel {
            kernel,
            alf: std::sync::Arc::new(alf),
            table: std::sync::Arc::new(table),
            out_degrees: out_degrees.map(std::sync::Arc::new),
        }
    }

    /// The kernel type this program encodes.
    pub fn kernel(&self) -> KernelType {
        self.kernel
    }

    /// The locally-dense matrix as the accelerator streams it.
    pub fn matrix(&self) -> &alrescha_sparse::Alf {
        &self.alf
    }

    /// The configuration table the host wrote.
    pub fn table(&self) -> &ConfigTable {
        &self.table
    }
}

/// The ALRESCHA accelerator.
///
/// # Example
///
/// ```
/// use alrescha::{Alrescha, KernelType};
/// use alrescha_sparse::gen;
///
/// let mut acc = Alrescha::with_paper_config();
/// let coo = gen::stencil27(2);
/// let prog = acc.program(KernelType::SpMv, &coo)?;
/// let (y, report) = acc.spmv(&prog, &vec![1.0; coo.cols()])?;
/// assert_eq!(y.len(), coo.rows());
/// assert!(report.bandwidth_utilization > 0.0);
/// # Ok::<(), alrescha::CoreError>(())
/// ```
#[derive(Debug)]
pub struct Alrescha {
    engine: Engine,
    breaker: Option<CircuitBreaker>,
    cpu_only: bool,
}

impl Alrescha {
    /// Creates an accelerator with a custom configuration.
    pub fn new(config: SimConfig) -> Self {
        Alrescha {
            engine: Engine::new(config),
            breaker: None,
            cpu_only: false,
        }
    }

    /// Creates an accelerator with the paper's Table 5 configuration.
    pub fn with_paper_config() -> Self {
        Alrescha::new(SimConfig::paper())
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        self.engine.config()
    }

    /// Returns the accelerator to its just-built state for the same
    /// configuration: the engine's lifetime state (configured data path,
    /// energy counters, cache contents, trace, fault plan, recovery policy,
    /// budget) is cleared and any circuit breaker is disarmed.
    ///
    /// After `reset()`, runs are bit-identical to those of a freshly
    /// constructed [`Alrescha`] with the same [`SimConfig`] — the batch
    /// runtime relies on this to reuse one accelerator per worker across
    /// jobs without cross-job contamination.
    pub fn reset(&mut self) {
        self.engine.reset();
        self.breaker = None;
        self.cpu_only = false;
    }

    /// Pins (or, with `false`, unpins) every guarded operation
    /// ([`Alrescha::spmv`], [`Alrescha::symgs`], [`Alrescha::symgs_forward`])
    /// to the host reference backend: no device cycles are simulated, no
    /// faults are injected, and the run is *not* counted as degraded — this
    /// is the planned CPU mode a persistent service enters while the device
    /// breaker is open, not a failure path. Cleared by [`Alrescha::reset`].
    pub fn set_cpu_only(&mut self, cpu_only: bool) {
        self.cpu_only = cpu_only;
    }

    /// Whether guarded operations are pinned to the host backend.
    pub fn cpu_only(&self) -> bool {
        self.cpu_only
    }

    /// Arms (or, with `None`, disarms) a deterministic fault-injection plan.
    ///
    /// With no plan armed the engine takes its historical code path and
    /// results are bit-identical to an un-instrumented accelerator.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.engine.set_fault_plan(plan);
    }

    /// Sets the policy applied when a detected fault survives in-run
    /// recovery: fail fast, retry from the block checkpoint, or degrade the
    /// whole kernel to the host reference implementation.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.engine.set_recovery_policy(policy);
    }

    /// The active recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.engine.recovery_policy()
    }

    /// Arms (or, with `None`, disarms) a circuit breaker over the
    /// accelerator backend for [`Alrescha::spmv`], [`Alrescha::symgs`], and
    /// [`Alrescha::symgs_forward`].
    ///
    /// With a breaker armed, an unrecovered device fault is retried with
    /// exponential backoff (up to [`BreakerConfig::max_attempts`] attempts),
    /// then served by the host kernel; after
    /// [`BreakerConfig::failure_threshold`] consecutive failed operations
    /// the breaker opens and routes work straight to the CPU until a
    /// half-open probe succeeds. This supersedes the
    /// [`RecoveryPolicy::degrades_to_cpu`] fallback for the guarded
    /// operations. Wasted device work and backoff waits are charged to the
    /// report's recovery bucket; breaker transitions appear in
    /// [`ExecutionReport::breaker`](alrescha_sim::ExecutionReport).
    pub fn set_circuit_breaker(&mut self, config: Option<BreakerConfig>) {
        self.breaker = config.map(CircuitBreaker::new);
    }

    /// Current breaker state, when one is armed.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(CircuitBreaker::state)
    }

    /// Cumulative breaker statistics since the breaker was armed.
    pub fn breaker_stats(&self) -> BreakerStats {
        self.breaker
            .as_ref()
            .map(CircuitBreaker::stats)
            .unwrap_or_default()
    }

    /// Arms cycle/wall-clock limits and the progress-watchdog window for
    /// all subsequent device runs.
    pub fn set_budget(&mut self, budget: ExecBudget) {
        self.engine.set_budget(budget);
    }

    /// The active execution budget.
    pub fn budget(&self) -> ExecBudget {
        self.engine.budget()
    }

    /// Attaches (or, with `None`, detaches) an alobs telemetry sink: host
    /// spans around conversion, device timelines and metric deltas for
    /// every kernel run, and degraded/breaker accounting. With telemetry
    /// attached and enabled, results stay bit-identical — only observation
    /// is added.
    pub fn set_telemetry(&mut self, tele: Option<std::sync::Arc<alrescha_obs::Telemetry>>) {
        self.engine.set_telemetry(tele);
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&std::sync::Arc<alrescha_obs::Telemetry>> {
        self.engine.telemetry()
    }

    /// Records a solver checkpoint serialization (trace event + counters).
    /// Called by the PCG driver after encoding a checkpoint.
    pub fn note_checkpoint_write(&mut self, bytes: u64) {
        self.engine.note_checkpoint_write(bytes);
    }

    /// Publishes a guarded operation's breaker delta to the metrics
    /// registry (no-op without telemetry).
    fn note_breaker(&self, delta: &BreakerStats) {
        let Some(tele) = self.engine.telemetry() else {
            return;
        };
        let m = tele.metrics();
        m.counter(
            "alrescha_breaker_trips_total",
            true,
            "closed-to-open breaker transitions",
        )
        .add(delta.trips);
        m.counter(
            "alrescha_breaker_half_open_probes_total",
            true,
            "half-open probe attempts after cooldown",
        )
        .add(delta.half_open_probes);
        m.counter(
            "alrescha_breaker_cpu_fallback_runs_total",
            true,
            "operations served by the CPU backend",
        )
        .add(delta.cpu_fallback_runs);
    }

    /// Captures the fault injector's cursor for a solver checkpoint
    /// (`None` when no fault plan is armed).
    pub fn fault_snapshot(&self) -> Option<InjectorSnapshot> {
        self.engine.fault_snapshot()
    }

    /// Restores an injector cursor captured by [`Alrescha::fault_snapshot`];
    /// a no-op when no fault plan is armed.
    pub fn restore_fault_snapshot(&mut self, snap: &InjectorSnapshot) {
        self.engine.restore_fault_snapshot(snap);
    }

    /// Cumulative fault counters since the plan was armed (all zero when no
    /// plan is armed). Per-run deltas appear in each [`ExecutionReport`].
    pub fn fault_counters(&self) -> FaultCounters {
        self.engine
            .fault_injector()
            .map(alrescha_sim::FaultInjector::counters)
            .unwrap_or_default()
    }

    /// Whether a failed device run should fall back to the host kernel.
    fn degrades_to_cpu(&self) -> bool {
        self.engine.fault_injector().is_some() && self.engine.recovery_policy().degrades_to_cpu()
    }

    /// The report of an operation the host served: zero device activity,
    /// announced on the telemetry sink as `{tag}:{kernel}` and counted on
    /// `counter`.
    fn host_report(
        &self,
        kernel: &'static str,
        tag: &str,
        counter: &'static str,
        help: &'static str,
    ) -> ExecutionReport {
        if let Some(tele) = self.engine.telemetry() {
            tele.instant(format!("{tag}:{kernel}"));
            tele.metrics().counter(counter, true, help).inc();
        }
        ExecutionReport {
            kernel,
            cycles: 0,
            seconds: 0.0,
            bytes_streamed: 0,
            bandwidth_utilization: 0.0,
            cache_time_fraction: 0.0,
            energy: alrescha_sim::EnergyCounters::new(),
            reconfig: alrescha_sim::rcu::ReconfigStats::default(),
            cache: alrescha_sim::report::CacheStats::default(),
            datapaths: alrescha_sim::report::DataPathCounts::default(),
            breakdown: alrescha_sim::report::CycleBreakdown::default(),
            faults: FaultCounters::default(),
            breaker: BreakerStats::default(),
        }
    }

    /// Runs a guarded operation — [`Alrescha::spmv`], [`Alrescha::symgs`]
    /// or [`Alrescha::symgs_forward`] — on the device, failing over to the
    /// host when the device cannot deliver (the host/accelerator split of
    /// Figure 7).
    ///
    /// * Pinned to the CPU ([`Alrescha::set_cpu_only`]), `host` serves the
    ///   operation with a clean report.
    /// * With a circuit breaker armed, the breaker's routing decision
    ///   grants the device a number of attempts with backoff between them;
    ///   if none succeeds (or the breaker routes straight to the CPU),
    ///   `host` serves it. The outcome feeds the breaker.
    /// * Otherwise the device gets one attempt, and an unrecovered fault
    ///   falls back to `host` only under a policy that degrades to the CPU.
    ///
    /// `x` is the state the operation updates in place (empty for SpMV):
    /// every failed device attempt restores it before the next one. A
    /// host-served fallback reports the wasted device cycles and backoff in
    /// its recovery bucket and counts as degraded.
    fn failover<T>(
        &mut self,
        kernel: &'static str,
        x: &mut [f64],
        mut device: impl FnMut(&mut Engine, &mut [f64]) -> SimResult<(T, ExecutionReport)>,
        host: impl FnOnce(&mut [f64]) -> Result<T>,
    ) -> Result<(T, ExecutionReport)> {
        if self.cpu_only {
            let out = host(x)?;
            let report = self.host_report(
                kernel,
                "cpu-only",
                "alrescha_cpu_only_runs_total",
                "kernel runs served by the host under a cpu-only pin",
            );
            return Ok((out, report));
        }
        let base = self.fault_counters();
        let stats_base = self.breaker_stats();
        let attempts = self
            .breaker
            .as_mut()
            .map_or(1, |breaker| attempt_budget(breaker.gate()));
        let fall_back = self.breaker.is_some() || self.degrades_to_cpu();
        let saved = if fall_back { x.to_vec() } else { Vec::new() };
        let mut wasted = 0u64;
        let mut done = None;
        for attempt in 0..attempts {
            match device(&mut self.engine, x) {
                Ok(run) => {
                    done = Some(run);
                    break;
                }
                Err(SimError::FaultDetected { cycle, .. }) if fall_back => {
                    x.copy_from_slice(&saved);
                    wasted = wasted.saturating_add(cycle);
                    if attempt + 1 < attempts {
                        let backoff = self
                            .breaker
                            .as_mut()
                            .map_or(0, |b| b.backoff_cycles(attempt));
                        wasted = wasted.saturating_add(backoff);
                    }
                }
                Err(other) => return Err(other.into()),
            }
        }
        if let Some(breaker) = &mut self.breaker {
            if done.is_some() {
                breaker.record_success();
            } else if attempts > 0 {
                breaker.record_failure();
            }
        }
        let (out, mut report) = if let Some(run) = done {
            run
        } else {
            x.copy_from_slice(&saved);
            let out = host(x)?;
            if let Some(inj) = self.engine.fault_injector() {
                inj.note_degraded();
            }
            let mut report = self.host_report(
                kernel,
                "degraded",
                "alrescha_degraded_runs_total",
                "kernel runs completed on the host after the device gave up",
            );
            report.faults = self.fault_counters().delta(&base);
            (out, report)
        };
        report.charge_recovery(wasted, self.engine.config());
        if let Some(breaker) = &self.breaker {
            report.breaker = breaker_delta(breaker.stats(), stats_base);
            self.note_breaker(&report.breaker);
        }
        Ok((out, report))
    }

    /// Programs a kernel: runs Algorithm 1 and loads the result (the
    /// one-time host-side preprocessing of §4).
    ///
    /// Graph kernels ([`KernelType::Bfs`], [`KernelType::Sssp`],
    /// [`KernelType::PageRank`]) are programmed on the *transposed*
    /// adjacency so each block row gathers a destination chunk's incoming
    /// edges, and the out-degree vector is captured for PageRank.
    ///
    /// # Errors
    ///
    /// Propagates conversion failures ([`CoreError::Sparse`]).
    pub fn program(&mut self, kernel: KernelType, a: &Coo) -> Result<ProgrammedKernel> {
        let tele = self.engine.telemetry().cloned();
        let _convert_span = alrescha_obs::span!(tele, format!("convert:{kernel:?}"));
        let prog = self.program_inner(kernel, a)?;
        if let Some(t) = &tele {
            let m = t.metrics();
            m.counter(
                "alrescha_convert_total",
                true,
                "format conversions (Algorithm 1)",
            )
            .inc();
            m.counter(
                "alrescha_convert_blocks_total",
                true,
                "locally-dense blocks produced by conversion",
            )
            .add(prog.matrix().blocks().len() as u64);
            m.counter(
                "alrescha_convert_rows_total",
                true,
                "matrix rows converted",
            )
            .add(prog.matrix().rows() as u64);
        }
        Ok(prog)
    }

    fn program_inner(&mut self, kernel: KernelType, a: &Coo) -> Result<ProgrammedKernel> {
        match kernel {
            KernelType::ConnectedComponents => {
                // Label propagation needs both edge directions: symmetrize,
                // then transpose like the other graph kernels.
                let mut sym = a.clone();
                for &(u, v, w) in a.entries() {
                    sym.push(v, u, w);
                }
                let (alf, table) = convert(kernel, &sym.transpose(), self.config().omega)?;
                Ok(ProgrammedKernel::build(kernel, alf, table, None))
            }
            KernelType::Bfs | KernelType::Sssp | KernelType::PageRank => {
                let csr = Csr::from_coo(a);
                let out_degrees = (0..csr.rows()).map(|u| csr.row_nnz(u)).collect();
                let (alf, table) = convert(kernel, &a.transpose(), self.config().omega)?;
                Ok(ProgrammedKernel::build(kernel, alf, table, Some(out_degrees)))
            }
            _ => {
                let (alf, table) = convert(kernel, a, self.config().omega)?;
                Ok(ProgrammedKernel::build(kernel, alf, table, None))
            }
        }
    }

    /// Runs SpMV: `y = A·x`.
    ///
    /// With a circuit breaker armed ([`Alrescha::set_circuit_breaker`]) the
    /// breaker governs failover. Otherwise, under a [`RecoveryPolicy`] that
    /// degrades to the CPU, an unrecovered fault falls back to the host
    /// reference kernel; the returned report then carries the wasted device
    /// cycles in its recovery bucket and `faults.degraded == 1`.
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongKernel`] if `prog` was not programmed for SpMV;
    /// simulator errors otherwise.
    pub fn spmv(
        &mut self,
        prog: &ProgrammedKernel,
        x: &[f64],
    ) -> Result<(Vec<f64>, ExecutionReport)> {
        expect_kernel(prog, KernelType::SpMv)?;
        self.failover(
            "spmv",
            &mut [],
            |engine, _| engine.run_spmv(&prog.alf, x),
            |_| Ok(alrescha_kernels::spmv::spmv(&host_csr(prog), x)),
        )
    }

    /// Runs one symmetric Gauss-Seidel application, updating `x` in place.
    ///
    /// Failover as in [`Alrescha::spmv`]; a sweep the host takes over
    /// restarts from `x`'s pre-call state.
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongKernel`] if `prog` was not programmed for SymGS;
    /// simulator errors otherwise.
    pub fn symgs(
        &mut self,
        prog: &ProgrammedKernel,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<ExecutionReport> {
        expect_kernel(prog, KernelType::SymGs)?;
        let ((), report) = self.failover(
            "symgs",
            x,
            |engine, x| Ok(((), engine.run_symgs(&prog.alf, b, x)?)),
            |x| Ok(symgs::symgs(&host_csr(prog), b, x)?),
        )?;
        Ok(report)
    }

    /// Runs one forward Gauss-Seidel sweep, updating `x` in place.
    ///
    /// # Errors
    ///
    /// Same as [`Alrescha::symgs`] (including the failover).
    pub fn symgs_forward(
        &mut self,
        prog: &ProgrammedKernel,
        b: &[f64],
        x: &mut [f64],
    ) -> Result<ExecutionReport> {
        expect_kernel(prog, KernelType::SymGs)?;
        let ((), report) = self.failover(
            "symgs",
            x,
            |engine, x| Ok(((), engine.run_symgs_forward(&prog.alf, b, x)?)),
            |x| Ok(symgs::forward_sweep(&host_csr(prog), b, x)?),
        )?;
        Ok(report)
    }

    /// Runs BFS from `source`; returns hop levels (∞ where unreachable).
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongKernel`] if `prog` was not programmed for BFS;
    /// simulator errors otherwise.
    pub fn bfs(
        &mut self,
        prog: &ProgrammedKernel,
        source: usize,
    ) -> Result<(Vec<f64>, ExecutionReport)> {
        expect_kernel(prog, KernelType::Bfs)?;
        Ok(self.engine.run_bfs(&prog.alf, source)?)
    }

    /// Runs SSSP from `source`; returns distances (∞ where unreachable).
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongKernel`] if `prog` was not programmed for SSSP;
    /// simulator errors otherwise.
    pub fn sssp(
        &mut self,
        prog: &ProgrammedKernel,
        source: usize,
    ) -> Result<(Vec<f64>, ExecutionReport)> {
        expect_kernel(prog, KernelType::Sssp)?;
        Ok(self.engine.run_sssp(&prog.alf, source)?)
    }

    /// Runs PageRank to convergence; returns `(ranks, report)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongKernel`] if `prog` was not programmed for
    /// PageRank; simulator errors (including non-convergence) otherwise.
    pub fn pagerank(
        &mut self,
        prog: &ProgrammedKernel,
        opts: &PageRankConfig,
    ) -> Result<(Vec<f64>, ExecutionReport)> {
        expect_kernel(prog, KernelType::PageRank)?;
        let out_degrees = prog.out_degrees.as_ref().ok_or(CoreError::InvalidProgram {
            reason: "pagerank program lacks out-degrees",
        })?;
        Ok(self.engine.run_pagerank(&prog.alf, out_degrees, opts)?)
    }
}

impl Alrescha {
    /// Runs one symmetric SOR application on the device (`omega_relax = 1`
    /// is [`Alrescha::symgs`]), updating `x` in place.
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongKernel`] if `prog` was not programmed for SymGS;
    /// simulator errors (including an out-of-range relaxation factor)
    /// otherwise.
    pub fn ssor(
        &mut self,
        prog: &ProgrammedKernel,
        b: &[f64],
        x: &mut [f64],
        omega_relax: f64,
    ) -> Result<ExecutionReport> {
        expect_kernel(prog, KernelType::SymGs)?;
        Ok(self.engine.run_ssor(&prog.alf, b, x, omega_relax)?)
    }

    /// Runs connected components over the undirected structure of the
    /// programmed adjacency; returns per-vertex component labels.
    ///
    /// # Errors
    ///
    /// [`CoreError::WrongKernel`] if `prog` was not programmed for
    /// connected components; simulator errors otherwise.
    pub fn connected_components(
        &mut self,
        prog: &ProgrammedKernel,
    ) -> Result<(Vec<usize>, ExecutionReport)> {
        expect_kernel(prog, KernelType::ConnectedComponents)?;
        Ok(self.engine.run_connected_components(&prog.alf)?)
    }
}

/// The host reference kernels' view of a programmed matrix.
fn host_csr(prog: &ProgrammedKernel) -> Csr {
    Csr::from_coo(&prog.alf.to_coo())
}

/// Device attempts granted by a routing decision (0 ⇒ serve from the CPU).
fn attempt_budget(choice: BackendChoice) -> u32 {
    match choice {
        BackendChoice::Cpu => 0,
        BackendChoice::Probe => 1,
        BackendChoice::Device { attempts } => attempts.max(1),
    }
}

/// Breaker-transition counts accrued since `base` (for per-run reports).
fn breaker_delta(now: BreakerStats, base: BreakerStats) -> BreakerStats {
    BreakerStats {
        trips: now.trips - base.trips,
        half_open_probes: now.half_open_probes - base.half_open_probes,
        cpu_fallback_runs: now.cpu_fallback_runs - base.cpu_fallback_runs,
    }
}

fn expect_kernel(prog: &ProgrammedKernel, want: KernelType) -> Result<()> {
    if prog.kernel == want {
        Ok(())
    } else {
        Err(CoreError::WrongKernel {
            programmed: prog.kernel,
            requested: want,
        })
    }
}

/// Bytes of runtime meta-data the accelerator streams per non-zero: always
/// zero — the point of the locally-dense format. Provided for symmetry with
/// the [`MetaData`] accounting of the classic formats.
pub fn runtime_meta_bytes_per_nnz(prog: &ProgrammedKernel) -> f64 {
    let _ = prog.alf.nnz();
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn program_and_run_spmv() {
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3);
        let prog = acc.program(KernelType::SpMv, &coo).unwrap();
        let x: Vec<f64> = (0..coo.cols()).map(|i| i as f64).collect();
        let (y, report) = acc.spmv(&prog, &x).unwrap();
        let expect = alrescha_kernels::spmv::spmv(&Csr::from_coo(&coo), &x);
        assert!(alrescha_sparse::approx_eq(&y, &expect, 1e-12));
        assert_eq!(report.kernel, "spmv");
    }

    #[test]
    fn wrong_kernel_is_rejected() {
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(2);
        let prog = acc.program(KernelType::SpMv, &coo).unwrap();
        let mut x = vec![0.0; coo.cols()];
        let b = vec![1.0; coo.rows()];
        let err = acc.symgs(&prog, &b, &mut x).unwrap_err();
        assert!(matches!(err, CoreError::WrongKernel { .. }));
    }

    #[test]
    fn symgs_runs_and_reports_switches() {
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3);
        let prog = acc.program(KernelType::SymGs, &coo).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let report = acc.symgs(&prog, &b, &mut x).unwrap();
        assert!(report.reconfig.switches > 0);
        assert!(report.datapaths.dsymgs_blocks > 0);
    }

    #[test]
    fn graph_program_transposes_and_runs() {
        let mut acc = Alrescha::with_paper_config();
        let g = gen::road_grid(5);
        let prog = acc.program(KernelType::Bfs, &g).unwrap();
        let (levels, _) = acc.bfs(&prog, 0).unwrap();
        let expect = alrescha_kernels::graph::bfs(&Csr::from_coo(&g), 0).unwrap();
        assert_eq!(levels, expect);
    }

    #[test]
    fn pagerank_driver_uses_out_degrees() {
        let mut acc = Alrescha::with_paper_config();
        let g = gen::GraphClass::Kronecker.generate(64, 3);
        let prog = acc.program(KernelType::PageRank, &g).unwrap();
        let (ranks, _) = acc.pagerank(&prog, &PageRankConfig::default()).unwrap();
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn unrecovered_spmv_fault_degrades_to_cpu() {
        use alrescha_sim::{FaultPlan, RecoveryPolicy};
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3);
        let prog = acc.program(KernelType::SpMv, &coo).unwrap();
        // Stuck-at faults survive retries by construction, so the device
        // must give up and fall back to the host kernel.
        acc.set_fault_plan(Some(FaultPlan::inert(42).with_memory_stuck_rate(1.0)));
        acc.set_recovery_policy(RecoveryPolicy::DegradeToCpu {
            max_retries: 2,
            backoff_cycles: 8,
        });
        let x = vec![1.0; coo.cols()];
        let (y, report) = acc.spmv(&prog, &x).unwrap();
        let expect = alrescha_kernels::spmv::spmv(&Csr::from_coo(&coo), &x);
        assert!(alrescha_sparse::approx_eq(&y, &expect, 1e-12));
        assert_eq!(report.faults.degraded, 1);
        assert!(report.faults.injected > 0);
        assert!(report.faults.detected > 0);
        assert!(report.faults.retries > 0);
        assert!(
            report.cycles > 0,
            "wasted device attempts are charged to the degraded report"
        );
        assert_eq!(
            report.breakdown.recovery_cycles, report.cycles,
            "all degraded-run cycles are recovery cycles"
        );
        assert_eq!(report.breakdown.total(), report.cycles);
    }

    #[test]
    fn unrecovered_symgs_fault_degrades_and_restores_x() {
        use alrescha_sim::{FaultPlan, RecoveryPolicy};
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3);
        let prog = acc.program(KernelType::SymGs, &coo).unwrap();
        acc.set_fault_plan(Some(FaultPlan::inert(7).with_memory_stuck_rate(1.0)));
        acc.set_recovery_policy(RecoveryPolicy::DegradeToCpu {
            max_retries: 1,
            backoff_cycles: 4,
        });
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let report = acc.symgs(&prog, &b, &mut x).unwrap();
        assert_eq!(report.faults.degraded, 1);
        let mut x_ref = vec![0.0; coo.cols()];
        alrescha_kernels::symgs::symgs(&Csr::from_coo(&coo), &b, &mut x_ref).unwrap();
        assert!(
            alrescha_sparse::approx_eq(&x, &x_ref, 1e-12),
            "fallback must run from the pre-call state"
        );
    }

    #[test]
    fn fail_fast_policy_surfaces_the_fault() {
        use alrescha_sim::{FaultPlan, SimError};
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3);
        let prog = acc.program(KernelType::SpMv, &coo).unwrap();
        acc.set_fault_plan(Some(FaultPlan::inert(42).with_memory_stuck_rate(1.0)));
        // Default policy is FailFast.
        let err = acc.spmv(&prog, &vec![1.0; coo.cols()]).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Sim(SimError::FaultDetected { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn no_runtime_metadata() {
        let mut acc = Alrescha::with_paper_config();
        let prog = acc.program(KernelType::SpMv, &gen::stencil27(2)).unwrap();
        assert_eq!(runtime_meta_bytes_per_nnz(&prog), 0.0);
    }

    #[test]
    fn cpu_only_pin_serves_from_host_with_clean_report() {
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3);
        let prog = acc.program(KernelType::SpMv, &coo).unwrap();
        acc.set_cpu_only(true);
        let x = vec![1.0; coo.cols()];
        let (y, report) = acc.spmv(&prog, &x).unwrap();
        // Same host kernel as the reference: identical bits.
        let expect = alrescha_kernels::spmv::spmv(&Csr::from_coo(&coo), &x);
        assert_eq!(y, expect);
        assert_eq!(report.cycles, 0);
        assert_eq!(report.faults.degraded, 0);
        assert_eq!(report.breaker, alrescha_sim::BreakerStats::default());
        acc.reset();
        assert!(!acc.cpu_only(), "reset clears the pin");
    }

    #[test]
    fn breaker_trips_to_cpu_and_reports_transitions() {
        use crate::breaker::{BreakerConfig, BreakerState};
        use alrescha_sim::FaultPlan;
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3);
        let prog = acc.program(KernelType::SpMv, &coo).unwrap();
        // Stuck-at faults defeat every retry, so each device attempt fails.
        acc.set_fault_plan(Some(FaultPlan::inert(42).with_memory_stuck_rate(1.0)));
        acc.set_circuit_breaker(Some(BreakerConfig {
            failure_threshold: 2,
            cooldown_ops: 2,
            max_attempts: 2,
            ..BreakerConfig::default()
        }));
        let x = vec![1.0; coo.cols()];
        let expect = alrescha_kernels::spmv::spmv(&Csr::from_coo(&coo), &x);

        // Op 1: device attempts fail, served by CPU, breaker still closed.
        let (y, r1) = acc.spmv(&prog, &x).unwrap();
        assert!(alrescha_sparse::approx_eq(&y, &expect, 1e-12));
        assert_eq!(acc.breaker_state(), Some(BreakerState::Closed));
        assert_eq!(r1.faults.degraded, 1);
        assert!(
            r1.breakdown.recovery_cycles > 0,
            "wasted attempts and backoff must be charged"
        );

        // Op 2: second consecutive failure trips the breaker.
        let (_, r2) = acc.spmv(&prog, &x).unwrap();
        assert_eq!(acc.breaker_state(), Some(BreakerState::Open));
        assert_eq!(r2.breaker.trips, 1);

        // Ops 3-4: served by the CPU while open — no device cycles at all.
        for _ in 0..2 {
            let (y, r) = acc.spmv(&prog, &x).unwrap();
            assert!(alrescha_sparse::approx_eq(&y, &expect, 1e-12));
            assert_eq!(r.breaker.cpu_fallback_runs, 1);
            assert_eq!(r.breakdown.recovery_cycles, 0);
        }

        // Op 5: cooldown over — a half-open probe runs on the (still
        // faulty) device, fails, and re-opens the breaker.
        let (_, r5) = acc.spmv(&prog, &x).unwrap();
        assert_eq!(acc.breaker_state(), Some(BreakerState::Open));
        assert_eq!(r5.breaker.half_open_probes, 1);
        assert_eq!(r5.breaker.trips, 1);
        assert_eq!(acc.breaker_stats().trips, 2);
    }

    #[test]
    fn breaker_probe_heals_after_fault_plan_clears() {
        use crate::breaker::{BreakerConfig, BreakerState};
        use alrescha_sim::FaultPlan;
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3);
        let prog = acc.program(KernelType::SpMv, &coo).unwrap();
        acc.set_fault_plan(Some(FaultPlan::inert(42).with_memory_stuck_rate(1.0)));
        acc.set_circuit_breaker(Some(BreakerConfig {
            failure_threshold: 1,
            cooldown_ops: 1,
            max_attempts: 1,
            ..BreakerConfig::default()
        }));
        let x = vec![1.0; coo.cols()];
        acc.spmv(&prog, &x).unwrap(); // trips (threshold 1)
        assert_eq!(acc.breaker_state(), Some(BreakerState::Open));
        acc.spmv(&prog, &x).unwrap(); // cooldown tick on the CPU

        // The "transient outage" ends: the probe succeeds and heals.
        acc.set_fault_plan(None);
        let (y, r) = acc.spmv(&prog, &x).unwrap();
        assert_eq!(acc.breaker_state(), Some(BreakerState::Closed));
        assert_eq!(r.breaker.half_open_probes, 1);
        assert!(r.cycles > 0, "probe ran on the device");
        assert_eq!(r.faults.degraded, 0);
        let expect = alrescha_kernels::spmv::spmv(&Csr::from_coo(&coo), &x);
        assert!(alrescha_sparse::approx_eq(&y, &expect, 1e-12));
    }

    #[test]
    fn breaker_guards_symgs_and_restores_x_before_fallback() {
        use crate::breaker::BreakerConfig;
        use alrescha_sim::FaultPlan;
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3);
        let prog = acc.program(KernelType::SymGs, &coo).unwrap();
        acc.set_fault_plan(Some(FaultPlan::inert(7).with_memory_stuck_rate(1.0)));
        acc.set_circuit_breaker(Some(BreakerConfig::default()));
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        let report = acc.symgs(&prog, &b, &mut x).unwrap();
        assert_eq!(report.faults.degraded, 1);
        let mut x_ref = vec![0.0; coo.cols()];
        alrescha_kernels::symgs::symgs(&Csr::from_coo(&coo), &b, &mut x_ref).unwrap();
        assert!(
            alrescha_sparse::approx_eq(&x, &x_ref, 1e-12),
            "fallback must run from the pre-call state"
        );
    }
}

impl Alrescha {
    /// Programs a kernel from a serialized [`crate::program::ProgramBinary`]
    /// — the full host flow of Figure 7: the binary crosses the program
    /// interface, is decoded into the configuration table, and is validated
    /// entry-by-entry against the reformatted matrix before execution.
    ///
    /// # Errors
    ///
    /// Decoding errors, conversion errors, or
    /// [`CoreError::DimensionMismatch`] when the binary does not describe
    /// this matrix (entry count or per-entry fields disagree).
    pub fn program_from_binary(
        &mut self,
        binary: &crate::program::ProgramBinary,
        a: &Coo,
    ) -> Result<ProgrammedKernel> {
        let decoded = binary.decode()?;
        let prog = self.program(binary.kernel(), a)?;
        if decoded.entries() != prog.table().entries() {
            return Err(CoreError::DimensionMismatch {
                expected: prog.table().entries().len(),
                found: decoded.entries().len(),
            });
        }
        Ok(prog)
    }
}

#[cfg(test)]
mod binary_flow_tests {
    use super::*;
    use crate::program::ProgramBinary;
    use alrescha_sparse::gen;

    #[test]
    fn end_to_end_binary_flow_runs_symgs() {
        let coo = gen::stencil27(3);
        let mut host_acc = Alrescha::with_paper_config();
        // Host side: convert and serialize.
        let prog = host_acc.program(KernelType::SymGs, &coo).unwrap();
        let binary = ProgramBinary::encode(
            KernelType::SymGs,
            prog.table(),
            coo.rows(),
            host_acc.config().omega,
        );

        // Device side: decode, validate, run.
        let mut device_acc = Alrescha::with_paper_config();
        let device_prog = device_acc.program_from_binary(&binary, &coo).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        device_acc.symgs(&device_prog, &b, &mut x).unwrap();

        let mut x_ref = vec![0.0; coo.cols()];
        alrescha_kernels::symgs::symgs(&Csr::from_coo(&coo), &b, &mut x_ref).unwrap();
        assert!(alrescha_sparse::approx_eq(&x, &x_ref, 1e-10));
    }

    #[test]
    fn binary_for_a_different_matrix_is_rejected() {
        let coo_a = gen::stencil27(3);
        let coo_b = gen::stencil27(4);
        let mut acc = Alrescha::with_paper_config();
        let prog = acc.program(KernelType::SpMv, &coo_a).unwrap();
        let binary = ProgramBinary::encode(KernelType::SpMv, prog.table(), coo_a.rows(), 8);
        assert!(acc.program_from_binary(&binary, &coo_b).is_err());
    }
}

#[cfg(test)]
mod cc_facade_tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn cc_through_the_facade_matches_reference() {
        let g = gen::GraphClass::Road.generate(100, 3);
        let mut acc = Alrescha::with_paper_config();
        let prog = acc.program(KernelType::ConnectedComponents, &g).unwrap();
        let (labels, report) = acc.connected_components(&prog).unwrap();
        let expect = alrescha_kernels::graph::connected_components(&Csr::from_coo(&g)).unwrap();
        assert_eq!(labels, expect);
        assert_eq!(report.kernel, "cc");
    }

    #[test]
    fn cc_program_rejects_other_kernels() {
        let g = gen::road_grid(4);
        let mut acc = Alrescha::with_paper_config();
        let prog = acc.program(KernelType::Bfs, &g).unwrap();
        assert!(acc.connected_components(&prog).is_err());
    }
}

#[cfg(test)]
mod ssor_facade_tests {
    use super::*;
    use alrescha_sparse::gen;

    #[test]
    fn ssor_through_the_facade() {
        let coo = gen::stencil27(3);
        let csr = Csr::from_coo(&coo);
        let mut acc = Alrescha::with_paper_config();
        let prog = acc.program(KernelType::SymGs, &coo).unwrap();
        let b = vec![1.0; coo.rows()];
        let mut x = vec![0.0; coo.cols()];
        acc.ssor(&prog, &b, &mut x, 1.3).unwrap();
        let mut x_ref = vec![0.0; coo.cols()];
        alrescha_kernels::smoothers::ssor(&csr, &b, &mut x_ref, 1.3).unwrap();
        assert!(alrescha_sparse::approx_eq(&x, &x_ref, 1e-9));
    }
}
