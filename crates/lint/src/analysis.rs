//! `alprove` — abstract interpretation over ALRESCHA programs (AL4xx).
//!
//! The structural tier (AL0xx–AL3xx) decides whether a program is
//! *well-formed*; this module decides whether it is *safe to run* by
//! symbolically walking the block schedule without executing the engine:
//!
//! * **AL401** — worst-case RCU link-stack depth. The LIFO buffers ω
//!   partials per off-diagonal (GEMV) block of a row until the row's
//!   D-SymGS pops them, so the exact fault-free peak is
//!   `ω · max_r offdiag_r`. Error when it exceeds
//!   [`SimConfig::link_stack_capacity`].
//! * **AL402** — worst-case operand-FIFO occupancy. Each block row fills
//!   the `b`/diagonal FIFOs with one entry per valid lane, so the peak is
//!   `min(ω, n)`. Error when it exceeds
//!   [`SimConfig::operand_fifo_capacity`].
//! * **AL403** — sweep dependency ordering over the *decoded table* (the
//!   artifact the hardware actually consumes — a doctored table can
//!   violate these even when the ALF stream passes AL201): D-SymGS
//!   entries must issue in strictly ascending block-row order, and every
//!   lower-triangle GEMV entry must read a chunk some earlier D-SymGS
//!   entry produced this sweep. The backward sweep is legal by mirror
//!   symmetry (the engine reverses the row order itself), so one forward
//!   walk proves both.
//! * **AL404** — a static cycle bound built from the *same* cost
//!   constants the engine charges ([`SimConfig::stream_cycles`],
//!   [`SimConfig::fcu_sum_latency`], [`SimConfig::dsymgs_step_latency`],
//!   [`SimConfig::exposed_switch_cycles`]). The bound dominates the
//!   engine's fault-free dynamic count for any round count (the
//!   differential suite pins the tightness ratio); `alserve`'s admission
//!   gate rejects jobs whose bound already exceeds its cycle budget.
//! * **AL405** — liveness (warning): duplicate per-row diagonal entries
//!   (the engine keeps only the last) and entries programming all-padding
//!   blocks are dead weight in the schedule.
//!
//! The soundness lattice is deliberately shallow: every abstract state is
//! a scalar high-water mark or cycle sum, joins are `max`/`+`, and the
//! walk visits entries in schedule order exactly once — so the analysis
//! terminates in `O(entries)` and over-approximates every concrete
//! fault-free execution (DESIGN.md §14 carries the argument).

use alrescha::accelerator::ProgrammedKernel;
use alrescha::convert::{ConfigTable, DataPath, KernelType, OperandPort};
use alrescha::program::{EntryLayout, ProgramBinary};
use alrescha_sim::SimConfig;
use alrescha_sparse::{alf::Blocks, Alf, BlockKind};

use crate::{render_json, Diagnostic, Location};

/// The AL404 static cycle bound, decomposed the way the engine charges
/// cycles: a fixed overhead per run (FCU fill + drain plus worst-case
/// exposed reconfigurations) and a steady-state cost per algorithmic
/// round over the block schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBound {
    /// Fill/drain/reconfiguration cycles charged once per engine run.
    pub overhead_cycles: u64,
    /// Cycles of one full pass over the block schedule (one sweep, round,
    /// or iteration).
    pub steady_cycles: u64,
    /// Engine runs per kernel application (2 for SymGS: forward plus
    /// backward sweep; 1 otherwise).
    pub runs_per_application: u64,
    /// Statically known ceiling on rounds per run: 1 for SpMV/SymGS,
    /// `n + 1` for the min-plus kernels (the engine breaks once `rounds`
    /// passes `n`), `None` for PageRank (its iteration cap lives in
    /// runtime options, not the program).
    pub rounds_cap: Option<u64>,
}

impl CycleBound {
    /// Upper bound on cycles for one kernel application that executes
    /// `rounds` rounds per run (saturating).
    pub fn total_bound(&self, rounds: u64) -> u64 {
        self.runs_per_application.saturating_mul(
            self.overhead_cycles
                .saturating_add(rounds.saturating_mul(self.steady_cycles)),
        )
    }

    /// The fully static bound, when the round count is statically known.
    pub fn static_total(&self) -> Option<u64> {
        self.rounds_cap.map(|r| self.total_bound(r))
    }

    /// The bound admission control compares against a cycle budget: the
    /// static total when known, otherwise the cost of a single round —
    /// the provable minimum of any productive run.
    pub fn admission_bound(&self) -> u64 {
        self.static_total().unwrap_or_else(|| self.total_bound(1))
    }
}

/// The result of the abstract-interpretation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Kernel the program encodes.
    pub kernel: KernelType,
    /// Proved worst-case link-stack depth in `(lane, value)` entries.
    pub link_stack_bound: u64,
    /// Proved worst-case occupancy of each operand FIFO in values.
    pub operand_fifo_bound: u64,
    /// The AL404 static cycle bound.
    pub cycle_bound: CycleBound,
    /// Table indices of entries the schedule can never use (AL405).
    pub dead_entries: Vec<usize>,
    /// Every AL4xx finding, sorted most-severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// True when no AL4xx finding reaches [`crate::Severity::Error`].
    pub fn is_admissible(&self) -> bool {
        crate::is_launchable(&self.diagnostics)
    }

    /// Serializes the analysis as a single-line JSON object (hand-rolled,
    /// like the diagnostic renderer — no serializer in this build).
    pub fn to_json(&self, config: &SimConfig) -> String {
        let dead: Vec<String> = self.dead_entries.iter().map(ToString::to_string).collect();
        let static_total = self
            .cycle_bound
            .static_total()
            .map_or("null".to_string(), |v| v.to_string());
        let rounds_cap = self
            .cycle_bound
            .rounds_cap
            .map_or("null".to_string(), |v| v.to_string());
        format!(
            concat!(
                "{{\"kernel\":\"{kernel:?}\",",
                "\"link_stack_bound\":{lsb},\"link_stack_capacity\":{lsc},",
                "\"operand_fifo_bound\":{ofb},\"operand_fifo_capacity\":{ofc},",
                "\"cycle_bound\":{{\"overhead_cycles\":{oc},\"steady_cycles\":{sc},",
                "\"runs_per_application\":{rpa},\"rounds_cap\":{rc},",
                "\"static_total\":{st},\"admission_bound\":{ab}}},",
                "\"dead_entries\":[{dead}],\"diagnostics\":{diags}}}"
            ),
            kernel = self.kernel,
            lsb = self.link_stack_bound,
            lsc = config.link_stack_capacity(),
            ofb = self.operand_fifo_bound,
            ofc = config.operand_fifo_capacity(),
            oc = self.cycle_bound.overhead_cycles,
            sc = self.cycle_bound.steady_cycles,
            rpa = self.cycle_bound.runs_per_application,
            rc = rounds_cap,
            st = static_total,
            ab = self.cycle_bound.admission_bound(),
            dead = dead.join(","),
            diags = render_json(&self.diagnostics),
        )
    }
}

/// Per-block-row shape of the schedule, extracted once from the stream.
struct RowShape {
    offdiag: u64,
    has_diag: bool,
    valid_lanes: u64,
}

fn row_shapes(alf: &Alf) -> Vec<RowShape> {
    let omega = alf.omega().max(1);
    let n = alf.rows();
    let block_rows = n.div_ceil(omega);
    let mut rows: Vec<RowShape> = (0..block_rows)
        .map(|br| RowShape {
            offdiag: 0,
            has_diag: false,
            valid_lanes: (n - br * omega).min(omega) as u64,
        })
        .collect();
    for block in alf.blocks() {
        let Some(row) = rows.get_mut(block.block_row()) else {
            continue; // out-of-grid blocks are AL304's problem
        };
        match block.kind() {
            BlockKind::Diagonal => row.has_diag = true,
            BlockKind::OffDiagonal => row.offdiag += 1,
        }
    }
    rows
}

/// The AL404 bound for `kernel` over `alf`'s block schedule, mirroring
/// the engine's charging rules term by term (module docs).
fn cycle_bound(kernel: KernelType, alf: &Alf, config: &SimConfig) -> CycleBound {
    let omega = alf.omega().max(1);
    let n = alf.rows().max(alf.cols());
    let block_cost = config.stream_cycles(omega * omega).max(omega as u64);
    let blocks = alf.blocks().len() as u64;
    match kernel {
        KernelType::SpMv => CycleBound {
            overhead_cycles: 2 * config.fcu_sum_latency()
                + config.exposed_switch_cycles(config.fcu_sum_latency()),
            steady_cycles: blocks.saturating_mul(block_cost),
            runs_per_application: 1,
            rounds_cap: Some(1),
        },
        KernelType::SymGs => {
            let rows = row_shapes(alf);
            let row_drain = if config.overlap_drain {
                0
            } else {
                config.fcu_sum_latency()
            };
            let step = config.dsymgs_step_latency();
            let mut steady = 0u64;
            for row in &rows {
                steady = steady
                    .saturating_add(row.offdiag.saturating_mul(block_cost))
                    .saturating_add(row_drain);
                let recurrence = row.valid_lanes.saturating_mul(step);
                steady = steady.saturating_add(if row.has_diag {
                    recurrence.max(config.stream_cycles(omega * omega))
                } else {
                    recurrence
                });
            }
            // Worst case each row exposes two reconfigurations (into GEMV,
            // into D-SymGS) plus one re-entering GEMV after the run.
            let switches = 2 * rows.len() as u64 + 1;
            CycleBound {
                overhead_cycles: 2 * config.fcu_sum_latency()
                    + switches
                        .saturating_mul(config.exposed_switch_cycles(config.fcu_sum_latency())),
                steady_cycles: steady,
                runs_per_application: 2,
                rounds_cap: Some(1),
            }
        }
        KernelType::Bfs | KernelType::Sssp | KernelType::ConnectedComponents => CycleBound {
            overhead_cycles: 2 * config.fcu_min_latency()
                + config.exposed_switch_cycles(config.fcu_min_latency()),
            steady_cycles: blocks.saturating_mul(block_cost),
            runs_per_application: 1,
            // The propagation loop breaks once `rounds` exceeds n, so at
            // most n + 1 round bodies execute.
            rounds_cap: Some(n as u64 + 1),
        },
        KernelType::PageRank => CycleBound {
            overhead_cycles: 2 * config.fcu_sum_latency()
                + config.exposed_switch_cycles(config.fcu_sum_latency()),
            steady_cycles: (n as u64)
                .div_ceil(omega as u64)
                .saturating_mul(config.pe_latency)
                .saturating_add(blocks.saturating_mul(block_cost)),
            runs_per_application: 1,
            rounds_cap: None, // iteration cap is a runtime option
        },
    }
}

/// AL403/AL405 symbolic walk of the decoded table (SymGS only — the
/// single-data-path kernels have no intra-schedule dependencies).
fn walk_symgs_schedule(
    table: &ConfigTable,
    blocks: Blocks<'_>,
    omega: usize,
    dead: &mut Vec<usize>,
    diags: &mut Vec<Diagnostic>,
) {
    let omega = omega.max(1);
    // The block rows whose D-SymGS entries issued, strictly ascending: an
    // entry joins only when it is neither present nor below the last.
    let mut produced: Vec<usize> = Vec::new();
    for (i, entry) in table.entries().iter().enumerate() {
        let in_block = entry.inx_in / omega;
        match entry.data_path {
            DataPath::DSymGs => {
                if produced.binary_search(&in_block).is_ok() {
                    dead.push(i);
                    diags.push(Diagnostic::of(
                        "AL405",
                        Location::Entry {
                            index: i,
                            field: "inx_in",
                        },
                        format!(
                            "duplicate D-SymGS entry for block row {in_block}: the engine \
                             keeps only the last, earlier recurrences are dead"
                        ),
                    ));
                } else if produced.last().is_some_and(|&last| in_block < last) {
                    diags.push(Diagnostic::of(
                        "AL403",
                        Location::Entry {
                            index: i,
                            field: "inx_in",
                        },
                        format!(
                            "D-SymGS entry for block row {in_block} issues after block row \
                             {}: the sweep recurrence x_i = f(x_{{i-1}}) reads a value not \
                             yet produced",
                            produced.last().copied().unwrap_or(0)
                        ),
                    ));
                } else {
                    produced.push(in_block);
                }
            }
            _ => {
                // A lower-triangle GEMV (operand port 2) consumes this
                // sweep's freshly produced x chunk of its column.
                if entry.op == OperandPort::Port2 && produced.binary_search(&in_block).is_err() {
                    diags.push(Diagnostic::of(
                        "AL403",
                        Location::Entry {
                            index: i,
                            field: "op",
                        },
                        format!(
                            "lower-triangle GEMV entry reads x chunk {in_block} before any \
                             D-SymGS entry produces it: read-before-write across the sweep"
                        ),
                    ));
                }
            }
        }
        // AL405: an entry programming an all-padding block streams w^2
        // values that cannot contribute to any result.
        if let Some(block) = blocks.get(i) {
            if block.kind() == BlockKind::OffDiagonal && block.fill_count() == 0 {
                dead.push(i);
                diags.push(Diagnostic::of(
                    "AL405",
                    Location::Entry {
                        index: i,
                        field: "inx_in",
                    },
                    format!(
                        "entry programs all-padding block ({}, {}): the schedule streams \
                         it but no lane can contribute",
                        block.block_row(),
                        block.block_col()
                    ),
                ));
            }
        }
    }
}

/// Runs the abstract interpreter over a decoded configuration table, its
/// ALF stream, and the engine configuration. This is the table-level
/// entry point the mutation corpus uses to feed doctored tables straight
/// to the analyzer; [`analyze`] wraps it behind the codec.
pub fn analyze_table(
    kernel: KernelType,
    table: &ConfigTable,
    alf: &Alf,
    config: &SimConfig,
) -> Analysis {
    let omega = alf.omega().max(1);
    let symgs = kernel == KernelType::SymGs;
    let mut diags = Vec::new();
    let mut dead = Vec::new();

    // AL401: exact fault-free link-stack peak (module docs).
    let link_stack_bound = if symgs {
        (omega as u64).saturating_mul(alf.max_off_diagonal_blocks_per_row() as u64)
    } else {
        0
    };
    if link_stack_bound > config.link_stack_capacity() as u64 {
        diags.push(Diagnostic::of(
            "AL401",
            Location::Format,
            format!(
                "proved link-stack peak of {link_stack_bound} entries exceeds the \
                 {}-entry LIFO: the densest block row wedges the RCU",
                config.link_stack_capacity()
            ),
        ));
    }

    // AL402: exact operand-FIFO peak — one entry per valid lane of the
    // fullest block row.
    let operand_fifo_bound = if symgs {
        alf.rows().min(omega) as u64
    } else {
        0
    };
    if operand_fifo_bound > config.operand_fifo_capacity() as u64 {
        diags.push(Diagnostic::of(
            "AL402",
            Location::Format,
            format!(
                "proved operand-FIFO occupancy of {operand_fifo_bound} values exceeds the \
                 {}-value FIFOs",
                config.operand_fifo_capacity()
            ),
        ));
    }

    if symgs {
        walk_symgs_schedule(table, alf.blocks(), omega, &mut dead, &mut diags);
    }

    let bound = cycle_bound(kernel, alf, config);
    diags.push(Diagnostic::of(
        "AL404",
        Location::Format,
        format!(
            "static cycle bound: {} overhead + {} per round x {} runs (admission bound {})",
            bound.overhead_cycles,
            bound.steady_cycles,
            bound.runs_per_application,
            bound.admission_bound()
        ),
    ));

    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    dead.sort_unstable();
    dead.dedup();
    Analysis {
        kernel,
        link_stack_bound,
        operand_fifo_bound,
        cycle_bound: bound,
        dead_entries: dead,
        diagnostics: diags,
    }
}

/// The full alprove pass over the program/ALF/config triple: decodes the
/// binary through the shared [`EntryLayout`] codec and analyzes the
/// decoded table.
///
/// # Errors
///
/// A diagnostic list (AL101) when the binary cannot be decoded — there is
/// no table to interpret.
pub fn analyze(
    program: &ProgramBinary,
    alf: &Alf,
    config: &SimConfig,
) -> Result<Analysis, Vec<Diagnostic>> {
    let layout = EntryLayout::for_matrix(program.n(), program.omega());
    match program.decode() {
        Ok(table) => Ok(analyze_table(program.kernel(), &table, alf, config)),
        Err(_) => Err(vec![Diagnostic::of(
            "AL101",
            Location::ByteOffset {
                offset: program.len_bytes(),
            },
            format!(
                "cannot analyze: {} bytes do not hold {} entries of {} bits",
                program.len_bytes(),
                program.entry_count(),
                layout.entry_bits()
            ),
        )]),
    }
}

/// Analyzes a [`ProgrammedKernel`] directly (the table is already in
/// memory, no codec round-trip needed).
pub fn analyze_programmed(prog: &ProgrammedKernel, config: &SimConfig) -> Analysis {
    analyze_table(prog.kernel(), prog.table(), prog.matrix(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use alrescha::convert::{convert, AccessOrder, ConfigEntry};
    use alrescha_sparse::gen;

    fn symgs_fixture() -> (Alf, ConfigTable) {
        let coo = gen::stencil27(4); // n = 64, clean at paper ω = 8
        convert(KernelType::SymGs, &coo, 8).expect("convert")
    }

    #[test]
    fn clean_symgs_analysis_is_admissible() {
        let (alf, table) = symgs_fixture();
        let cfg = SimConfig::paper();
        let a = analyze_table(KernelType::SymGs, &table, &alf, &cfg);
        assert!(a.is_admissible());
        assert!(a.dead_entries.is_empty());
        assert!(a.link_stack_bound <= cfg.link_stack_capacity() as u64);
        assert_eq!(a.operand_fifo_bound, 8);
        assert_eq!(a.cycle_bound.runs_per_application, 2);
        assert_eq!(a.cycle_bound.rounds_cap, Some(1));
        // Every analysis reports its AL404 bound as a note.
        assert!(a
            .diagnostics
            .iter()
            .any(|d| d.code == "AL404" && d.severity == Severity::Info));
    }

    #[test]
    fn al403_flags_reordered_sweep() {
        let (alf, table) = symgs_fixture();
        let mut entries = table.entries().to_vec();
        // Swap the D-SymGS entries of the first two block rows.
        let diags_idx: Vec<usize> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.data_path == DataPath::DSymGs)
            .map(|(i, _)| i)
            .collect();
        let (a, b) = (diags_idx[0], diags_idx[1]);
        entries.swap(a, b);
        let doctored = ConfigTable::from_entries(entries, table.entry_bits());
        let out = analyze_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
        assert!(out.diagnostics.iter().any(|d| d.code == "AL403"));
        assert!(!out.is_admissible());
    }

    #[test]
    fn al403_flags_read_before_write() {
        let (alf, table) = symgs_fixture();
        let mut entries = table.entries().to_vec();
        // Forge a lower-triangle GEMV before any D-SymGS has produced its
        // operand chunk: make the first entry read port 2 from a chunk no
        // diagonal entry has produced yet.
        let first_gemv = entries
            .iter()
            .position(|e| e.data_path == DataPath::Gemv)
            .expect("has gemv");
        entries[first_gemv] = ConfigEntry {
            op: OperandPort::Port2,
            order: AccessOrder::L2R,
            ..entries[first_gemv]
        };
        let doctored = ConfigTable::from_entries(entries, table.entry_bits());
        let out = analyze_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
        assert!(out.diagnostics.iter().any(|d| d.code == "AL403"));
    }

    #[test]
    fn al405_flags_duplicate_diagonal_entry() {
        let (alf, table) = symgs_fixture();
        let mut entries = table.entries().to_vec();
        let first_diag = entries
            .iter()
            .position(|e| e.data_path == DataPath::DSymGs)
            .expect("has dsymgs");
        // Re-issue block row 0's D-SymGS somewhere later in the schedule.
        let later_gemv = entries
            .iter()
            .rposition(|e| e.data_path == DataPath::Gemv)
            .expect("has gemv");
        entries[later_gemv] = entries[first_diag];
        let doctored = ConfigTable::from_entries(entries, table.entry_bits());
        let out = analyze_table(KernelType::SymGs, &doctored, &alf, &SimConfig::paper());
        assert!(out.diagnostics.iter().any(|d| d.code == "AL405"));
        assert!(!out.dead_entries.is_empty());
    }

    #[test]
    fn al401_fires_on_overdeep_stack() {
        // A scattered matrix with very dense rows: one block row touches
        // more than link_stack_capacity / ω off-diagonal blocks.
        let coo = gen::ScienceClass::Economics.generate(400, 11);
        let (alf, table) = convert(KernelType::SymGs, &coo, 8).expect("convert");
        let cfg = SimConfig::paper();
        let out = analyze_table(KernelType::SymGs, &table, &alf, &cfg);
        let peak = 8 * alf.max_off_diagonal_blocks_per_row() as u64;
        assert_eq!(out.link_stack_bound, peak);
        assert_eq!(
            out.diagnostics.iter().any(|d| d.code == "AL401"),
            peak > cfg.link_stack_capacity() as u64,
        );
    }

    #[test]
    fn spmv_bound_has_no_symgs_resources() {
        let coo = gen::stencil27(4);
        let (alf, table) = convert(KernelType::SpMv, &coo, 8).expect("convert");
        let out = analyze_table(KernelType::SpMv, &table, &alf, &SimConfig::paper());
        assert_eq!(out.link_stack_bound, 0);
        assert_eq!(out.operand_fifo_bound, 0);
        assert_eq!(out.cycle_bound.rounds_cap, Some(1));
        assert!(out.is_admissible());
    }

    #[test]
    fn analysis_json_is_well_formed() {
        let (alf, table) = symgs_fixture();
        let cfg = SimConfig::paper();
        let out = analyze_table(KernelType::SymGs, &table, &alf, &cfg);
        let json = out.to_json(&cfg);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"kernel\":\"SymGs\""));
        assert!(json.contains("\"admission_bound\":"));
        assert!(!json.contains(",}") && !json.contains(",]"));
    }

    #[test]
    fn truncated_binary_cannot_be_analyzed() {
        let (alf, table) = symgs_fixture();
        let binary = ProgramBinary::encode(KernelType::SymGs, &table, 64, 8);
        let truncated = ProgramBinary::from_raw_parts(
            KernelType::SymGs,
            64,
            8,
            table.entries().len(),
            binary.as_bytes()[..1].to_vec(),
        );
        let err = analyze(&truncated, &alf, &SimConfig::paper()).expect_err("must refuse");
        assert!(err.iter().any(|d| d.code == "AL101"));
    }
}
