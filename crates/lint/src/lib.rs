//! `alverify` — static verification of ALRESCHA programs.
//!
//! ALRESCHA's correctness hinges on invariants that the simulator only
//! checks by running: the ALF block order must equal the order of
//! computation, the configuration table must use exactly
//! `2·⌈log₂(n/ω)⌉`-bit indices, and the D-SymGS diagonal-block recurrence
//! must form an acyclic dependence chain (§3, Eq. 3). This crate decides
//! all of that *before issue*: [`verify`] runs ~15 rules over a
//! [`ProgramBinary`], its [`Alf`] matrix, and the [`SimConfig`] without
//! executing anything, and returns typed [`Diagnostic`]s with stable codes.
//!
//! Rule families (see DESIGN.md §9 for the full catalog):
//!
//! * **AL0xx — format**: block ordering, reversal consistency, padding
//!   density, index bit-width.
//! * **AL1xx — program**: codec round-trip, in-bounds table entries,
//!   kernel↔data-path agreement, header/matrix agreement.
//! * **AL2xx — schedule**: D-SymGS dependence DAG and topological stream
//!   order, RCU LIFO/FIFO depth bounds, reconfiguration-point legality.
//! * **AL3xx — resource**: cache working set, block-width/engine agreement,
//!   padded-tail visibility, structural sanity.
//! * **AL4xx — semantic** ([`analysis`], DESIGN.md §14): the alprove
//!   abstract interpreter — proved link-stack/FIFO peaks, sweep
//!   dependency order over the decoded table, a static cycle bound built
//!   from the engine's own cost constants (enforced at admission by
//!   `alserve`), and liveness.
//! * **AL5xx — alasm text** (DESIGN.md §15): syntax, encoding-width,
//!   structure, duplicate, and geometry findings produced by the
//!   `alrescha-asm` assembler/disassembler. The diagnostics themselves are
//!   emitted by that crate (they carry line/column spans rather than
//!   block/entry locations), but their codes, severities, and summaries
//!   live here so `alverify --list-rules` stays the one rule inventory.
//!
//! The [`Preflight`] extension trait wires the pass into the
//! [`Alrescha`](alrescha::Alrescha) facade: `acc.preflight(&prog)` refuses
//! to launch a program carrying any [`Severity::Error`] diagnostic.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use alrescha::accelerator::ProgrammedKernel;
use alrescha::program::ProgramBinary;
use alrescha_sim::SimConfig;
use alrescha_sparse::Alf;

pub mod analysis;
mod rules;

pub use analysis::{analyze, analyze_programmed, analyze_table, Analysis, CycleBound};
pub use rules::{verify_alf, verify_table};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never blocks anything.
    Info,
    /// A performance or fidelity hazard; the program still runs correctly.
    Warning,
    /// The program violates a correctness invariant; pre-flight refuses it.
    Error,
}

impl Severity {
    /// Lower-case label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One row of the static rule catalog: the stable code, the severity a
/// finding of this rule carries by default (variable-severity rules list
/// their ceiling; downgraded instances carry a lower one), and a
/// one-line summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInfo {
    /// Stable rule code (`AL001` … `AL405`).
    pub code: &'static str,
    /// Default (ceiling) severity of the rule's findings.
    pub severity: Severity,
    /// One-line description shown by `alverify --list-rules`.
    pub summary: &'static str,
}

/// The complete rule catalog — the single source of truth for codes,
/// severities, and summaries, consumed by `rules.rs` (structural tier),
/// [`analysis`] (semantic tier), and the `alverify --list-rules` CLI.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        code: "AL001",
        severity: Severity::Error,
        summary: "ALF stream order must equal the order of computation",
    },
    RuleInfo {
        code: "AL002",
        severity: Severity::Error,
        summary: "stored value order / diagonal extraction must match the layout",
    },
    RuleInfo {
        code: "AL003",
        severity: Severity::Warning,
        summary: "padding density: all-zero blocks and low mean block fill",
    },
    RuleInfo {
        code: "AL004",
        severity: Severity::Error,
        summary: "entry width must equal the paper's 2*ceil(log2(n/w))+3 bit budget",
    },
    RuleInfo {
        code: "AL101",
        severity: Severity::Error,
        summary: "program binary must survive the decode/encode round-trip",
    },
    RuleInfo {
        code: "AL102",
        severity: Severity::Error,
        summary: "table indices must be w-aligned and inside the padded dimension",
    },
    RuleInfo {
        code: "AL103",
        severity: Severity::Error,
        summary: "every entry must agree with the streamed block it programs",
    },
    RuleInfo {
        code: "AL104",
        severity: Severity::Error,
        summary: "binary header must agree with the matrix geometry",
    },
    RuleInfo {
        code: "AL201",
        severity: Severity::Error,
        summary: "D-SymGS dependence chain must stream topologically ordered",
    },
    RuleInfo {
        code: "AL202",
        severity: Severity::Error,
        summary: "RCU LIFO/FIFO static depth estimates within configured capacity",
    },
    RuleInfo {
        code: "AL203",
        severity: Severity::Error,
        summary: "reconfigurations only at drain-hidden data-path boundaries",
    },
    RuleInfo {
        code: "AL301",
        severity: Severity::Warning,
        summary: "per-block-row working set must fit the local cache",
    },
    RuleInfo {
        code: "AL302",
        severity: Severity::Error,
        summary: "format block width must match the engine configuration",
    },
    RuleInfo {
        code: "AL303",
        severity: Severity::Warning,
        summary: "padded tail chunks are visible to every vector operand",
    },
    RuleInfo {
        code: "AL304",
        severity: Severity::Error,
        summary: "structural sanity: block grid bounds, payload geometry, diagonal length",
    },
    RuleInfo {
        code: "AL401",
        severity: Severity::Error,
        summary: "proved worst-case link-stack depth must fit the LIFO capacity",
    },
    RuleInfo {
        code: "AL402",
        severity: Severity::Error,
        summary: "proved worst-case operand-FIFO occupancy must fit the FIFO capacity",
    },
    RuleInfo {
        code: "AL403",
        severity: Severity::Error,
        summary: "decoded sweep schedule must respect block-row data dependencies",
    },
    RuleInfo {
        code: "AL404",
        severity: Severity::Info,
        summary: "static cycle bound (admission compares it to the deadline budget)",
    },
    RuleInfo {
        code: "AL405",
        severity: Severity::Warning,
        summary: "liveness: entries and blocks the schedule can never use",
    },
    RuleInfo {
        code: "AL501",
        severity: Severity::Error,
        summary: "alasm syntax: unknown directive, mnemonic, or malformed token",
    },
    RuleInfo {
        code: "AL502",
        severity: Severity::Error,
        summary: "alasm encoding: field value exceeds its EntryLayout bit width",
    },
    RuleInfo {
        code: "AL503",
        severity: Severity::Error,
        summary: "alasm structure: truncated or arity-mismatched entry/payload",
    },
    RuleInfo {
        code: "AL504",
        severity: Severity::Error,
        summary: "alasm duplicate label or repeated unique directive",
    },
    RuleInfo {
        code: "AL505",
        severity: Severity::Error,
        summary: "alasm header/geometry disagreement across directives",
    },
];

/// Looks up a rule by code.
pub fn rule(code: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.code == code)
}

/// Span-like location of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// A whole-format property with no narrower anchor.
    Format,
    /// The `index`-th block of the ALF stream order.
    Block {
        /// Index into [`Alf::blocks`].
        index: usize,
    },
    /// A configuration-table entry, with the offending field named.
    Entry {
        /// Index into the table's execution order.
        index: usize,
        /// The field the rule rejected (`inx_in`, `data_path`, ...).
        field: &'static str,
    },
    /// A byte offset into the packed program binary.
    ByteOffset {
        /// Offset from the start of the packed table.
        offset: usize,
    },
    /// A named header or configuration field.
    Field {
        /// The field name (`omega`, `entry_bits`, `cache_latency`, ...).
        name: &'static str,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Format => write!(f, "format"),
            Location::Block { index } => write!(f, "block {index}"),
            Location::Entry { index, field } => write!(f, "entry {index}.{field}"),
            Location::ByteOffset { offset } => write!(f, "byte {offset}"),
            Location::Field { name } => write!(f, "field {name}"),
        }
    }
}

/// One finding of the static pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`AL001` ... `AL304`).
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Where it is.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    pub(crate) fn new(
        code: &'static str,
        severity: Severity,
        location: Location,
        message: String,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            location,
            message,
        }
    }

    /// Builds a finding whose severity comes from the [`RULES`] catalog —
    /// the normal constructor, so rule code and severity can't drift.
    pub(crate) fn of(code: &'static str, location: Location, message: String) -> Self {
        let severity = rule(code).map_or(Severity::Error, |r| r.severity);
        Diagnostic::new(code, severity, location, message)
    }

    /// Builds a finding at an explicit severity for variable-severity
    /// rules; the catalog entry is the ceiling a downgraded instance must
    /// stay under.
    pub(crate) fn of_with(
        code: &'static str,
        severity: Severity,
        location: Location,
        message: String,
    ) -> Self {
        debug_assert!(
            rule(code).is_none_or(|r| severity <= r.severity),
            "{code} instance exceeds its catalog ceiling"
        );
        Diagnostic::new(code, severity, location, message)
    }

    /// Renders as a single JSON object; the message is escaped by
    /// [`alrescha_obs::json::escape`].
    pub fn to_json(&self) -> String {
        let loc = match self.location {
            Location::Format => r#"{"kind":"format"}"#.to_string(),
            Location::Block { index } => format!(r#"{{"kind":"block","index":{index}}}"#),
            Location::Entry { index, field } => {
                format!(r#"{{"kind":"entry","index":{index},"field":"{field}"}}"#)
            }
            Location::ByteOffset { offset } => {
                format!(r#"{{"kind":"byte_offset","offset":{offset}}}"#)
            }
            Location::Field { name } => format!(r#"{{"kind":"field","name":"{name}"}}"#),
        };
        format!(
            r#"{{"code":"{}","severity":"{}","location":{},"message":{}}}"#,
            self.code,
            self.severity.label(),
            loc,
            alrescha_obs::json::escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} (at {})",
            self.severity.label(),
            self.code,
            self.message,
            self.location
        )
    }
}

/// Renders a diagnostic list as a JSON array.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let items: Vec<String> = diagnostics.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

/// Renders a diagnostic list as human text, one finding per line, followed
/// by a summary line.
pub fn render_text(diagnostics: &[Diagnostic]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = count(diagnostics, Severity::Error);
    let warnings = count(diagnostics, Severity::Warning);
    let infos = count(diagnostics, Severity::Info);
    let _ = writeln!(
        out,
        "{} diagnostics: {errors} errors, {warnings} warnings, {infos} notes",
        diagnostics.len()
    );
    out
}

/// Number of diagnostics at exactly `severity`.
pub fn count(diagnostics: &[Diagnostic], severity: Severity) -> usize {
    diagnostics
        .iter()
        .filter(|d| d.severity == severity)
        .count()
}

/// True when no diagnostic reaches [`Severity::Error`].
pub fn is_launchable(diagnostics: &[Diagnostic]) -> bool {
    count(diagnostics, Severity::Error) == 0
}

/// The full static pass: program rules over `program`, format rules over
/// `alf`, schedule and resource rules against `config`. Runs nothing;
/// returns every finding sorted most-severe first (stable within a
/// severity, i.e. rule order is preserved).
pub fn verify(program: &ProgramBinary, alf: &Alf, config: &SimConfig) -> Vec<Diagnostic> {
    let table = program.decode().ok();
    let mut diags = rules::verify_binary(program, table.as_ref(), alf);
    if let Some(table) = &table {
        diags.extend(rules::verify_table(program.kernel(), table, alf, config));
    }
    diags.extend(rules::verify_alf(alf, config));
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

/// Verifies a [`ProgrammedKernel`] by serializing its table through the
/// real codec (so the AL1xx round-trip rules run too) and invoking
/// [`verify`].
pub fn verify_programmed(prog: &ProgrammedKernel, config: &SimConfig) -> Vec<Diagnostic> {
    let alf = prog.matrix();
    let n = alf.rows().max(alf.cols());
    let binary = ProgramBinary::encode(prog.kernel(), prog.table(), n, alf.omega());
    verify(&binary, alf, config)
}

/// A program refused by the pre-flight gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreflightError {
    /// Every finding of the pass, errors included.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for PreflightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "preflight refused program: {} error diagnostics",
            count(&self.diagnostics, Severity::Error)
        )?;
        for d in self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
        {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PreflightError {}

/// The pre-flight gate on the accelerator facade: run the static pass
/// against the accelerator's own configuration and refuse to launch
/// programs that carry error-severity diagnostics.
pub trait Preflight {
    /// Runs [`verify_programmed`]: `Ok(diagnostics)` when launchable
    /// (warnings and notes pass through), `Err` carrying everything
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`PreflightError`] when any diagnostic reaches [`Severity::Error`].
    fn preflight(&self, prog: &ProgrammedKernel) -> Result<Vec<Diagnostic>, PreflightError>;
}

impl Preflight for alrescha::Alrescha {
    fn preflight(&self, prog: &ProgrammedKernel) -> Result<Vec<Diagnostic>, PreflightError> {
        let diagnostics = verify_programmed(prog, self.config());
        if !is_launchable(&diagnostics) {
            return Err(PreflightError { diagnostics });
        }
        Ok(diagnostics)
    }
}

/// Builds the `alverify` preflight hook for the batch runtime
/// ([`alrescha::Fleet::with_preflight`]): every freshly converted program is
/// run through the full rule catalog, and refused on any error-severity
/// diagnostic, before it enters the conversion cache. Cache hits were
/// verified when they entered, so repeated matrices pay the verification
/// cost once per distinct `(kernel, matrix, ω)`.
///
/// With `tele`, every verification runs in an alobs `preflight` span and
/// counts its pass or rejection in the metrics registry, so preflight cost
/// shows up on the worker timeline next to conversion and device runs.
pub fn fleet_preflight_hook(
    tele: Option<std::sync::Arc<alrescha_obs::Telemetry>>,
) -> alrescha::PreflightHook {
    std::sync::Arc::new(move |prog, config| {
        let _span = alrescha_obs::span!(tele, "preflight");
        let diagnostics = verify_programmed(prog, config);
        let launchable = is_launchable(&diagnostics);
        if let Some(tele) = &tele {
            let (name, help) = if launchable {
                (
                    "alrescha_preflight_passes_total",
                    "programs that cleared alverify preflight",
                )
            } else {
                (
                    "alrescha_preflight_rejections_total",
                    "programs rejected by alverify preflight",
                )
            };
            tele.metrics().counter(name, true, help).inc();
        }
        if launchable {
            Ok(())
        } else {
            Err(render_text(&diagnostics))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha::{Alrescha, KernelType};
    use alrescha_sparse::gen;

    #[test]
    fn clean_program_verifies_clean() {
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(4); // n = 64, a multiple of ω = 8
        let prog = acc.program(KernelType::SymGs, &coo).expect("program");
        let diags = acc.preflight(&prog).expect("launchable");
        assert!(is_launchable(&diags));
        assert_eq!(count(&diags, Severity::Error), 0);
    }

    #[test]
    fn padded_tail_is_a_warning_not_an_error() {
        let mut acc = Alrescha::with_paper_config();
        let coo = gen::stencil27(3); // n = 27, pads to 32
        let prog = acc.program(KernelType::SymGs, &coo).expect("program");
        let diags = acc.preflight(&prog).expect("still launchable");
        assert!(diags
            .iter()
            .any(|d| d.code == "AL303" && d.severity == Severity::Warning));
    }

    #[test]
    fn omega_mismatch_is_refused_with_the_verifier_findings() {
        // Program at the matrix's own ω = 4, then verify against an
        // engine configured for ω = 8: tree depth and line occupancy
        // would silently mis-count — AL302 refuses it.
        let mut acc4 = Alrescha::new(alrescha_sim::SimConfig::paper().with_omega(4));
        let coo = gen::banded(64, 2, 5);
        let prog = acc4.program(KernelType::SpMv, &coo).expect("program");
        let acc8 = Alrescha::with_paper_config();
        let err = acc8.preflight(&prog).expect_err("must refuse");
        assert!(err.diagnostics.iter().any(|d| d.code == "AL302"));
        assert!(err.to_string().contains("AL302"));
        // The refusal carries exactly what `verify_programmed` finds.
        let diags = verify_programmed(&prog, acc8.config());
        assert!(!is_launchable(&diags));
        assert_eq!(err.diagnostics, diags);
    }

    #[test]
    fn renderers_cover_both_shapes() {
        let d = Diagnostic::new(
            "AL001",
            Severity::Error,
            Location::Block { index: 3 },
            "a \"quoted\" message".to_string(),
        );
        assert_eq!(
            d.to_string(),
            "error[AL001]: a \"quoted\" message (at block 3)"
        );
        let json = render_json(std::slice::from_ref(&d));
        assert!(json.contains(r#""code":"AL001""#));
        assert!(json.contains(r#"\"quoted\""#));
        let text = render_text(&[d]);
        assert!(text.ends_with("1 diagnostics: 1 errors, 0 warnings, 0 notes\n"));
    }

    #[test]
    fn diagnostics_sort_most_severe_first() {
        let mut acc4 = Alrescha::new(alrescha_sim::SimConfig::paper().with_omega(4));
        let coo = gen::stencil27(3); // padded tail at ω=4 (27 % 4 != 0)
        let prog = acc4.program(KernelType::SymGs, &coo).expect("program");
        let diags = verify_programmed(&prog, &alrescha_sim::SimConfig::paper());
        assert!(!is_launchable(&diags), "ω mismatch must be present");
        let first_non_error = diags
            .iter()
            .position(|d| d.severity != Severity::Error)
            .unwrap_or(diags.len());
        assert!(diags[..first_non_error]
            .iter()
            .all(|d| d.severity == Severity::Error));
        assert!(diags[first_non_error..]
            .iter()
            .all(|d| d.severity != Severity::Error));
    }
}
