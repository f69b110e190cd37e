//! `alasm` — the textual ISA for ALRESCHA programs.
//!
//! The bit-packed program binary is compact but opaque: until this crate,
//! the only way to produce one was Algorithm-1 conversion, so engine
//! semantics were only ever exercised on converter-shaped schedules. alasm
//! gives the decoded program/config-table/ALF triple a stable textual
//! syntax (DESIGN.md §15):
//!
//! * [`disasm`] renders any converted program as a listing whose comments
//!   cross-reference the alobs device-timeline span names
//!   (`block 0,2 (Gemv)`, `reconfigure → DSymGs`), so a listing reads
//!   against a trace.
//! * [`parser`] + [`mod@assemble`] turn hand-written or generated text back
//!   into the bit-packed [`alrescha::ProgramBinary`] through the shared
//!   [`alrescha::EntryLayout`] tables — codec, lint, and asm consume one
//!   encoding source and cannot drift.
//! * [`interp`] is a straight-line reference interpreter over the same
//!   decoded triple, bit-identical to the cycle-accurate engine on
//!   fault-free runs — the oracle for the `alasm_differential` fuzz tier.
//! * [`genprog`] generates seeded, alverify-clean programs in text space,
//!   including schedules Algorithm 1 would never emit (reordered
//!   off-diagonal blocks, padding-heavy blocks, padded tails).
//!
//! Diagnostics carry line/column [`Span`]s but source their codes,
//! severities, and summaries from the single static
//! [`alrescha_lint::RULES`] catalog (the AL5xx band), so
//! `alverify --list-rules` remains the one rule inventory.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use alrescha_lint::Severity;

pub mod assemble;
pub mod container;
pub mod disasm;
pub mod genprog;
pub mod interp;
pub mod parser;
pub mod syntax;

pub use assemble::{assemble, assemble_text, AssembledProgram};
pub use disasm::disassemble;
pub use parser::parse;

/// A line/column span in an alasm listing (1-based, columns in bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column of the offending token.
    pub col: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One assembler/disassembler finding: an AL5xx rule instance anchored to
/// a source span. Severity always comes from the shared catalog via
/// [`AsmDiagnostic::of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmDiagnostic {
    /// Stable rule code (`AL501` … `AL505`).
    pub code: &'static str,
    /// Severity from the [`alrescha_lint::RULES`] catalog.
    pub severity: Severity,
    /// Where in the listing the finding anchors.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl AsmDiagnostic {
    /// Builds a finding whose severity comes from the shared catalog.
    pub fn of(code: &'static str, span: Span, message: String) -> Self {
        let severity = alrescha_lint::rule(code).map_or(Severity::Error, |r| r.severity);
        AsmDiagnostic {
            code,
            severity,
            span,
            message,
        }
    }

    /// Renders as a single JSON object with the line/column span.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"code":"{}","severity":"{}","line":{},"col":{},"message":"{}"}}"#,
            self.code,
            self.severity.label(),
            self.span.line,
            self.span.col,
            json_escape(&self.message)
        )
    }
}

impl fmt::Display for AsmDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} (at {})",
            self.severity.label(),
            self.code,
            self.message,
            self.span
        )
    }
}

/// Renders a diagnostic list as a JSON array.
pub fn render_json(diagnostics: &[AsmDiagnostic]) -> String {
    let items: Vec<String> = diagnostics.iter().map(AsmDiagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

fn json_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parse or assembly failure: every finding, sorted in source order.
/// The first diagnostic is the primary error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// All findings, at least one of error severity.
    pub diagnostics: Vec<AsmDiagnostic>,
}

impl AsmError {
    /// Wraps a single finding.
    pub fn single(diag: AsmDiagnostic) -> Self {
        AsmError {
            diagnostics: vec![diag],
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.diagnostics.as_slice() {
            [] => write!(f, "assembly failed"),
            [first, rest @ ..] => {
                write!(f, "{first}")?;
                for d in rest {
                    write!(f, "\n{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for AsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_source_severity_from_the_shared_catalog() {
        let d = AsmDiagnostic::of("AL501", Span { line: 3, col: 7 }, "bad token".to_string());
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(
            d.severity,
            alrescha_lint::rule("AL501").map(|r| r.severity).unwrap()
        );
        assert_eq!(d.to_string(), "error[AL501]: bad token (at 3:7)");
    }

    #[test]
    fn every_al5xx_code_is_in_the_catalog() {
        for code in ["AL501", "AL502", "AL503", "AL504", "AL505"] {
            assert!(
                alrescha_lint::rule(code).is_some(),
                "{code} missing from RULES"
            );
        }
    }

    #[test]
    fn json_rendering_carries_the_span() {
        let d = AsmDiagnostic::of(
            "AL502",
            Span { line: 12, col: 9 },
            "value \"9\" overflows".to_string(),
        );
        let json = render_json(std::slice::from_ref(&d));
        assert!(json.contains(r#""line":12"#));
        assert!(json.contains(r#""col":9"#));
        assert!(json.contains(r#"\"9\""#));
    }
}
