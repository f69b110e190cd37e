//! Parser: alasm token stream → [`Listing`] AST.
//!
//! The grammar is line-oriented. A listing is a header of unique
//! directives followed by block statements:
//!
//! ```text
//! .alasm 1
//! .kernel symgs            ; spmv|symgs|bfs|sssp|pagerank|cc
//! .n 9                     ; rows [cols], cols defaults to rows
//! .omega 3
//! .layout symgs            ; symgs|streaming
//! .diag 4.0 4.0 ...        ; min(rows,cols) values, symgs layout only
//!
//! row0:                    ; optional label
//! .block 0 0 diag r2l      ; block_row block_col diag|offdiag l2r|r2l
//! .entry dsymgs in=0 out=1 order=r2l port=2
//! .row 4.0 0.0 1.0         ; exactly ω rows of ω values each
//! .row 0.0 4.0 0.0
//! .row 2.0 0.0 4.0
//! ```
//!
//! `in=`/`out=` are in **block** units (multiply by ω for the element
//! index the config table stores); `out=-` is Algorithm 1's `-1` (results
//! go to the link stack). The parser reports syntax-level findings
//! (AL501 unknown token, AL503 wrong arity, AL504 duplicates); the
//! cross-directive semantic checks live in [`mod@crate::assemble`].

use alrescha::convert::{AccessOrder, DataPath, KernelType, OperandPort};
use alrescha_sparse::{alf::AlfLayout, BlockKind};

use crate::syntax::{parse_value, tokenize, Token};
use crate::{AsmDiagnostic, AsmError, Span};

/// A parsed listing: the header plus block statements, order preserved.
#[derive(Debug, Clone, PartialEq)]
pub struct Listing {
    /// Format version from `.alasm` (currently always 1).
    pub version: u64,
    /// The kernel the program targets.
    pub kernel: KernelType,
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Block width ω.
    pub omega: usize,
    /// Storage layout.
    pub layout: AlfLayout,
    /// Extracted diagonal (`.diag`), empty for streaming layouts.
    pub diag: Vec<f64>,
    /// Span of the `.diag` directive (for arity diagnostics).
    pub diag_span: Option<Span>,
    /// Block statements in stream order.
    pub blocks: Vec<BlockStmt>,
}

/// One `.block` statement with its entry and payload rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStmt {
    /// Optional `name:` label preceding the block.
    pub label: Option<String>,
    /// Span of the `.block` directive.
    pub span: Span,
    /// Block-row index.
    pub block_row: usize,
    /// Block-column index.
    pub block_col: usize,
    /// Diagonal or off-diagonal.
    pub kind: BlockKind,
    /// Whether the streamed payload columns are reversed (`r2l`).
    pub reversed: bool,
    /// The config-table entry for this block.
    pub entry: EntryStmt,
    /// ω streamed payload rows of ω values each.
    pub payload_rows: Vec<Vec<f64>>,
}

/// One `.entry` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryStmt {
    /// Span of the `.entry` directive.
    pub span: Span,
    /// Spans of the `in=`/`out=` field tokens, for overflow diagnostics.
    pub in_span: Span,
    /// Span of the `out=` token (or of `.entry` when defaulted).
    pub out_span: Span,
    /// Data-path mnemonic.
    pub data_path: DataPath,
    /// Input vector chunk, in block units.
    pub in_block: usize,
    /// Output vector chunk in block units; `None` renders as `out=-`.
    pub out_block: Option<usize>,
    /// In-block access order.
    pub order: AccessOrder,
    /// Operand source port.
    pub port: OperandPort,
}

/// Parses a listing. On failure returns every finding collected, sorted in
/// source order, with at least one error-severity diagnostic.
///
/// # Errors
///
/// [`AsmError`] carrying AL501/AL503/AL504 findings with line/column spans.
pub fn parse(source: &str) -> Result<Listing, AsmError> {
    Parser::new(source).run()
}

/// Header directive slot that may be set at most once (AL504 on repeats).
#[derive(Debug)]
struct Slot<T> {
    name: &'static str,
    value: Option<(T, Span)>,
}

impl<T> Slot<T> {
    fn new(name: &'static str) -> Self {
        Slot { name, value: None }
    }

    fn set(&mut self, value: T, span: Span, diags: &mut Vec<AsmDiagnostic>) {
        if self.value.is_some() {
            diags.push(AsmDiagnostic::of(
                "AL504",
                span,
                format!("duplicate `{}` directive", self.name),
            ));
        } else {
            self.value = Some((value, span));
        }
    }
}

struct Parser {
    lines: Vec<Vec<Token>>,
    diags: Vec<AsmDiagnostic>,
}

/// Partially parsed block, awaiting its `.entry` and `.row`s.
struct OpenBlock {
    label: Option<String>,
    span: Span,
    block_row: usize,
    block_col: usize,
    kind: BlockKind,
    reversed: bool,
    entry: Option<EntryStmt>,
    payload_rows: Vec<Vec<f64>>,
    /// Diagnostic count when the block opened — a missing `.entry` is
    /// only reported if nothing else went wrong inside the block (the
    /// root cause, e.g. a bad mnemonic, already has a finding).
    diags_at_open: usize,
}

impl Parser {
    fn new(source: &str) -> Self {
        let mut lines: Vec<Vec<Token>> = Vec::new();
        for tok in tokenize(source) {
            match lines.last_mut() {
                Some(line) if line[0].span.line == tok.span.line => line.push(tok),
                _ => lines.push(vec![tok]),
            }
        }
        Parser {
            lines,
            diags: Vec::new(),
        }
    }

    fn error(&mut self, code: &'static str, span: Span, message: String) {
        self.diags.push(AsmDiagnostic::of(code, span, message));
    }

    #[allow(clippy::too_many_lines)]
    fn run(mut self) -> Result<Listing, AsmError> {
        let mut version: Slot<u64> = Slot::new(".alasm");
        let mut kernel: Slot<KernelType> = Slot::new(".kernel");
        let mut dims: Slot<(usize, usize)> = Slot::new(".n");
        let mut omega: Slot<usize> = Slot::new(".omega");
        let mut layout: Slot<AlfLayout> = Slot::new(".layout");
        let mut diag: Slot<Vec<f64>> = Slot::new(".diag");
        let mut labels_seen: Vec<String> = Vec::new();
        let mut pending_label: Option<(String, Span)> = None;
        let mut open: Option<OpenBlock> = None;
        let mut blocks: Vec<BlockStmt> = Vec::new();

        let lines = std::mem::take(&mut self.lines);
        for line in &lines {
            let head = &line[0];
            let rest = &line[1..];
            match head.text.as_str() {
                ".alasm" => {
                    if let Some(v) = self.one_int(head, rest, "format version") {
                        version.set(v, head.span, &mut self.diags);
                    }
                }
                ".kernel" => {
                    if let Some(k) = self.one_word(head, rest).and_then(|t| {
                        let k = parse_kernel(&t.text);
                        if k.is_none() {
                            self.error(
                                "AL501",
                                t.span,
                                format!("unknown kernel mnemonic `{}`", t.text),
                            );
                        }
                        k
                    }) {
                        kernel.set(k, head.span, &mut self.diags);
                    }
                }
                ".n" => {
                    if let Some(d) = self.parse_dims(head, rest) {
                        dims.set(d, head.span, &mut self.diags);
                    }
                }
                ".omega" => {
                    if let Some(w) = self.one_int(head, rest, "block width") {
                        omega.set(usize::try_from(w).unwrap_or(usize::MAX), head.span, &mut self.diags);
                    }
                }
                ".layout" => {
                    if let Some(l) = self.one_word(head, rest).and_then(|t| match t.text.as_str() {
                        "symgs" => Some(AlfLayout::SymGs),
                        "streaming" => Some(AlfLayout::Streaming),
                        other => {
                            self.error("AL501", t.span, format!("unknown layout `{other}`"));
                            None
                        }
                    }) {
                        layout.set(l, head.span, &mut self.diags);
                    }
                }
                ".diag" => {
                    if let Some(values) = self.parse_values(head, rest) {
                        diag.set(values, head.span, &mut self.diags);
                    }
                }
                ".block" => {
                    self.close_block(&mut open, &mut blocks, None);
                    open = self.parse_block(head, rest, pending_label.take());
                }
                ".entry" => match open.as_mut() {
                    None => self.error(
                        "AL503",
                        head.span,
                        "`.entry` outside a `.block` statement".to_string(),
                    ),
                    Some(b) if b.entry.is_some() => self.error(
                        "AL503",
                        head.span,
                        "block already has an `.entry`".to_string(),
                    ),
                    Some(_) => {
                        let entry = self.parse_entry(head, rest);
                        if let (Some(b), Some(e)) = (open.as_mut(), entry) {
                            b.entry = Some(e);
                        }
                    }
                },
                ".row" => {
                    if open.is_none() {
                        self.error(
                            "AL503",
                            head.span,
                            "`.row` outside a `.block` statement".to_string(),
                        );
                    } else if let Some(values) = self.parse_values(head, rest) {
                        if let Some(b) = open.as_mut() {
                            b.payload_rows.push(values);
                        }
                    }
                }
                word if word.ends_with(':') && word.len() > 1 && rest.is_empty() => {
                    let name = word.trim_end_matches(':').to_string();
                    if labels_seen.contains(&name) {
                        self.error("AL504", head.span, format!("duplicate label `{name}:`"));
                    } else {
                        labels_seen.push(name.clone());
                        pending_label = Some((name, head.span));
                    }
                }
                other => {
                    let kind = if other.starts_with('.') {
                        "directive"
                    } else {
                        "mnemonic"
                    };
                    self.error("AL501", head.span, format!("unknown {kind} `{other}`"));
                }
            }
        }
        self.close_block(&mut open, &mut blocks, None);
        if let Some((name, span)) = pending_label {
            self.error(
                "AL503",
                span,
                format!("label `{name}:` is not followed by a `.block`"),
            );
        }

        // Required header directives.
        let version = self.require(version, Span { line: 1, col: 1 });
        if let Some(v) = version {
            if v != 1 {
                self.error(
                    "AL501",
                    Span { line: 1, col: 1 },
                    format!("unsupported alasm format version {v} (expected 1)"),
                );
            }
        }
        let kernel = self.require(kernel, Span { line: 1, col: 1 });
        let dims = self.require(dims, Span { line: 1, col: 1 });
        let omega_v = self.require(omega, Span { line: 1, col: 1 });
        let layout = self.require(layout, Span { line: 1, col: 1 });
        let (diag, diag_span) = match diag.value {
            Some((v, s)) => (v, Some(s)),
            None => (Vec::new(), None),
        };

        if self
            .diags
            .iter()
            .any(|d| d.severity == alrescha_lint::Severity::Error)
        {
            let mut diags = self.diags;
            diags.sort_by_key(|d| (d.span.line, d.span.col));
            return Err(AsmError { diagnostics: diags });
        }
        // `require` pushed an error for any None, so these are all Some here.
        match (version, kernel, dims, omega_v, layout) {
            (Some(version), Some(kernel), Some((rows, cols)), Some(omega), Some(layout)) => {
                Ok(Listing {
                    version,
                    kernel,
                    rows,
                    cols,
                    omega,
                    layout,
                    diag,
                    diag_span,
                    blocks,
                })
            }
            _ => Err(AsmError::single(AsmDiagnostic::of(
                "AL503",
                Span { line: 1, col: 1 },
                "listing is missing required header directives".to_string(),
            ))),
        }
    }

    fn require<T>(&mut self, slot: Slot<T>, at: Span) -> Option<T> {
        if let Some((v, _)) = slot.value { Some(v) } else {
            self.error(
                "AL503",
                at,
                format!("missing required `{}` directive", slot.name),
            );
            None
        }
    }

    fn close_block(
        &mut self,
        open: &mut Option<OpenBlock>,
        blocks: &mut Vec<BlockStmt>,
        _at: Option<Span>,
    ) {
        let Some(b) = open.take() else { return };
        let Some(entry) = b.entry else {
            if self.diags.len() == b.diags_at_open {
                self.error(
                    "AL503",
                    b.span,
                    format!(
                        "block {},{} has no `.entry` statement",
                        b.block_row, b.block_col
                    ),
                );
            }
            return;
        };
        blocks.push(BlockStmt {
            label: b.label,
            span: b.span,
            block_row: b.block_row,
            block_col: b.block_col,
            kind: b.kind,
            reversed: b.reversed,
            entry,
            payload_rows: b.payload_rows,
        });
    }

    /// `.block R C diag|offdiag l2r|r2l`
    fn parse_block(
        &mut self,
        head: &Token,
        rest: &[Token],
        label: Option<(String, Span)>,
    ) -> Option<OpenBlock> {
        if rest.len() != 4 {
            self.error(
                "AL503",
                head.span,
                format!(
                    "`.block` takes 4 operands (row col diag|offdiag l2r|r2l), found {}",
                    rest.len()
                ),
            );
            return None;
        }
        let block_row = self.int_token(&rest[0], "block row")?;
        let block_col = self.int_token(&rest[1], "block column")?;
        let kind = match rest[2].text.as_str() {
            "diag" => BlockKind::Diagonal,
            "offdiag" => BlockKind::OffDiagonal,
            other => {
                self.error(
                    "AL501",
                    rest[2].span,
                    format!("unknown block kind `{other}` (expected diag|offdiag)"),
                );
                return None;
            }
        };
        let reversed = match rest[3].text.as_str() {
            "l2r" => false,
            "r2l" => true,
            other => {
                self.error(
                    "AL501",
                    rest[3].span,
                    format!("unknown stream order `{other}` (expected l2r|r2l)"),
                );
                return None;
            }
        };
        Some(OpenBlock {
            label: label.map(|(n, _)| n),
            span: head.span,
            block_row,
            block_col,
            kind,
            reversed,
            entry: None,
            payload_rows: Vec::new(),
            diags_at_open: self.diags.len(),
        })
    }

    /// `.entry PATH in=N out=N|- order=l2r|r2l port=1|2`
    fn parse_entry(&mut self, head: &Token, rest: &[Token]) -> Option<EntryStmt> {
        let Some((path_tok, fields)) = rest.split_first() else {
            self.error(
                "AL503",
                head.span,
                "`.entry` is missing its data-path mnemonic".to_string(),
            );
            return None;
        };
        let data_path = match path_tok.text.as_str() {
            "gemv" => DataPath::Gemv,
            "dsymgs" => DataPath::DSymGs,
            "dbfs" => DataPath::DBfs,
            "dsssp" => DataPath::DSssp,
            "dpr" => DataPath::DPr,
            other => {
                self.error(
                    "AL501",
                    path_tok.span,
                    format!("unknown data-path mnemonic `{other}`"),
                );
                return None;
            }
        };
        let mut in_field: Option<(usize, Span)> = None;
        let mut out_field: Option<(Option<usize>, Span)> = None;
        let mut order: Option<AccessOrder> = None;
        let mut port: Option<OperandPort> = None;
        for tok in fields {
            let Some((key, value)) = tok.text.split_once('=') else {
                self.error(
                    "AL501",
                    tok.span,
                    format!("malformed `.entry` field `{}` (expected key=value)", tok.text),
                );
                return None;
            };
            match key {
                "in" => {
                    let v = self.int_str(value, tok.span, "in")?;
                    self.once(&mut in_field, (v, tok.span), "in", tok.span)?;
                }
                "out" => {
                    let v = if value == "-" {
                        None
                    } else {
                        Some(self.int_str(value, tok.span, "out")?)
                    };
                    self.once(&mut out_field, (v, tok.span), "out", tok.span)?;
                }
                "order" => {
                    let v = match value {
                        "l2r" => AccessOrder::L2R,
                        "r2l" => AccessOrder::R2L,
                        other => {
                            self.error(
                                "AL501",
                                tok.span,
                                format!("unknown access order `{other}` (expected l2r|r2l)"),
                            );
                            return None;
                        }
                    };
                    self.once(&mut order, v, "order", tok.span)?;
                }
                "port" => {
                    let v = match value {
                        "1" => OperandPort::Port1,
                        "2" => OperandPort::Port2,
                        other => {
                            self.error(
                                "AL501",
                                tok.span,
                                format!("unknown operand port `{other}` (expected 1|2)"),
                            );
                            return None;
                        }
                    };
                    self.once(&mut port, v, "port", tok.span)?;
                }
                other => {
                    self.error(
                        "AL501",
                        tok.span,
                        format!("unknown `.entry` field `{other}`"),
                    );
                    return None;
                }
            }
        }
        let missing: Vec<&str> = [
            ("in", in_field.is_none()),
            ("out", out_field.is_none()),
            ("order", order.is_none()),
            ("port", port.is_none()),
        ]
        .iter()
        .filter_map(|&(name, absent)| absent.then_some(name))
        .collect();
        if !missing.is_empty() {
            self.error(
                "AL503",
                head.span,
                format!("`.entry` is missing field(s): {}", missing.join(", ")),
            );
            return None;
        }
        let (in_block, in_span) = in_field?;
        let (out_block, out_span) = out_field?;
        Some(EntryStmt {
            span: head.span,
            in_span,
            out_span,
            data_path,
            in_block,
            out_block,
            order: order?,
            port: port?,
        })
    }

    /// Rejects a repeated `.entry` field.
    fn once<T>(&mut self, slot: &mut Option<T>, value: T, name: &str, span: Span) -> Option<()> {
        if slot.is_some() {
            self.error("AL503", span, format!("repeated `.entry` field `{name}`"));
            return None;
        }
        *slot = Some(value);
        Some(())
    }

    fn one_word<'t>(&mut self, head: &Token, rest: &'t [Token]) -> Option<&'t Token> {
        if rest.len() == 1 {
            Some(&rest[0])
        } else {
            self.error(
                "AL503",
                head.span,
                format!("`{}` takes exactly one operand", head.text),
            );
            None
        }
    }

    fn one_int(&mut self, head: &Token, rest: &[Token], what: &str) -> Option<u64> {
        let tok = self.one_word(head, rest)?;
        if let Ok(v) = tok.text.parse::<u64>() { Some(v) } else {
            self.error(
                "AL501",
                tok.span,
                format!("malformed {what} `{}` (expected an integer)", tok.text),
            );
            None
        }
    }

    fn int_token(&mut self, tok: &Token, what: &str) -> Option<usize> {
        self.int_str(&tok.text, tok.span, what)
    }

    fn int_str(&mut self, text: &str, span: Span, what: &str) -> Option<usize> {
        if let Ok(v) = text.parse::<usize>() { Some(v) } else {
            self.error(
                "AL501",
                span,
                format!("malformed {what} value `{text}` (expected an integer)"),
            );
            None
        }
    }

    /// `.n ROWS [COLS]` — COLS defaults to ROWS.
    fn parse_dims(&mut self, head: &Token, rest: &[Token]) -> Option<(usize, usize)> {
        match rest {
            [r] => {
                let rows = self.int_token(r, "matrix dimension")?;
                Some((rows, rows))
            }
            [r, c] => {
                let rows = self.int_token(r, "matrix rows")?;
                let cols = self.int_token(c, "matrix columns")?;
                Some((rows, cols))
            }
            _ => {
                self.error(
                    "AL503",
                    head.span,
                    "`.n` takes one or two operands (rows [cols])".to_string(),
                );
                None
            }
        }
    }

    /// Parses the float operands of `.diag` / `.row`.
    fn parse_values(&mut self, head: &Token, rest: &[Token]) -> Option<Vec<f64>> {
        if rest.is_empty() {
            self.error(
                "AL503",
                head.span,
                format!("`{}` has no values", head.text),
            );
            return None;
        }
        let mut out = Vec::with_capacity(rest.len());
        for tok in rest {
            if let Some(v) = parse_value(&tok.text) { out.push(v) } else {
                self.error(
                    "AL501",
                    tok.span,
                    format!("malformed value `{}`", tok.text),
                );
                return None;
            }
        }
        Some(out)
    }
}

fn parse_kernel(text: &str) -> Option<KernelType> {
    Some(match text {
        "spmv" => KernelType::SpMv,
        "symgs" => KernelType::SymGs,
        "bfs" => KernelType::Bfs,
        "sssp" => KernelType::Sssp,
        "pagerank" => KernelType::PageRank,
        "cc" => KernelType::ConnectedComponents,
        _ => return None,
    })
}

/// The canonical mnemonic for a kernel (inverse of the `.kernel` parser).
pub fn kernel_mnemonic(kernel: KernelType) -> &'static str {
    match kernel {
        KernelType::SpMv => "spmv",
        KernelType::SymGs => "symgs",
        KernelType::Bfs => "bfs",
        KernelType::Sssp => "sssp",
        KernelType::PageRank => "pagerank",
        KernelType::ConnectedComponents => "cc",
    }
}

/// The canonical mnemonic for a data path (inverse of the `.entry` parser).
pub fn data_path_mnemonic(path: DataPath) -> &'static str {
    match path {
        DataPath::Gemv => "gemv",
        DataPath::DSymGs => "dsymgs",
        DataPath::DBfs => "dbfs",
        DataPath::DSssp => "dsssp",
        DataPath::DPr => "dpr",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
.alasm 1
.kernel spmv
.n 4
.omega 2
.layout streaming

b0:
.block 0 1 offdiag l2r
.entry gemv in=0 out=1 order=l2r port=1
.row 1.0 0.0
.row 2.5 3.0
";

    #[test]
    fn parses_a_minimal_listing() {
        let listing = parse(MINIMAL).unwrap();
        assert_eq!(listing.kernel, KernelType::SpMv);
        assert_eq!((listing.rows, listing.cols), (4, 4));
        assert_eq!(listing.omega, 2);
        assert_eq!(listing.blocks.len(), 1);
        let b = &listing.blocks[0];
        assert_eq!(b.label.as_deref(), Some("b0"));
        assert_eq!((b.block_row, b.block_col), (0, 1));
        assert_eq!(b.kind, BlockKind::OffDiagonal);
        assert!(!b.reversed);
        assert_eq!(b.entry.data_path, DataPath::Gemv);
        assert_eq!(b.entry.in_block, 0);
        assert_eq!(b.entry.out_block, Some(1));
        assert_eq!(b.payload_rows, vec![vec![1.0, 0.0], vec![2.5, 3.0]]);
    }

    #[test]
    fn unknown_mnemonic_is_al501_with_span() {
        let bad = MINIMAL.replace(".entry gemv", ".entry gemvv");
        let err = parse(&bad).unwrap_err();
        let d = &err.diagnostics[0];
        assert_eq!(d.code, "AL501");
        assert_eq!(d.span, Span { line: 9, col: 8 });
    }

    #[test]
    fn duplicate_directive_is_al504() {
        let bad = MINIMAL.replace(".omega 2", ".omega 2\n.omega 2");
        let err = parse(&bad).unwrap_err();
        assert!(err.diagnostics.iter().any(|d| d.code == "AL504"));
    }

    #[test]
    fn missing_header_directive_is_al503() {
        let bad = MINIMAL.replace(".kernel spmv\n", "");
        let err = parse(&bad).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.code == "AL503" && d.message.contains(".kernel")));
    }

    #[test]
    fn kernel_and_path_mnemonics_round_trip() {
        for k in [
            KernelType::SpMv,
            KernelType::SymGs,
            KernelType::Bfs,
            KernelType::Sssp,
            KernelType::PageRank,
            KernelType::ConnectedComponents,
        ] {
            assert_eq!(parse_kernel(kernel_mnemonic(k)), Some(k));
        }
    }
}
