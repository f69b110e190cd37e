//! The timing memo: the device timing of a fault-free SpMV or SOR sweep,
//! remembered so that a repeated call runs only its value walk.
//!
//! ALRESCHA fixes its schedule when the program is made: the locally-dense
//! format carries no runtime metadata, so a fault-free GEMV or D-SymGS
//! call's cycles, stream, cache traffic and reconfigurations depend only on
//! the program's block structure, the call (kernel, sweep direction,
//! relaxation factor), the RCU data path wired when it starts, and the
//! engine's configuration, never on the vector operands. Each cache run
//! starts from a flushed cache, so the cache contents at entry do not
//! count either.
//!
//! An entry's key is a bit-for-bit copy of that structure, compared in full
//! on every lookup: no hash stands in for it. The memo holds at most
//! [`ENTRIES`] timings and replaces the oldest first. It belongs to one
//! engine, whose configuration never changes, and holds only deterministic
//! facts, so it survives [`crate::Engine::reset`].

use std::sync::Arc;

use alrescha_sparse::{alf::AlfLayout, Alf, BlockKind};

use crate::engine::BlockRows;
use crate::rcu::DataPathKind;
use crate::report::ExecutionReport;
use crate::trace::TraceEvent;

/// Timings the memo holds. A SymGS-preconditioned PCG solve keys four (its
/// SpMV, and its forward sweep from two entry paths and its backward
/// sweep from one); a call list of SpMV, SymGS and PageRank on two
/// matrices keys seven.
pub(crate) const ENTRIES: usize = 8;

/// The memoisable calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Call {
    /// A streaming SpMV.
    Spmv,
    /// One SOR/SymGS sweep at relaxation `f64::from_bits(relax_bits)`.
    Sweep {
        /// Block rows and in-block rows in descending order.
        backward: bool,
        /// The relaxation factor's bits.
        relax_bits: u64,
    },
}

/// The part of a matrix the timing walk reads, copied bit for bit.
#[derive(Debug, PartialEq)]
struct Structure {
    rows: usize,
    cols: usize,
    omega: usize,
    layout: AlfLayout,
    diagonal: usize,
    block_row: Vec<usize>,
    block_col: Vec<usize>,
    kind: Vec<BlockKind>,
}

impl Structure {
    fn of(a: &Alf) -> Self {
        Structure {
            rows: a.rows(),
            cols: a.cols(),
            omega: a.omega(),
            layout: a.layout(),
            diagonal: a.diagonal().len(),
            block_row: a.block_row_headers().to_vec(),
            block_col: a.block_col_headers().to_vec(),
            kind: a.block_kind_headers().to_vec(),
        }
    }

    fn matches(&self, a: &Alf) -> bool {
        self.rows == a.rows()
            && self.cols == a.cols()
            && self.omega == a.omega()
            && self.layout == a.layout()
            && self.diagonal == a.diagonal().len()
            && self.block_row == a.block_row_headers()
            && self.block_col == a.block_col_headers()
            && self.kind == a.block_kind_headers()
    }
}

/// What a memoised timing is keyed by.
#[derive(Debug, PartialEq)]
pub(crate) struct Key {
    call: Call,
    /// The RCU data path wired when the call started.
    entry_path: Option<DataPathKind>,
    structure: Structure,
}

impl Key {
    /// The key of `call` on `a` from `entry_path`.
    pub fn of(call: Call, entry_path: Option<DataPathKind>, a: &Alf) -> Self {
        Key {
            call,
            entry_path,
            structure: Structure::of(a),
        }
    }

    /// The call the timing is of.
    pub fn call(&self) -> Call {
        self.call
    }
}

/// One call's device timing.
#[derive(Debug)]
pub(crate) struct Timing {
    /// What the timing is of.
    pub key: Key,
    /// The call's report.
    pub report: ExecutionReport,
    /// The RCU data path wired when the call finished.
    pub exit_path: Option<DataPathKind>,
    /// The call's trace events, `KernelBegin` to `KernelEnd`, when it ran
    /// with tracing on.
    pub events: Option<Vec<TraceEvent>>,
    /// A sweep's block-row index, made by the full walk that recorded the
    /// timing, so a hit's value walk need not sort the block headers
    /// again; empty for an SpMV, whose walk reads none.
    pub block_rows: Arc<BlockRows>,
}

/// The memo proper.
#[derive(Debug, Default)]
pub(crate) struct TimingMemo {
    entries: Vec<Timing>,
    /// The entry the next new timing replaces once the memo is full.
    oldest: usize,
}

impl TimingMemo {
    /// The slot of the timing of `call` on `a` from `entry_path`; with
    /// `traced`, only of one that holds its trace events.
    pub fn find(
        &self,
        call: Call,
        entry_path: Option<DataPathKind>,
        a: &Alf,
        traced: bool,
    ) -> Option<usize> {
        self.entries.iter().position(|t| {
            t.key.call == call
                && t.key.entry_path == entry_path
                && (t.events.is_some() || !traced)
                && t.key.structure.matches(a)
        })
    }

    /// The timing in `slot`, as [`TimingMemo::find`] returned it.
    pub fn get(&self, slot: usize) -> &Timing {
        &self.entries[slot]
    }

    /// Remembers a timing: in place of the same key's (one recorded
    /// without trace events, which a traced call cannot replay), else in a
    /// free entry, else over the oldest.
    pub fn insert(&mut self, timing: Timing) {
        if let Some(k) = self.entries.iter().position(|t| t.key == timing.key) {
            self.entries[k] = timing;
        } else if self.entries.len() < ENTRIES {
            self.entries.push(timing);
        } else {
            self.entries[self.oldest] = timing;
            self.oldest = (self.oldest + 1) % ENTRIES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::gen;

    fn timing(call: Call, a: &Alf, cycles: u64) -> Timing {
        let s = Alf::from_coo(&gen::stencil27(2), 8, AlfLayout::Streaming).unwrap();
        let mut engine = crate::Engine::new(crate::SimConfig::paper());
        let (_, mut report) = engine.run_spmv(&s, &vec![1.0; s.cols()]).unwrap();
        report.cycles = cycles;
        Timing {
            key: Key::of(call, None, a),
            report,
            exit_path: None,
            events: None,
            block_rows: Arc::default(),
        }
    }

    #[test]
    fn structure_is_compared_in_full() {
        let a = Alf::from_coo(&gen::stencil27(3), 8, AlfLayout::Streaming).unwrap();
        let mut moved = a.clone();
        moved.swap_blocks_unchecked(0, 1);
        let wider = Alf::from_coo(&gen::stencil27(3), 4, AlfLayout::Streaming).unwrap();
        let s = Structure::of(&a);
        assert!(s.matches(&a));
        assert!(!s.matches(&moved), "block order is structure");
        assert!(!s.matches(&wider));
    }

    #[test]
    fn oldest_entry_goes_first_and_a_traced_timing_replaces_its_key() {
        let mut memo = TimingMemo::default();
        let a = Alf::from_coo(&gen::stencil27(2), 8, AlfLayout::SymGs).unwrap();
        let sweep = |k: usize| Call::Sweep {
            backward: false,
            relax_bits: (1.0 + k as f64 / 16.0).to_bits(),
        };
        for k in 0..ENTRIES {
            memo.insert(timing(sweep(k), &a, k as u64));
        }
        memo.insert(timing(sweep(ENTRIES), &a, 99));
        assert_eq!(memo.entries.len(), ENTRIES);
        assert!(memo.find(sweep(0), None, &a, false).is_none());
        assert!(memo.find(sweep(1), None, &a, false).is_some());
        assert_eq!(
            memo.find(sweep(ENTRIES), None, &a, false)
                .map(|k| memo.get(k).report.cycles),
            Some(99)
        );
        assert!(
            memo.find(sweep(1), None, &a, true).is_none(),
            "a traced call needs the entry's events"
        );
        let mut traced = timing(sweep(1), &a, 1);
        traced.events = Some(Vec::new());
        memo.insert(traced);
        assert_eq!(memo.entries.len(), ENTRIES);
        assert!(memo.find(sweep(1), None, &a, true).is_some());
        assert!(
            memo.find(sweep(2), None, &a, false).is_some(),
            "the replaced key evicts nothing"
        );
    }
}
