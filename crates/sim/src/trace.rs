//! Execution tracing: an optional event log of what the engine did, in
//! order.
//!
//! Enable with [`crate::engine::Engine::enable_tracing`]; retrieve with
//! [`crate::engine::Engine::take_trace`]. The trace is the ground truth for
//! ordering invariants (all GEMVs of a block row precede its D-SymGS;
//! reconfigurations happen exactly at data-path boundaries) and a
//! debugging aid for new data paths.

use crate::fault::FaultSite;
use crate::rcu::DataPathKind;

/// One logged engine event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A kernel run started.
    KernelBegin {
        /// Kernel name.
        kernel: &'static str,
    },
    /// The RCU switch was rewired.
    Reconfigure {
        /// New data-path personality.
        to: DataPathKind,
        /// Stall cycles not hidden by the drain (0 under Table 5).
        exposed: u64,
    },
    /// A locally-dense block began executing.
    BlockBegin {
        /// Block-row coordinate.
        block_row: usize,
        /// Block-column coordinate.
        block_col: usize,
        /// Data path executing it.
        kind: DataPathKind,
    },
    /// A locally-dense block finished executing. Pairs with the closest
    /// preceding [`TraceEvent::BlockBegin`]; carries the cycles charged to
    /// the block (memory stream + compute, excluding recovery redo).
    BlockEnd {
        /// Cycles the block cost.
        cycles: u64,
    },
    /// The fault injector fired and the ABFT check (or a structural guard)
    /// caught it — emitted at the detection point, before any retry.
    FaultInjected {
        /// Hardware site the fault hit.
        site: FaultSite,
    },
    /// A recovery sequence (checksum-triggered retry loop) started.
    RecoveryBegin {
        /// Site whose fault triggered the recovery.
        site: FaultSite,
    },
    /// The recovery sequence finished.
    RecoveryEnd {
        /// Whether the retry converged to a clean result (`false` means
        /// the error escalated — fail-fast or degrade-to-CPU).
        recovered: bool,
        /// Redo cycles charged to recovery while it ran.
        cycles: u64,
    },
    /// A solver checkpoint was serialized while the engine was programmed —
    /// recorded between kernel runs by the host solver loop.
    CheckpointWrite {
        /// Encoded checkpoint size.
        bytes: u64,
    },
    /// A kernel run finished.
    KernelEnd {
        /// Total cycles of the run.
        cycles: u64,
    },
}

/// An event log. Wraps a `Vec` so the engine can cheaply no-op when
/// tracing is disabled.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// Creates a disabled trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Enables recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    pub fn record(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Records `events` in order (no-op when disabled).
    pub fn extend(&mut self, events: &[TraceEvent]) {
        if self.enabled {
            self.events.extend_from_slice(events);
        }
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Takes the events, leaving the trace empty but still enabled.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drops every event at index `len` and beyond — used by the telemetry
    /// capture to consume exactly one run's worth of events.
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }
}

/// Reconstructs cycle positions for one run's trace events by a cumulative
/// walk: [`TraceEvent::BlockEnd`], [`TraceEvent::RecoveryEnd`], and the
/// exposed portion of [`TraceEvent::Reconfigure`] advance the cycle cursor
/// (matching how the engine charges them), everything else is a point at
/// the current cursor. The result feeds [`alrescha_obs::DeviceTimeline`],
/// whose exporter scales cycle positions into the run's host-time window.
pub fn to_device_events(events: &[TraceEvent]) -> Vec<alrescha_obs::DeviceEvent> {
    use alrescha_obs::{ArgValue, DeviceEvent};
    let mut out = Vec::new();
    let mut cum = 0u64;
    let mut open_block: Option<(String, u64)> = None;
    let mut open_recovery: Option<(FaultSite, u64)> = None;
    for event in events {
        match *event {
            TraceEvent::KernelBegin { .. } | TraceEvent::KernelEnd { .. } => {}
            TraceEvent::Reconfigure { to, exposed } => {
                out.push(DeviceEvent::Point {
                    name: format!("reconfigure \u{2192} {to:?}"),
                    cycle: cum,
                    args: vec![("exposed_cycles".to_owned(), ArgValue::Int(exposed))],
                });
                cum += exposed;
            }
            TraceEvent::BlockBegin {
                block_row,
                block_col,
                kind,
            } => {
                open_block = Some((format!("block {block_row},{block_col} ({kind:?})"), cum));
            }
            TraceEvent::BlockEnd { cycles } => {
                let (name, start) = open_block
                    .take()
                    .unwrap_or_else(|| ("block".to_owned(), cum));
                cum += cycles;
                out.push(DeviceEvent::Span {
                    name,
                    start_cycle: start,
                    end_cycle: cum,
                    args: vec![("cycles".to_owned(), ArgValue::Int(cycles))],
                });
            }
            TraceEvent::FaultInjected { site } => {
                out.push(DeviceEvent::Point {
                    name: format!("fault: {site}"),
                    cycle: cum,
                    args: Vec::new(),
                });
            }
            TraceEvent::RecoveryBegin { site } => {
                open_recovery = Some((site, cum));
            }
            TraceEvent::RecoveryEnd { recovered, cycles } => {
                let (site, start) = open_recovery.take().unwrap_or((FaultSite::Memory, cum));
                cum += cycles;
                out.push(DeviceEvent::Span {
                    name: format!("recovery: {site}"),
                    start_cycle: start,
                    end_cycle: cum,
                    args: vec![(
                        "recovered".to_owned(),
                        ArgValue::Text(if recovered { "yes" } else { "no" }.to_owned()),
                    )],
                });
            }
            TraceEvent::CheckpointWrite { bytes } => {
                out.push(DeviceEvent::Point {
                    name: "checkpoint write".to_owned(),
                    cycle: cum,
                    args: vec![("bytes".to_owned(), ArgValue::Int(bytes))],
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(TraceEvent::KernelBegin { kernel: "spmv" });
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::new();
        t.enable();
        t.record(TraceEvent::KernelBegin { kernel: "spmv" });
        t.record(TraceEvent::KernelEnd { cycles: 10 });
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0], TraceEvent::KernelBegin { kernel: "spmv" });
    }

    #[test]
    fn runtime_events_record_and_truncate() {
        let mut t = Trace::new();
        t.enable();
        t.record(TraceEvent::FaultInjected {
            site: FaultSite::FcuLane,
        });
        t.record(TraceEvent::RecoveryBegin {
            site: FaultSite::FcuLane,
        });
        t.record(TraceEvent::RecoveryEnd {
            recovered: true,
            cycles: 12,
        });
        t.record(TraceEvent::CheckpointWrite { bytes: 256 });
        t.record(TraceEvent::BlockEnd { cycles: 9 });
        assert_eq!(t.events().len(), 5);
        t.truncate(2);
        assert_eq!(
            t.events(),
            [
                TraceEvent::FaultInjected {
                    site: FaultSite::FcuLane
                },
                TraceEvent::RecoveryBegin {
                    site: FaultSite::FcuLane
                },
            ]
        );
        assert!(t.is_enabled());
    }

    #[test]
    fn take_drains_but_stays_enabled() {
        let mut t = Trace::new();
        t.enable();
        t.record(TraceEvent::KernelEnd { cycles: 1 });
        let events = t.take();
        assert_eq!(events.len(), 1);
        assert!(t.events().is_empty());
        assert!(t.is_enabled());
    }
}
