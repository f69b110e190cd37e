//! `alserve`: a crash-safe persistent solver service over the fleet.
//!
//! The batch runtime ([`alrescha::fleet`]) runs a vector of jobs and
//! returns; this crate promotes it into a **long-running daemon** that a
//! process death cannot hurt:
//!
//! * [`protocol`] — a small length-prefixed wire protocol in the house
//!   `ALCK` codec style (magic, versioned little-endian frames, CRC-32
//!   trailer) spoken over TCP or a unix socket;
//! * [`journal`] — a durable write-ahead job journal: a job is
//!   acknowledged only after its full specification is fsynced, so an
//!   accepted job survives any crash, and terminal records make recovery
//!   a pure set difference (accepted − completed − failed);
//! * [`quota`] — per-tenant admission quotas layered on the fleet's
//!   bounded queue, rejected in-band with a structured `retry_after`;
//! * [`server`] — the daemon: recovery replay at startup (resuming every
//!   pending solve from its newest atomic checkpoint, bit-identically in
//!   the solution fields), a shared circuit breaker that degrades new
//!   work to the CPU backend while the device is suspect (admitting
//!   exactly one half-open probe), and graceful drain;
//! * [`client`] — a reconnecting client with deadline, bounded retries,
//!   and deterministic equal-jitter backoff that honors `retry_after`;
//! * [`chaos`] — a seeded, frame-aware fault proxy for the ALSV
//!   transport (delay, drop, truncate, corrupt, disconnect), the
//!   network leg of the `alchaos` fault-injection layer.
//!
//! The crate is std-only: sockets, threads, and files come from the
//! standard library, matching the workspace's no-new-dependencies rule.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod client;
pub mod journal;
pub mod protocol;
pub mod quota;
pub mod server;
pub mod slo;

pub use chaos::{ChaosProxy, NetFaultCounters, NetFaultKind, NetFaultPlan};
pub use client::{Client, ClientError, JobStatus, RetryPolicy};
pub use journal::{Journal, JournalError, JournalRecord, JournalStats, Submission, TerminalKind};
pub use protocol::{Frame, JobPayload, ScrapeKind, SolveResult, TraceContext, WireError};
pub use quota::{QuotaDecision, QuotaTable};
pub use slo::{BurnWindow, SloTable};
pub use server::{Bind, Server, ServerConfig, ServerError, ServerHandle};
