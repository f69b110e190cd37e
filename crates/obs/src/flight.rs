//! Flight recorder: a fixed-size, allocation-free ring of structured
//! events, dumped atomically to a CRC-guarded `.alfr` file.
//!
//! The serving stack records every decision that matters for a
//! post-mortem — admission outcomes, AL4xx rejections, breaker
//! transitions, injected faults, journal and compaction operations — into
//! a preallocated ring, serialized to `<data-dir>/alserve.alfr` via
//! write-temp-then-rename. In `alserve` one durability writer thread makes
//! every dump: each `Accepted` ack, solve fault, drain, shutdown and start
//! waits for a dump holding its events, and a job's terminal edge requests
//! one without waiting; the panic hook adds a last-gasp dump. So even a
//! SIGKILLed server leaves a dump that holds the accept event of every
//! acked job, and lags the journal by at most the terminal records
//! written since the last dump finished.
//!
//! # `.alfr` layout (version 1, all integers little-endian)
//!
//! ```text
//! [magic "ALFR" 4B] [version u32] [capacity u32] [count u32]
//! [total_seq u64]                      // events ever recorded (≥ count)
//! count × 56-byte records:
//!   [seq u64] [ts_ns u64] [code u16] [a u64] [b u64] [tag 22B]
//! [crc32 u32]                          // over every preceding byte
//! ```
//!
//! Records are emitted oldest-first. `tag` is a NUL-padded UTF-8 prefix
//! (job ids, tenant names, fault kinds); `a`/`b` are code-specific
//! payloads (job id, latency, byte offsets). The dump is one frame of the
//! shared codec in [`crate::frame`], the same CRC-32 and bounded reader
//! the checkpoint, journal, program and wire formats use.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::frame::{self, Extent, FrameError, Reader};

/// Magic prefix of a `.alfr` dump.
pub const FLIGHT_MAGIC: &[u8; 4] = b"ALFR";
/// Current dump format version.
pub const FLIGHT_VERSION: u32 = 1;
/// Serialized size of one record.
pub const RECORD_LEN: usize = 56;
/// Bytes of tag text stored per record.
pub const TAG_LEN: usize = 22;
/// The record count is the u32 at byte 12 of the 24-byte header.
const EXTENT: Extent = Extent::Counted {
    at: 12,
    header: 24,
    stride: RECORD_LEN,
    max: usize::MAX,
};

// Event codes. The recorder stores a bare u16 so lower layers (storage
// fault injection) and upper layers (admission control) share one
// vocabulary without a dependency edge; `code_name` renders them.

/// Job passed every admission gate and was journaled.
pub const EV_ADMIT_OK: u16 = 1;
/// Job rejected by the sanity screen (`a` = AL4xx-style reason index).
pub const EV_REJECT_SANITY: u16 = 2;
/// Job rejected by the alprove static bound (AL404).
pub const EV_REJECT_STATIC: u16 = 3;
/// Job rejected by the per-tenant quota (`tag` = tenant).
pub const EV_REJECT_QUOTA: u16 = 4;
/// Job rejected because the queue was full.
pub const EV_REJECT_QUEUE_FULL: u16 = 5;
/// Job rejected because the server was draining.
pub const EV_REJECT_DRAINING: u16 = 6;
/// Job rejected/deferred by the storage breaker gate.
pub const EV_REJECT_STORAGE: u16 = 7;
/// Circuit-breaker state transition (`a` = old state, `b` = new state).
pub const EV_BREAKER: u16 = 8;
/// Storage-layer injected fault fired (`tag` = fault kind).
pub const EV_FAULT_STORAGE: u16 = 9;
/// Network-layer injected fault fired (`tag` = fault kind).
pub const EV_FAULT_NET: u16 = 10;
/// Journal accept record fsynced (`a` = job id).
pub const EV_JOURNAL_ACCEPT: u16 = 11;
/// Journal terminal record fsynced (`a` = job id, `b` = 1 if failed).
pub const EV_JOURNAL_TERMINAL: u16 = 12;
/// Journal compaction ran.
pub const EV_JOURNAL_COMPACT: u16 = 13;
/// Solver checkpoint taken and queued for writing (`a` = job id,
/// `b` = iteration).
pub const EV_CHECKPOINT: u16 = 14;
/// A solve aborted on an (injected or real) fault (`a` = job id).
pub const EV_SOLVE_FAULT: u16 = 15;
/// Drain requested.
pub const EV_DRAIN: u16 = 16;
/// Orderly shutdown (SIGTERM/SIGINT or `stop()`).
pub const EV_SHUTDOWN: u16 = 17;
/// Panic hook fired (`tag` = truncated panic message).
pub const EV_PANIC: u16 = 18;
/// Server process started (`a` = recovered jobs).
pub const EV_START: u16 = 19;
/// Recovery replayed an in-flight job (`a` = job id).
pub const EV_RECOVERY: u16 = 20;

/// Human-readable name for an event code.
#[must_use]
pub fn code_name(code: u16) -> &'static str {
    match code {
        EV_ADMIT_OK => "admit-ok",
        EV_REJECT_SANITY => "reject-sanity",
        EV_REJECT_STATIC => "reject-static",
        EV_REJECT_QUOTA => "reject-quota",
        EV_REJECT_QUEUE_FULL => "reject-queue-full",
        EV_REJECT_DRAINING => "reject-draining",
        EV_REJECT_STORAGE => "reject-storage",
        EV_BREAKER => "breaker-transition",
        EV_FAULT_STORAGE => "fault-storage",
        EV_FAULT_NET => "fault-net",
        EV_JOURNAL_ACCEPT => "journal-accept",
        EV_JOURNAL_TERMINAL => "journal-terminal",
        EV_JOURNAL_COMPACT => "journal-compact",
        EV_CHECKPOINT => "checkpoint-write",
        EV_SOLVE_FAULT => "solve-fault",
        EV_DRAIN => "drain",
        EV_SHUTDOWN => "shutdown",
        EV_PANIC => "panic",
        EV_START => "server-start",
        EV_RECOVERY => "recovery-replay",
        _ => "unknown",
    }
}

/// One recorded event, as stored in the ring and on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Monotonic sequence number (never wraps within a process).
    pub seq: u64,
    /// Nanoseconds since the recorder's construction.
    pub ts_ns: u64,
    /// Event code (`EV_*`).
    pub code: u16,
    /// Code-specific payload (job id, state index, …).
    pub a: u64,
    /// Second code-specific payload.
    pub b: u64,
    /// NUL-padded UTF-8 tag (tenant, fault kind, message prefix).
    pub tag: [u8; TAG_LEN],
}

impl FlightRecord {
    const ZERO: FlightRecord = FlightRecord {
        seq: 0,
        ts_ns: 0,
        code: 0,
        a: 0,
        b: 0,
        tag: [0; TAG_LEN],
    };

    /// The tag with NUL padding stripped (lossy if non-UTF-8).
    #[must_use]
    pub fn tag_str(&self) -> &str {
        let end = self.tag.iter().position(|&b| b == 0).unwrap_or(TAG_LEN);
        std::str::from_utf8(&self.tag[..end]).unwrap_or("<bad-utf8>")
    }

    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.ts_ns.to_le_bytes());
        out.extend_from_slice(&self.code.to_le_bytes());
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(&self.tag);
    }

    fn read_from(rd: &mut Reader<'_>) -> Result<FlightRecord, FrameError> {
        Ok(FlightRecord {
            seq: rd.u64()?,
            ts_ns: rd.u64()?,
            code: u16::from_le_bytes(rd.array()?),
            a: rd.u64()?,
            b: rd.u64()?,
            tag: rd.array()?,
        })
    }
}

struct Ring {
    slots: Vec<FlightRecord>,
    /// Next slot to overwrite.
    head: usize,
    /// Live records (≤ capacity).
    len: usize,
    /// Events ever recorded.
    total: u64,
}

impl Ring {
    /// The live records, oldest first.
    fn records(&self) -> Vec<FlightRecord> {
        let cap = self.slots.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len)
            .map(|i| self.slots[(start + i) % cap])
            .collect()
    }
}

/// The in-process flight recorder.
///
/// `record` is allocation-free after construction: the tag is truncated
/// into a stack buffer, then one mutex-guarded slot write. The recorder
/// has its own enable gate (default on) independent of the telemetry
/// gate — the black box must keep recording even when tracing is off.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    enabled: AtomicBool,
    epoch: Instant,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ring = lock(&self.ring);
        f.debug_struct("FlightRecorder")
            .field("capacity", &ring.slots.len())
            .field("len", &ring.len)
            .field("total", &ring.total)
            .finish_non_exhaustive()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events (min 16).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        FlightRecorder {
            ring: Mutex::new(Ring {
                slots: vec![FlightRecord::ZERO; capacity],
                head: 0,
                len: 0,
                total: 0,
            }),
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
        }
    }

    /// Enables or disables recording (records are dropped while disabled).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records one event. Allocation-free; `tag` is truncated to
    /// [`TAG_LEN`] bytes on a UTF-8 boundary.
    pub fn record(&self, code: u16, a: u64, b: u64, tag: &str) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut buf = [0u8; TAG_LEN];
        let mut end = tag.len().min(TAG_LEN);
        while end > 0 && !tag.is_char_boundary(end) {
            end -= 1;
        }
        buf[..end].copy_from_slice(&tag.as_bytes()[..end]);
        #[allow(clippy::cast_possible_truncation)]
        let ts_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut ring = lock(&self.ring);
        let seq = ring.total;
        ring.total += 1;
        let head = ring.head;
        let cap = ring.slots.len();
        ring.slots[head] = FlightRecord {
            seq,
            ts_ns,
            code,
            a,
            b,
            tag: buf,
        };
        ring.head = (head + 1) % cap;
        if ring.len < cap {
            ring.len += 1;
        }
    }

    /// Events ever recorded (including ones the ring has since dropped).
    pub fn total(&self) -> u64 {
        lock(&self.ring).total
    }

    /// The live records, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        lock(&self.ring).records()
    }

    /// Serializes the ring to the `.alfr` byte format. The records and
    /// the header's total come from one look at the ring.
    pub fn encode(&self) -> Vec<u8> {
        let (records, total, capacity) = {
            let ring = lock(&self.ring);
            (ring.records(), ring.total, ring.slots.len())
        };
        #[allow(clippy::cast_possible_truncation)]
        let capacity = capacity as u32;
        FlightDump {
            capacity,
            total,
            records,
        }
        .encode()
    }

    /// Atomically dumps the ring to `path`: write `<path>.tmp`, fsync,
    /// rename. Deliberately uses `std::fs` directly — the black box must
    /// not route through (chaos-wrapped) storage abstractions. Calls for
    /// one `path` must not overlap: they share the temp file, and a dump
    /// encoded earlier could land last. `alserve` makes every dump from
    /// one writer thread.
    pub fn sync_to(&self, path: &Path) -> io::Result<()> {
        let bytes = self.encode();
        let tmp = path.with_extension("alfr.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

/// A decoded, CRC-validated `.alfr` dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Ring capacity of the writing process.
    pub capacity: u32,
    /// Events the writer ever recorded (`≥ records.len()`).
    pub total: u64,
    /// The surviving records, oldest first.
    pub records: Vec<FlightRecord>,
}

impl FlightDump {
    /// Serializes the dump to the `.alfr` byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.records.len() * RECORD_LEN + 4);
        out.extend_from_slice(FLIGHT_MAGIC);
        out.extend_from_slice(&FLIGHT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.capacity.to_le_bytes());
        #[allow(clippy::cast_possible_truncation)]
        out.extend_from_slice(&(self.records.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.total.to_le_bytes());
        for r in &self.records {
            r.write_to(&mut out);
        }
        frame::seal(&mut out);
        out
    }

    /// Decodes and validates a `.alfr` byte stream. Bytes past the
    /// advertised records are ignored.
    pub fn decode(bytes: &[u8]) -> Result<FlightDump, FrameError> {
        let (body, _) = frame::open(bytes, *FLIGHT_MAGIC, EXTENT)?;
        let mut rd = Reader::new(body);
        let version = rd.u32()?;
        if version != FLIGHT_VERSION {
            return Err(FrameError::UnsupportedVersion(version));
        }
        let capacity = rd.u32()?;
        let count = rd.u32()?;
        let total = rd.u64()?;
        let records = (0..count)
            .map(|_| FlightRecord::read_from(&mut rd))
            .collect::<Result<Vec<_>, _>>()?;
        if records.windows(2).any(|w| w[0].seq >= w[1].seq) {
            return Err(FrameError::Malformed("record sequence"));
        }
        Ok(FlightDump {
            capacity,
            total,
            records,
        })
    }

    /// Reads and decodes a dump file.
    pub fn read(path: &Path) -> io::Result<Result<FlightDump, FrameError>> {
        Ok(Self::decode(&fs::read(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_capacity_events() {
        let fr = FlightRecorder::new(16);
        for i in 0..40u64 {
            fr.record(EV_ADMIT_OK, i, 0, "job");
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 16);
        assert_eq!(snap.first().map(|r| r.seq), Some(24));
        assert_eq!(snap.last().map(|r| r.seq), Some(39));
        assert_eq!(fr.total(), 40);
        // Oldest-first and strictly increasing.
        assert!(snap.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
    }

    #[test]
    fn encode_decode_round_trip() {
        let fr = FlightRecorder::new(16);
        fr.record(EV_REJECT_QUOTA, 7, 3, "tenant-alpha");
        fr.record(EV_BREAKER, 0, 1, "device");
        fr.record(EV_JOURNAL_ACCEPT, 42, 0, "");
        let bytes = fr.encode();
        let dump = FlightDump::decode(&bytes).expect("round trip");
        assert_eq!(dump.capacity, 16);
        assert_eq!(dump.total, 3);
        assert_eq!(dump.records.len(), 3);
        assert_eq!(dump.records[0].code, EV_REJECT_QUOTA);
        assert_eq!(dump.records[0].tag_str(), "tenant-alpha");
        assert_eq!(dump.records[2].a, 42);
    }

    #[test]
    fn tag_truncates_on_char_boundary() {
        let fr = FlightRecorder::new(16);
        // 'é' is 2 bytes; 22 copies = 44 bytes, truncation must not split one.
        fr.record(EV_PANIC, 0, 0, &"é".repeat(22));
        let snap = fr.snapshot();
        assert_eq!(snap[0].tag_str(), "é".repeat(11));
    }

    #[test]
    fn sync_to_writes_a_readable_dump() {
        let dir = std::env::temp_dir().join(format!("alfr-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("box.alfr");
        let fr = FlightRecorder::new(16);
        fr.record(EV_START, 0, 0, "");
        fr.record(EV_SHUTDOWN, 0, 0, "");
        fr.sync_to(&path).expect("sync");
        let dump = FlightDump::read(&path).expect("read").expect("decode");
        assert_eq!(dump.records.len(), 2);
        assert_eq!(dump.records[1].code, EV_SHUTDOWN);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let fr = FlightRecorder::new(16);
        fr.set_enabled(false);
        fr.record(EV_ADMIT_OK, 1, 0, "");
        assert_eq!(fr.total(), 0);
        fr.set_enabled(true);
        fr.record(EV_ADMIT_OK, 1, 0, "");
        assert_eq!(fr.total(), 1);
    }

    #[test]
    fn code_names_cover_all_codes() {
        for code in 1..=20u16 {
            assert_ne!(code_name(code), "unknown", "code {code} unnamed");
        }
        assert_eq!(code_name(999), "unknown");
    }
}
