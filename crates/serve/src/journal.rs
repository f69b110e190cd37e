//! Durable write-ahead job journal.
//!
//! Crash safety in `alserve` rests on one rule: **a job is acknowledged
//! only after its full specification has reached stable storage.** The
//! journal is an append-only file of self-delimiting records, each sealed
//! with its own CRC-32:
//!
//! ```text
//! ┌─────────┬─────────┬─────────┬────────┐
//! │ "ALJL"  │ len     │ payload │ CRC-32 │   (repeated)
//! │ 4 B     │ u32 LE  │ …       │ u32 LE │
//! └─────────┴─────────┴─────────┴────────┘
//! ```
//!
//! Each record is one frame of the shared codec ([`alrescha_obs::frame`]).
//! The CRC covers magic, length, and payload, so a torn tail — the record
//! being written when the process died — is detected and truncated away on
//! the next open. Three record kinds exist:
//!
//! * `Accepted { job_id, tenant, job }` — written and fsynced *before* the
//!   `Accepted` frame goes back to the client;
//! * `Completed { job_id, fingerprint, iterations, residual, converged }`;
//! * `Failed { job_id, error }`.
//!
//! Recovery is then a pure set difference: every accepted job without a
//! terminal record is still owed to some client and must be re-run (from
//! its newest checkpoint, if one was flushed). [`Journal::compact`]
//! rewrites the file atomically with terminal pairs removed so the log
//! does not grow without bound across restarts.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use alrescha::checkpoint::write_atomic_with;
use alrescha::storage::{self, RealStorage, StorageFile, StorageIo};
use alrescha_obs::frame::{self, put_str, put_u64, Extent, FrameError, Reader};

use crate::protocol::{put_job, read_job, JobPayload};

/// Per-record magic: "ALJL" (ALrescha Job Log).
pub const RECORD_MAGIC: [u8; 4] = *b"ALJL";
/// Upper bound on a single journal record payload.
pub const MAX_RECORD: usize = 256 << 20;
/// Bytes before the payload: magic and payload length.
const HEADER_LEN: usize = 8;
/// The payload length is the u32 right after the magic.
const EXTENT: Extent = Extent::Counted {
    at: 4,
    header: HEADER_LEN,
    stride: 1,
    max: MAX_RECORD,
};

/// Errors raised by journal operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// An operation was given a record it cannot take (an `Accepted`
    /// record passed to [`Journal::terminal`]).
    Malformed(&'static str),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::Malformed(what) => write!(f, "malformed journal record: {what}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Malformed(_) => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// How a job reached its terminal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// Solved (converged or hit the iteration cap) and reported.
    Completed,
    /// Errored; the failure was reported in-band.
    Failed,
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JournalRecord {
    /// A job was durably admitted.
    Accepted {
        /// Server-assigned job identifier.
        job_id: u64,
        /// Tenant the job was charged against.
        tenant: String,
        /// The full job specification, sufficient to re-run it.
        job: JobPayload,
    },
    /// A job finished.
    Completed {
        /// Server-assigned job identifier.
        job_id: u64,
        /// Resume-invariant solution fingerprint.
        fingerprint: u64,
        /// Iterations completed.
        iterations: u64,
        /// Final residual norm.
        residual: f64,
        /// Whether the tolerance was met.
        converged: bool,
    },
    /// A job failed.
    Failed {
        /// Server-assigned job identifier.
        job_id: u64,
        /// The in-band error string.
        error: String,
    },
}

impl JournalRecord {
    fn tag(&self) -> u8 {
        match self {
            JournalRecord::Accepted { .. } => 1,
            JournalRecord::Completed { .. } => 2,
            JournalRecord::Failed { .. } => 3,
        }
    }

    /// Encodes the record as one sealed `ALJL` frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&RECORD_MAGIC);
        out.extend_from_slice(&[0; 4]); // payload length, patched below
        out.push(self.tag());
        match self {
            JournalRecord::Accepted {
                job_id,
                tenant,
                job,
            } => {
                put_u64(&mut out, *job_id);
                put_str(&mut out, tenant);
                put_job(&mut out, job);
            }
            JournalRecord::Completed {
                job_id,
                fingerprint,
                iterations,
                residual,
                converged,
            } => {
                put_u64(&mut out, *job_id);
                put_u64(&mut out, *fingerprint);
                put_u64(&mut out, *iterations);
                put_u64(&mut out, residual.to_bits());
                out.push(u8::from(*converged));
            }
            JournalRecord::Failed { job_id, error } => {
                put_u64(&mut out, *job_id);
                put_str(&mut out, error);
            }
        }
        let len = (out.len() - HEADER_LEN) as u32;
        out[4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        frame::seal(&mut out);
        out
    }

    /// Decodes the record at the start of `bytes`, returning it and the
    /// bytes it spans. Replay stops at the first error: an empty, torn, or
    /// corrupt remainder.
    ///
    /// # Errors
    ///
    /// A typed [`FrameError`] for every malformation; never panics.
    pub fn decode(bytes: &[u8]) -> Result<(JournalRecord, usize), FrameError> {
        let (body, used) = frame::open(bytes, RECORD_MAGIC, EXTENT)?;
        let mut rd = Reader::new(body);
        rd.u32()?; // the payload length `open` already checked
        let record = match rd.u8()? {
            1 => JournalRecord::Accepted {
                job_id: rd.u64()?,
                tenant: rd.string()?,
                job: read_job(&mut rd)?,
            },
            2 => JournalRecord::Completed {
                job_id: rd.u64()?,
                fingerprint: rd.u64()?,
                iterations: rd.u64()?,
                residual: rd.f64()?,
                converged: match rd.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("converged flag")),
                },
            },
            3 => JournalRecord::Failed {
                job_id: rd.u64()?,
                error: rd.string()?,
            },
            _ => return Err(FrameError::Malformed("record tag")),
        };
        rd.finish()?;
        Ok((record, used))
    }
}

/// What [`Journal::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Intact records replayed.
    pub records: usize,
    /// Bytes truncated from a torn tail (0 on a clean shutdown).
    pub torn_bytes: u64,
    /// Jobs accepted but not terminal — owed to clients.
    pub pending: usize,
}

/// An open, durable, append-only job journal.
///
/// All appends are `fsync`ed before returning: when [`Journal::accept`]
/// comes back `Ok`, the record survives power loss. All file traffic goes
/// through an injectable [`StorageIo`] ([`RealStorage`] by default), so
/// the chaos harness can drive the same code through short writes,
/// `ENOSPC` tears, failed fsyncs, and read-side bit flips.
pub struct Journal {
    io: Arc<dyn StorageIo>,
    file: Box<dyn StorageFile>,
    path: PathBuf,
    /// Durable end of the log: the byte offset every intact record fits
    /// under. A failed append rolls the file back to this point so the
    /// log never carries a torn record *followed by* good ones.
    offset: u64,
    /// Accepted-but-not-terminal jobs, in id order.
    pending: BTreeMap<u64, (String, JobPayload)>,
    /// Terminal records, in id order — replayed so a restarted server can
    /// still answer `Status`/`Wait` for jobs settled in a previous run.
    settled: BTreeMap<u64, JournalRecord>,
    /// Job ids of terminal records in append/replay order — the observable
    /// *execution order*, used by priority-scheduling tests.
    terminal_order: Vec<u64>,
    /// Highest job id ever seen (terminal or not).
    max_id: Option<u64>,
    /// Set when a failed append could not be rolled back: appending past a
    /// torn record would strand everything after it, so the journal
    /// refuses all further appends instead.
    wedged: bool,
    stats: JournalStats,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("offset", &self.offset)
            .field("pending", &self.pending.len())
            .field("max_id", &self.max_id)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// What one replay pass over a byte image found.
struct Replay {
    pending: BTreeMap<u64, (String, JobPayload)>,
    settled: BTreeMap<u64, JournalRecord>,
    terminal_order: Vec<u64>,
    max_id: Option<u64>,
    records: usize,
    valid_end: usize,
}

fn replay(bytes: &[u8]) -> Replay {
    let mut out = Replay {
        pending: BTreeMap::new(),
        settled: BTreeMap::new(),
        terminal_order: Vec::new(),
        max_id: None,
        records: 0,
        valid_end: 0,
    };
    let mut pos = 0usize;
    while let Ok((record, used)) = JournalRecord::decode(&bytes[pos..]) {
        match record {
            JournalRecord::Accepted {
                job_id,
                tenant,
                job,
            } => {
                out.max_id = Some(out.max_id.map_or(job_id, |m: u64| m.max(job_id)));
                out.pending.insert(job_id, (tenant, job));
            }
            JournalRecord::Completed { job_id, .. } | JournalRecord::Failed { job_id, .. } => {
                out.max_id = Some(out.max_id.map_or(job_id, |m: u64| m.max(job_id)));
                out.pending.remove(&job_id);
                out.settled.insert(job_id, record);
                out.terminal_order.push(job_id);
            }
        }
        out.records += 1;
        pos += used;
    }
    out.valid_end = pos;
    out
}

/// Consecutive whole-file reads attempted before giving up on telling a
/// transient read anomaly (a bit flip that vanishes on re-read) from a
/// stable one (a genuinely torn tail). Each attempt is clean with
/// probability `1 − bit_flip_rate`, so even aggressive chaos plans
/// converge in one or two reads.
const READ_RETRY_LIMIT: usize = 32;

impl Journal {
    /// Opens (or creates) the journal at `path`, replaying every intact
    /// record and truncating a torn tail if the previous process died
    /// mid-append.
    ///
    /// # Errors
    ///
    /// I/O failures. A record that fails to decode ends replay like a
    /// torn tail does.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        Journal::open_with(path, Arc::new(RealStorage))
    }

    /// [`Journal::open`] through an injectable [`StorageIo`].
    ///
    /// Replay distinguishes *transient* read anomalies from *stable* ones:
    /// a pass that stops short of the end of the file is retried until two
    /// consecutive reads return identical bytes (a bit flip injected by a
    /// chaos read vanishes on re-read; a genuinely torn tail does not).
    /// Only a stable short replay truncates the tail — so read-side
    /// corruption can never silently discard an acknowledged record.
    ///
    /// # Errors
    ///
    /// I/O failures. A record that fails to decode ends replay like a
    /// torn tail does.
    pub fn open_with(
        path: impl Into<PathBuf>,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self, JournalError> {
        let path = path.into();
        // Creates the file if absent; also the append handle we keep.
        let mut file = io.open_append(&path)?;

        let mut prev: Option<Vec<u8>> = None;
        let mut chosen: Option<(Vec<u8>, Replay)> = None;
        for _ in 0..READ_RETRY_LIMIT {
            let bytes = io.read(&path)?;
            let pass = replay(&bytes);
            let clean = pass.valid_end == bytes.len();
            let stable = prev.as_deref() == Some(bytes.as_slice());
            if clean || stable {
                chosen = Some((bytes, pass));
                break;
            }
            prev = Some(bytes);
        }
        let (bytes, pass) = chosen.ok_or_else(|| {
            JournalError::Io(io::Error::other(
                "journal replay: no stable read after retries",
            ))
        })?;

        let mut stats = JournalStats {
            records: pass.records,
            ..JournalStats::default()
        };
        let torn = bytes.len() - pass.valid_end;
        if torn > 0 {
            // A record was being appended when the process died. Everything
            // before it is intact; drop the tail so future appends start at
            // a record boundary. (Durability of the truncate rides on the
            // next append's fsync; a torn tail resurfacing after a crash
            // here is CRC-invalid and re-truncated by the next open.)
            file.set_len(pass.valid_end as u64)?;
            stats.torn_bytes = torn as u64;
        }
        stats.pending = pass.pending.len();
        Ok(Journal {
            io,
            file,
            path,
            offset: pass.valid_end as u64,
            pending: pass.pending,
            settled: pass.settled,
            terminal_order: pass.terminal_order,
            max_id: pass.max_id,
            wedged: false,
            stats,
        })
    }

    /// What the open found: replayed records, torn bytes, pending jobs.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            pending: self.pending.len(),
            ..self.stats
        }
    }

    /// The next unused job id (max ever seen + 1; 1 for a fresh journal).
    pub fn next_job_id(&self) -> u64 {
        self.max_id.map_or(1, |m| m.saturating_add(1))
    }

    /// Durably records an accepted job. Returns only after the record is
    /// fsynced — the caller may then acknowledge the client.
    ///
    /// # Errors
    ///
    /// I/O failures; on error the job must NOT be acknowledged.
    pub fn accept(
        &mut self,
        job_id: u64,
        tenant: &str,
        job: &JobPayload,
    ) -> Result<(), JournalError> {
        self.append(&JournalRecord::Accepted {
            job_id,
            tenant: tenant.to_owned(),
            job: job.clone(),
        })?;
        self.max_id = Some(self.max_id.map_or(job_id, |m| m.max(job_id)));
        self.pending.insert(job_id, (tenant.to_owned(), job.clone()));
        Ok(())
    }

    /// Durably records a terminal outcome for `job_id`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn terminal(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let job_id = match record {
            JournalRecord::Completed { job_id, .. } | JournalRecord::Failed { job_id, .. } => {
                *job_id
            }
            JournalRecord::Accepted { .. } => {
                return Err(JournalError::Malformed("terminal() given an Accepted record"))
            }
        };
        self.append(record)?;
        self.max_id = Some(self.max_id.map_or(job_id, |m| m.max(job_id)));
        self.pending.remove(&job_id);
        self.settled.insert(job_id, record.clone());
        self.terminal_order.push(job_id);
        Ok(())
    }

    fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        if self.wedged {
            return Err(JournalError::Io(io::Error::other(
                "journal wedged: a failed append could not be rolled back",
            )));
        }
        let bytes = record.encode();
        let result = storage::write_all(self.file.as_mut(), &bytes).and_then(|()| self.file.sync());
        match result {
            Ok(()) => {
                self.offset += bytes.len() as u64;
                Ok(())
            }
            Err(e) => {
                // The append may have torn a partial record onto the tail
                // (short write, ENOSPC) or landed fully but unsynced. Roll
                // the file back to the last durable boundary so a *later*
                // successful append is not stranded behind a torn record
                // that would end replay early. If even the rollback fails,
                // wedge the journal: every further append must fail rather
                // than silently strand records behind a torn one.
                if self.file.set_len(self.offset).is_err() {
                    self.wedged = true;
                }
                Err(e.into())
            }
        }
    }

    /// Terminal records seen by this journal (replayed from disk plus any
    /// appended this run), in id order — a restarted server loads these so
    /// clients can still fetch the outcome of jobs settled before a crash.
    pub fn settled(&self) -> Vec<JournalRecord> {
        self.settled.values().cloned().collect()
    }

    /// Jobs accepted but never finished — the recovery set, in id order.
    pub fn recover(&self) -> Vec<(u64, String, JobPayload)> {
        self.pending
            .iter()
            .map(|(&id, (tenant, job))| (id, tenant.clone(), job.clone()))
            .collect()
    }

    /// Job ids of terminal records in the order they were appended
    /// (replayed history first, then this run) — the journal's view of
    /// execution order, which priority scheduling tests assert against.
    pub fn terminal_order(&self) -> &[u64] {
        &self.terminal_order
    }

    /// Atomically rewrites the journal, dropping the *Accepted* records of
    /// settled jobs (each carries a full matrix — the bulk of the log)
    /// while keeping pending `Accepted` records and every tiny terminal
    /// record, so both the recovery set and the settled history survive
    /// any number of compaction cycles. The id counter is preserved by
    /// the kept records.
    ///
    /// # Errors
    ///
    /// I/O failures; on error the original journal file is untouched.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        let mut bytes = Vec::new();
        for (&job_id, (tenant, job)) in &self.pending {
            bytes.extend_from_slice(
                &JournalRecord::Accepted {
                    job_id,
                    tenant: tenant.clone(),
                    job: job.clone(),
                }
                .encode(),
            );
        }
        for record in self.settled.values() {
            bytes.extend_from_slice(&record.encode());
        }
        write_atomic_with(self.io.as_ref(), &self.path, &bytes)?;
        // Reopen the handle so appends target the new inode. If the
        // reopen fails, the old handle points at the unlinked inode —
        // appending there would silently lose records — so wedge the
        // journal instead: every further append fails cleanly.
        self.file = match self.io.open_append(&self.path) {
            Ok(file) => file,
            Err(e) => {
                self.wedged = true;
                return Err(e.into());
            }
        };
        self.offset = bytes.len() as u64;
        self.wedged = false;
        self.stats.records = self.pending.len() + self.settled.len();
        self.stats.torn_bytes = 0;
        Ok(())
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::gen;

    fn sample_job(seed: u64) -> JobPayload {
        let matrix = gen::stencil27(2);
        let b: Vec<f64> = (0..matrix.rows())
            .map(|i| (i as f64 + seed as f64).sin())
            .collect();
        JobPayload {
            matrix,
            b,
            tol: 1e-8,
            max_iters: 100 + seed,
            priority: 0,
        }
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alserve-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn accept_and_terminal_round_trip_across_reopen() {
        let dir = tempdir("roundtrip");
        let path = dir.join("jobs.wal");
        {
            let mut j = Journal::open(&path).unwrap();
            assert_eq!(j.next_job_id(), 1);
            j.accept(1, "acme", &sample_job(1)).unwrap();
            j.accept(2, "umbrella", &sample_job(2)).unwrap();
            j.terminal(&JournalRecord::Completed {
                job_id: 1,
                fingerprint: 0xABCD,
                iterations: 12,
                residual: 3.5e-9,
                converged: true,
            })
            .unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.stats().records, 3);
        assert_eq!(j.stats().torn_bytes, 0);
        let pending = j.recover();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, 2);
        assert_eq!(pending[0].1, "umbrella");
        assert_eq!(pending[0].2, sample_job(2));
        assert_eq!(j.next_job_id(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_keeps_prefix() {
        let dir = tempdir("torn");
        let path = dir.join("jobs.wal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.accept(1, "acme", &sample_job(1)).unwrap();
            j.accept(2, "acme", &sample_job(2)).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Simulate dying mid-append: chop the last record to a partial write.
        for cut in [1, 5, 13, full.len() - 1] {
            std::fs::write(&path, &full[..cut.min(full.len())]).unwrap();
            let j = Journal::open(&path).unwrap();
            assert!(j.stats().torn_bytes > 0, "cut {cut} reported no torn tail");
            // After the truncating open, a reopen is clean.
            drop(j);
            let j2 = Journal::open(&path).unwrap();
            assert_eq!(j2.stats().torn_bytes, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_torn_truncation_continue_the_log() {
        let dir = tempdir("resume");
        let path = dir.join("jobs.wal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.accept(1, "acme", &sample_job(1)).unwrap();
            j.accept(2, "acme", &sample_job(2)).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Keep record 1 intact, tear record 2 in half.
        let one = {
            let j = Journal::open(&path).unwrap();
            drop(j);
            let bytes = std::fs::read(&path).unwrap();
            let (_, used) = JournalRecord::decode(&bytes).unwrap();
            used
        };
        std::fs::write(&path, &full[..one + 7]).unwrap();
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.recover().len(), 1);
        assert_eq!(j.next_job_id(), 2);
        j.accept(2, "acme", &sample_job(9)).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.stats().records, 2);
        assert_eq!(j.recover().len(), 2);
        assert_eq!(j.recover()[1].2, sample_job(9));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_body_ends_replay_without_panicking() {
        let dir = tempdir("corrupt");
        let path = dir.join("jobs.wal");
        {
            let mut j = Journal::open(&path).unwrap();
            j.accept(1, "acme", &sample_job(1)).unwrap();
            j.accept(2, "acme", &sample_job(2)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let (_, first) = JournalRecord::decode(&bytes).unwrap();
        // Flip a byte inside the second record's payload: CRC now fails,
        // replay stops after record 1 and the tail is truncated.
        bytes[first + 20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.stats().records, 1);
        assert!(j.stats().torn_bytes > 0);
        assert_eq!(j.recover().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_drops_terminal_pairs_and_preserves_pending() {
        let dir = tempdir("compact");
        let path = dir.join("jobs.wal");
        let mut j = Journal::open(&path).unwrap();
        for id in 1..=6u64 {
            j.accept(id, "acme", &sample_job(id)).unwrap();
        }
        for id in [1u64, 3, 5] {
            j.terminal(&JournalRecord::Completed {
                job_id: id,
                fingerprint: id,
                iterations: id,
                residual: 1e-9,
                converged: true,
            })
            .unwrap();
        }
        j.terminal(&JournalRecord::Failed {
            job_id: 6,
            error: "synthetic".to_owned(),
        })
        .unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        j.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "compact did not shrink the log");
        // Appends still work post-compact (handle points at the new inode).
        j.accept(7, "acme", &sample_job(7)).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        let ids: Vec<u64> = j.recover().iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, vec![2, 4, 7]);
        assert_eq!(j.next_job_id(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
