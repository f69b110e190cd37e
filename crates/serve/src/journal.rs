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
//! the next open. Five record kinds exist (the payload's first byte):
//!
//! * 4 `Matrix { id, matrix }` — a matrix, written once per distinct
//!   matrix and named by an opaque id;
//! * 5 `Submitted { job_id, matrix, job }` — an accepted job: its tenant,
//!   right-hand side and solver options, and the id of a `Matrix` record
//!   earlier in the file;
//! * 2 `Completed { job_id, fingerprint, iterations, residual, converged }`;
//! * 3 `Failed { job_id, error }`;
//! * 1 `Accepted { job_id, tenant, job }` — the legacy accepted record with
//!   the matrix inline. It is still read, so older data directories
//!   recover, but never written.
//!
//! [`Journal::accept`] writes a job's `Submitted` record, preceded by a
//! `Matrix` record the first time it sees that matrix, in one write and
//! one fsync *before* the `Accepted` frame goes back to the client. A
//! repeated matrix is found by comparing shape and every entry bit for bit
//! against the matrix journaled most recently; no hash is trusted, and an
//! id is remembered only after its record is durable. Replay resolves each
//! `Submitted` id only from a `Matrix` record earlier in the same file and
//! never recomputes ids; an id it cannot resolve is a typed open error
//! ([`JournalError::UnknownMatrix`]), not a torn tail. So is an intact
//! record of a kind this build does not know
//! ([`JournalError::UnknownRecord`]): a newer format's record must stop
//! the open, not be cut away with everything after it.
//!
//! Recovery is then a pure set difference: every accepted job without a
//! terminal record is still owed to some client and must be re-run (from
//! its newest checkpoint, if one was flushed). [`Journal::compact`]
//! rewrites the file atomically with exactly the `Matrix` records pending
//! jobs name, then the pending jobs' `Submitted` records, then every
//! terminal record, so the log does not grow without bound across
//! restarts; legacy `Accepted` records come out in the new kinds.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use alrescha::checkpoint::write_atomic_with;
use alrescha::storage::{self, RealStorage, StorageFile, StorageIo};
use alrescha_obs::frame::{
    self, put_f64_vec, put_str, put_u64, Extent, FrameError, Reader, TRAILER_LEN,
};
use alrescha_sparse::Coo;

use crate::protocol::{
    job_len, matrix_len, put_job, put_matrix, read_job, read_matrix, JobPayload,
};

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
const TAG_ACCEPTED: u8 = 1;
const TAG_COMPLETED: u8 = 2;
const TAG_FAILED: u8 = 3;
const TAG_MATRIX: u8 = 4;
const TAG_SUBMITTED: u8 = 5;

/// Errors raised by journal operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// A record cannot be taken: a non-terminal record passed to
    /// [`Journal::terminal`], or an intact record on disk that contradicts
    /// the records before it.
    Malformed(&'static str),
    /// An intact `Submitted` record names a matrix id that no earlier
    /// `Matrix` record in the file defines.
    UnknownMatrix {
        /// The job the record admits.
        job_id: u64,
        /// The id it names.
        matrix: u64,
    },
    /// An intact record at byte `offset` carries a kind tag this build
    /// does not know, as a newer build's journal may.
    UnknownRecord {
        /// The record's kind tag.
        tag: u8,
        /// Byte offset of the record in the file.
        offset: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::Malformed(what) => write!(f, "malformed journal record: {what}"),
            JournalError::UnknownMatrix { job_id, matrix } => write!(
                f,
                "journal record for job {job_id} names matrix {matrix}, which no earlier record defines"
            ),
            JournalError::UnknownRecord { tag, offset } => write!(
                f,
                "journal record at byte {offset} has kind {tag}, which this build does not know"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Malformed(_)
            | JournalError::UnknownMatrix { .. }
            | JournalError::UnknownRecord { .. } => None,
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

/// What a `Submitted` record holds besides the job id and the matrix id:
/// everything of a [`JobPayload`] but its matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Tenant the job was charged against.
    pub tenant: String,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: u64,
    /// Scheduling priority.
    pub priority: u8,
}

impl Submission {
    fn of(tenant: &str, job: &JobPayload) -> Self {
        Submission {
            tenant: tenant.to_owned(),
            b: job.b.clone(),
            tol: job.tol,
            max_iters: job.max_iters,
            priority: job.priority,
        }
    }

    /// Bytes [`put_submitted`] writes after the tag.
    fn body_len(&self) -> usize {
        8 + 8 + self.tenant.len() + 8 + 8 + 8 * self.b.len() + 17
    }
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JournalRecord {
    /// Legacy: a job was durably admitted with its matrix inline. Read
    /// for older journals, never written by [`Journal`].
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
    /// A matrix that later `Submitted` records name by `id`.
    Matrix {
        /// Opaque id, unique within the file.
        id: u64,
        /// The matrix, with exact value bits.
        matrix: Coo,
    },
    /// A job was durably admitted against a journaled matrix.
    Submitted {
        /// Server-assigned job identifier.
        job_id: u64,
        /// Id of a `Matrix` record earlier in the file.
        matrix: u64,
        /// Tenant, right-hand side and solver options.
        job: Submission,
    },
}

/// Appends one sealed `ALJL` record: header, `tag`, the `body_len` bytes
/// `body` writes, and the CRC-32 over the record alone.
fn put_record(out: &mut Vec<u8>, tag: u8, body_len: usize, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.reserve(HEADER_LEN + 1 + body_len + TRAILER_LEN);
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&[0; 4]); // payload length, patched below
    out.push(tag);
    body(out);
    let len = (out.len() - start - HEADER_LEN) as u32;
    out[start + 4..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let crc = frame::crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

fn put_matrix_record(out: &mut Vec<u8>, id: u64, matrix: &Coo) {
    put_record(out, TAG_MATRIX, 8 + matrix_len(matrix), |out| {
        put_u64(out, id);
        put_matrix(out, matrix);
    });
}

/// The `Submitted` layout: job id, tenant, matrix id, then the right-hand
/// side and options in the order a wire job carries them.
fn put_submitted(out: &mut Vec<u8>, job_id: u64, matrix: u64, job: &Submission) {
    put_record(out, TAG_SUBMITTED, job.body_len(), |out| {
        put_u64(out, job_id);
        put_str(out, &job.tenant);
        put_u64(out, matrix);
        put_f64_vec(out, &job.b);
        put_u64(out, job.tol.to_bits());
        put_u64(out, job.max_iters);
        out.push(job.priority);
    });
}

impl JournalRecord {
    /// Encodes the record as one sealed `ALJL` frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            JournalRecord::Accepted {
                job_id,
                tenant,
                job,
            } => put_record(
                &mut out,
                TAG_ACCEPTED,
                16 + tenant.len() + job_len(job),
                |out| {
                    put_u64(out, *job_id);
                    put_str(out, tenant);
                    put_job(out, job);
                },
            ),
            JournalRecord::Completed {
                job_id,
                fingerprint,
                iterations,
                residual,
                converged,
            } => put_record(&mut out, TAG_COMPLETED, 33, |out| {
                put_u64(out, *job_id);
                put_u64(out, *fingerprint);
                put_u64(out, *iterations);
                put_u64(out, residual.to_bits());
                out.push(u8::from(*converged));
            }),
            JournalRecord::Failed { job_id, error } => {
                put_record(&mut out, TAG_FAILED, 16 + error.len(), |out| {
                    put_u64(out, *job_id);
                    put_str(out, error);
                });
            }
            JournalRecord::Matrix { id, matrix } => put_matrix_record(&mut out, *id, matrix),
            JournalRecord::Submitted {
                job_id,
                matrix,
                job,
            } => put_submitted(&mut out, *job_id, *matrix, job),
        }
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
            TAG_ACCEPTED => JournalRecord::Accepted {
                job_id: rd.u64()?,
                tenant: rd.string()?,
                job: read_job(&mut rd)?,
            },
            TAG_COMPLETED => JournalRecord::Completed {
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
            TAG_FAILED => JournalRecord::Failed {
                job_id: rd.u64()?,
                error: rd.string()?,
            },
            TAG_MATRIX => JournalRecord::Matrix {
                id: rd.u64()?,
                matrix: read_matrix(&mut rd)?,
            },
            TAG_SUBMITTED => {
                let job_id = rd.u64()?;
                let tenant = rd.string()?;
                JournalRecord::Submitted {
                    job_id,
                    matrix: rd.u64()?,
                    job: Submission {
                        tenant,
                        b: rd.f64_vec()?,
                        tol: rd.f64()?,
                        max_iters: rd.u64()?,
                        priority: rd.u8()?,
                    },
                }
            }
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

/// A job the journal owes: its submission and its matrix, shared with
/// every other owed job on the same matrix.
type Owed = (Submission, Arc<Coo>);

/// A matrix with a `Matrix` record in the current file.
struct Known {
    id: u64,
    matrix: Arc<Coo>,
}

/// Shape and every entry bit for bit: `-0.0` differs from `0.0`, and a NaN
/// equals the same NaN.
fn same_bits(a: &Coo, b: &Coo) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.entries().len() == b.entries().len()
        && a.entries()
            .iter()
            .zip(b.entries())
            .all(|(x, y)| x.0 == y.0 && x.1 == y.1 && x.2.to_bits() == y.2.to_bits())
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
    pending: BTreeMap<u64, Owed>,
    /// The matrix whose `Matrix` record was made durable last in the
    /// current file: the one [`Journal::accept`] may name again.
    known: Option<Known>,
    /// Id the next new `Matrix` record gets: above every id in the file.
    next_matrix: u64,
    /// Terminal records, in id order — replayed so a restarted server can
    /// still answer `Status`/`Wait` for jobs settled in a previous run.
    settled: BTreeMap<u64, JournalRecord>,
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
            .field("known_matrix", &self.known.as_ref().map(|k| k.id))
            .field("max_id", &self.max_id)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// What one replay pass over a byte image found.
struct Replay {
    pending: BTreeMap<u64, Owed>,
    known: Option<Known>,
    next_matrix: u64,
    settled: BTreeMap<u64, JournalRecord>,
    max_id: Option<u64>,
    records: usize,
    valid_end: usize,
}

fn replay(bytes: &[u8]) -> Result<Replay, JournalError> {
    let mut out = Replay {
        pending: BTreeMap::new(),
        known: None,
        next_matrix: 1,
        settled: BTreeMap::new(),
        max_id: None,
        records: 0,
        valid_end: 0,
    };
    // Every matrix defined so far, by id: a later record may name any.
    let mut matrices: HashMap<u64, Arc<Coo>> = HashMap::new();
    let mut pos = 0usize;
    while let Ok((record, used)) = JournalRecord::decode(&bytes[pos..]) {
        match record {
            JournalRecord::Matrix { id, matrix } => {
                out.next_matrix = out.next_matrix.max(id.saturating_add(1));
                let matrix = Arc::new(matrix);
                matrices.insert(id, Arc::clone(&matrix));
                out.known = Some(Known { id, matrix });
            }
            JournalRecord::Submitted {
                job_id,
                matrix,
                job,
            } => {
                let m = matrices
                    .get(&matrix)
                    .ok_or(JournalError::UnknownMatrix { job_id, matrix })?;
                if job.b.len() != m.rows() {
                    return Err(JournalError::Malformed(
                        "rhs length disagrees with the named matrix",
                    ));
                }
                out.max_id = Some(out.max_id.map_or(job_id, |m: u64| m.max(job_id)));
                out.pending.insert(job_id, (job, Arc::clone(m)));
            }
            JournalRecord::Accepted {
                job_id,
                tenant,
                job,
            } => {
                out.max_id = Some(out.max_id.map_or(job_id, |m: u64| m.max(job_id)));
                let submission = Submission::of(&tenant, &job);
                out.pending
                    .insert(job_id, (submission, Arc::new(job.matrix)));
            }
            JournalRecord::Completed { job_id, .. } | JournalRecord::Failed { job_id, .. } => {
                out.max_id = Some(out.max_id.map_or(job_id, |m: u64| m.max(job_id)));
                out.pending.remove(&job_id);
                out.settled.insert(job_id, record);
            }
        }
        out.records += 1;
        pos += used;
    }
    if let Some(tag) = unknown_tag(&bytes[pos..]) {
        return Err(JournalError::UnknownRecord {
            tag,
            offset: pos as u64,
        });
    }
    out.valid_end = pos;
    Ok(out)
}

/// The tag of an intact, CRC-valid record at the start of `bytes` whose
/// kind no decoder here knows; `None` for a torn or corrupt tail.
fn unknown_tag(bytes: &[u8]) -> Option<u8> {
    let (body, _) = frame::open(bytes, RECORD_MAGIC, EXTENT).ok()?;
    let tag = *body.get(4)?;
    (!(TAG_ACCEPTED..=TAG_SUBMITTED).contains(&tag)).then_some(tag)
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
    /// I/O failures, an intact record that names a matrix no earlier
    /// record defines ([`JournalError::UnknownMatrix`]), or an intact
    /// record of an unknown kind ([`JournalError::UnknownRecord`]); the
    /// file is left as it was. Any other record that fails to decode ends
    /// replay like a torn tail does.
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
    /// As [`Journal::open`].
    pub fn open_with(
        path: impl Into<PathBuf>,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self, JournalError> {
        let path = path.into();
        // Creates the file if absent; also the append handle we keep.
        let mut file = io.open_append(&path)?;

        let mut prev: Option<Vec<u8>> = None;
        let mut chosen: Option<(usize, Replay)> = None;
        for _ in 0..READ_RETRY_LIMIT {
            let bytes = io.read(&path)?;
            let pass = replay(&bytes)?;
            let clean = pass.valid_end == bytes.len();
            let stable = prev.as_deref() == Some(bytes.as_slice());
            if clean || stable {
                chosen = Some((bytes.len(), pass));
                break;
            }
            prev = Some(bytes);
        }
        let (file_len, pass) = chosen.ok_or_else(|| {
            JournalError::Io(io::Error::other(
                "journal replay: no stable read after retries",
            ))
        })?;

        let mut stats = JournalStats {
            records: pass.records,
            ..JournalStats::default()
        };
        let torn = file_len - pass.valid_end;
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
            known: pass.known,
            next_matrix: pass.next_matrix,
            settled: pass.settled,
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
    /// The job's matrix goes into the file once: the first accept of a
    /// matrix writes a `Matrix` record ahead of the `Submitted` one, in
    /// the same write and fsync; a later accept of a bit-identical matrix
    /// writes only the `Submitted` record naming it.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`JournalError::Malformed`] for a right-hand side
    /// whose length is not the matrix's row count (replay could not take
    /// the record); on error the job must NOT be acknowledged.
    pub fn accept(
        &mut self,
        job_id: u64,
        tenant: &str,
        job: &JobPayload,
    ) -> Result<(), JournalError> {
        if job.b.len() != job.matrix.rows() {
            return Err(JournalError::Malformed("rhs length disagrees with rows"));
        }
        let submission = Submission::of(tenant, job);
        let hit = self
            .known
            .as_ref()
            .filter(|k| same_bits(&k.matrix, &job.matrix))
            .map(|k| (k.id, Arc::clone(&k.matrix)));
        let fresh = hit.is_none();
        // Both records go in one buffer, sized once.
        let submitted_len = HEADER_LEN + 1 + submission.body_len() + TRAILER_LEN;
        let (id, matrix, mut bytes) = if let Some((id, matrix)) = hit {
            (id, matrix, Vec::with_capacity(submitted_len))
        } else {
            // Ids are never handed out twice, even by a failed append.
            let id = self.next_matrix;
            self.next_matrix += 1;
            let matrix_len = HEADER_LEN + 9 + matrix_len(&job.matrix) + TRAILER_LEN;
            let mut bytes = Vec::with_capacity(matrix_len + submitted_len);
            put_matrix_record(&mut bytes, id, &job.matrix);
            (id, Arc::new(job.matrix.clone()), bytes)
        };
        put_submitted(&mut bytes, job_id, id, &submission);
        self.append(&bytes)?;
        if fresh {
            // Only a durable record may be named by a later accept.
            self.known = Some(Known {
                id,
                matrix: Arc::clone(&matrix),
            });
        }
        self.max_id = Some(self.max_id.map_or(job_id, |m| m.max(job_id)));
        self.pending.insert(job_id, (submission, matrix));
        Ok(())
    }

    /// Durably records a terminal outcome for `job_id`.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`JournalError::Malformed`] for a record that is
    /// not `Completed` or `Failed`.
    pub fn terminal(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let job_id = match record {
            JournalRecord::Completed { job_id, .. } | JournalRecord::Failed { job_id, .. } => {
                *job_id
            }
            _ => {
                return Err(JournalError::Malformed(
                    "terminal() given a non-terminal record",
                ))
            }
        };
        self.append(&record.encode())?;
        self.max_id = Some(self.max_id.map_or(job_id, |m| m.max(job_id)));
        self.pending.remove(&job_id);
        self.settled.insert(job_id, record.clone());
        Ok(())
    }

    /// Writes and fsyncs `bytes` (whole records) in one append.
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalError> {
        if self.wedged {
            return Err(JournalError::Io(io::Error::other(
                "journal wedged: a failed append could not be rolled back",
            )));
        }
        let result = storage::write_all(self.file.as_mut(), bytes).and_then(|()| self.file.sync());
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
            .map(|(&id, (job, matrix))| {
                let payload = JobPayload {
                    matrix: Coo::clone(matrix),
                    b: job.b.clone(),
                    tol: job.tol,
                    max_iters: job.max_iters,
                    priority: job.priority,
                };
                (id, job.tenant.clone(), payload)
            })
            .collect()
    }

    /// Atomically rewrites the journal with exactly the `Matrix` records
    /// pending jobs name (one per distinct matrix, renumbered from 1), then
    /// the pending jobs' `Submitted` records, then every terminal record,
    /// so both the recovery set and the settled history survive any number
    /// of compaction cycles. Settled jobs' submissions and unnamed
    /// matrices — the bulk of the log — are dropped, and legacy `Accepted`
    /// records come out in the new kinds. The id counter is preserved by
    /// the kept records.
    ///
    /// # Errors
    ///
    /// I/O failures; on error the original journal file is untouched.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        let mut bytes = Vec::new();
        // One id per distinct pending matrix, in pending-job order.
        let mut kept: Vec<Known> = Vec::new();
        let mut names: Vec<usize> = Vec::with_capacity(self.pending.len());
        for (_, matrix) in self.pending.values() {
            let slot = kept
                .iter()
                .position(|k| same_bits(&k.matrix, matrix))
                .unwrap_or_else(|| {
                    let id = kept.len() as u64 + 1;
                    put_matrix_record(&mut bytes, id, matrix);
                    kept.push(Known {
                        id,
                        matrix: Arc::clone(matrix),
                    });
                    kept.len() - 1
                });
            names.push(slot);
        }
        for ((&job_id, (job, _)), &slot) in self.pending.iter().zip(&names) {
            put_submitted(&mut bytes, job_id, kept[slot].id, job);
        }
        for record in self.settled.values() {
            bytes.extend_from_slice(&record.encode());
        }
        write_atomic_with(self.io.as_ref(), &self.path, &bytes)?;
        // The file now holds exactly `kept`: forget every other id, and
        // let pending jobs share the one copy of each matrix.
        for ((_, matrix), &slot) in self.pending.values_mut().zip(&names) {
            *matrix = Arc::clone(&kept[slot].matrix);
        }
        self.stats.records = kept.len() + self.pending.len() + self.settled.len();
        self.next_matrix = kept.len() as u64 + 1;
        // The last `Matrix` record written is the one a repeat may name.
        self.known = kept.pop();
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

    /// End offset of every intact record in `bytes`.
    fn record_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut pos = 0;
        while let Ok((_, used)) = JournalRecord::decode(&bytes[pos..]) {
            pos += used;
            ends.push(pos);
        }
        ends
    }

    /// Every intact record in `bytes`, in file order.
    fn records(bytes: &[u8]) -> Vec<JournalRecord> {
        let mut out = Vec::new();
        let mut pos = 0;
        while let Ok((record, used)) = JournalRecord::decode(&bytes[pos..]) {
            pos += used;
            out.push(record);
        }
        out
    }

    fn matrix_records(bytes: &[u8]) -> usize {
        records(bytes)
            .iter()
            .filter(|r| matches!(r, JournalRecord::Matrix { .. }))
            .count()
    }

    /// A job on `matrix` with a seeded right-hand side.
    fn job_on(matrix: Coo, seed: u64) -> JobPayload {
        let b = (0..matrix.rows())
            .map(|i| (i as f64 * 0.5 + seed as f64).cos())
            .collect();
        JobPayload {
            matrix,
            b,
            tol: 1e-9,
            max_iters: 50 + seed,
            priority: (seed % 3) as u8,
        }
    }

    /// Bit-for-bit equality of two payloads (`-0.0` differs from `0.0`).
    fn same_payload_bits(a: &JobPayload, b: &JobPayload) -> bool {
        same_bits(&a.matrix, &b.matrix)
            && a.b
                .iter()
                .map(|x| x.to_bits())
                .eq(b.b.iter().map(|x| x.to_bits()))
            && a.tol.to_bits() == b.tol.to_bits()
            && a.max_iters == b.max_iters
            && a.priority == b.priority
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alserve-journal-{name}-{}", std::process::id()));
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
        // One Matrix record (both jobs share the matrix), two Submitted
        // records, one Completed.
        assert_eq!(j.stats().records, 4);
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
        // Keep job 1's Matrix and Submitted records intact, tear job 2's
        // Submitted record in half.
        let one = record_ends(&full)[1];
        std::fs::write(&path, &full[..one + 7]).unwrap();
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.recover().len(), 1);
        assert_eq!(j.next_job_id(), 2);
        j.accept(2, "acme", &sample_job(9)).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.stats().records, 3);
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
        let first = record_ends(&bytes)[1];
        // Flip a byte inside job 2's record payload: CRC now fails, replay
        // stops after job 1's Matrix and Submitted records and the tail is
        // truncated.
        bytes[first + 20] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.stats().records, 2);
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

    #[test]
    fn a_repeated_matrix_is_journaled_once() {
        let dir = tempdir("once");
        let path = dir.join("jobs.wal");
        let matrix = gen::stencil27(3);
        let n = matrix.rows();
        let matrix_record = JournalRecord::Matrix {
            id: 1,
            matrix: matrix.clone(),
        }
        .encode()
        .len();
        let mut j = Journal::open(&path).unwrap();
        for id in 1..=40u64 {
            j.accept(id, "acme", &job_on(matrix.clone(), id)).unwrap();
        }
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(matrix_records(&bytes), 1);
        assert!(
            bytes.len() < matrix_record + 40 * (8 * n + 256),
            "{} bytes for 40 jobs on one matrix",
            bytes.len()
        );
        let j = Journal::open(&path).unwrap();
        let recovered = j.recover();
        assert_eq!(recovered.len(), 40);
        for (id, _, job) in &recovered {
            assert!(same_payload_bits(job, &job_on(matrix.clone(), *id)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_accepted_records_replay_and_compact_into_the_new_kinds() {
        let dir = tempdir("legacy");
        let path = dir.join("jobs.wal");
        // The committed legacy fixture: an inline Accepted, its Completed,
        // and a Failed.
        let fixture = include_bytes!("../../../tests/golden/frames/aljl.bin");
        // Plus two legacy jobs still owed, on one matrix.
        let owed = [job_on(gen::stencil27(2), 7), job_on(gen::stencil27(2), 8)];
        let mut legacy = fixture.to_vec();
        for (i, job) in owed.iter().enumerate() {
            legacy.extend_from_slice(
                &JournalRecord::Accepted {
                    job_id: 10 + i as u64,
                    tenant: "old".to_owned(),
                    job: job.clone(),
                }
                .encode(),
            );
        }
        for (stream, pending) in [(fixture.to_vec(), 0), (legacy, 2)] {
            std::fs::write(&path, &stream).unwrap();
            let mut j = Journal::open(&path).unwrap();
            assert_eq!(j.stats().torn_bytes, 0);
            let (recover, settled) = (j.recover(), j.settled());
            assert_eq!(recover.len(), pending);
            assert_eq!(settled.len(), 2);
            for ((id, tenant, job), want) in recover.iter().zip(&owed) {
                assert_eq!(tenant, "old");
                assert!(*id >= 10 && same_payload_bits(job, want));
            }
            j.compact().unwrap();
            drop(j);
            let bytes = std::fs::read(&path).unwrap();
            assert!(records(&bytes)
                .iter()
                .all(|r| !matches!(r, JournalRecord::Accepted { .. })));
            assert_eq!(matrix_records(&bytes), pending.min(1));
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.recover(), recover);
            assert_eq!(j.settled(), settled);
            assert_eq!(j.next_job_id(), if pending > 0 { 12 } else { 3 });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tear_inside_the_matrix_and_submitted_pair_keeps_acked_jobs() {
        let dir = tempdir("pair");
        let path = dir.join("jobs.wal");
        let first = job_on(gen::stencil27(2), 1);
        let second = job_on(gen::banded(8, 2, 1), 2);
        {
            let mut j = Journal::open(&path).unwrap();
            j.accept(1, "acme", &first).unwrap();
            j.accept(2, "acme", &second).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let ends = record_ends(&full);
        assert_eq!(ends.len(), 4, "two Matrix+Submitted pairs");
        let pair = ends[1]..full.len();
        for cut in [
            pair.start + 1,
            pair.start + 40,
            ends[2] - 1,
            ends[2] + 9,
            full.len() - 1,
        ] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let mut j = Journal::open(&path).unwrap();
            assert!(j.stats().torn_bytes > 0, "cut {cut} reported no torn tail");
            let recovered = j.recover();
            assert_eq!(recovered.len(), 1, "cut {cut}");
            assert_eq!(recovered[0].0, 1);
            assert!(same_payload_bits(&recovered[0].2, &first));
            // The job was never acked; its retry journals cleanly.
            j.accept(2, "acme", &second).unwrap();
            drop(j);
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.stats().torn_bytes, 0);
            let jobs: Vec<JobPayload> = j.recover().into_iter().map(|(_, _, job)| job).collect();
            assert_eq!(jobs.len(), 2);
            assert!(same_payload_bits(&jobs[0], &first) && same_payload_bits(&jobs[1], &second));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_equal_shape_matrix_with_other_bits_gets_its_own_id() {
        let dir = tempdir("twin");
        let path = dir.join("jobs.wal");
        let mut zero = Coo::new(3, 3);
        let mut negative_zero = Coo::new(3, 3);
        for (m, v) in [(&mut zero, 0.0), (&mut negative_zero, -0.0)] {
            m.push(0, 0, 4.0);
            m.push(1, 1, 4.0);
            m.push(2, 2, 4.0);
            m.push(0, 2, v);
        }
        // Equal under f64 `==`, different bits.
        assert_eq!(zero, negative_zero);
        let (a, b) = (job_on(zero, 1), job_on(negative_zero, 1));
        {
            let mut j = Journal::open(&path).unwrap();
            j.accept(1, "acme", &a).unwrap();
            j.accept(2, "acme", &a).unwrap();
            j.accept(3, "acme", &b).unwrap();
        }
        // `a` is reused once; `b` is not taken for it.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(matrix_records(&bytes), 2);
        let j = Journal::open(&path).unwrap();
        let jobs: Vec<JobPayload> = j.recover().into_iter().map(|(_, _, job)| job).collect();
        assert!(same_payload_bits(&jobs[0], &a));
        assert!(same_payload_bits(&jobs[1], &a));
        assert!(same_payload_bits(&jobs[2], &b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_job_whose_rhs_disagrees_with_its_matrix_is_refused_unwritten() {
        let dir = tempdir("rhs");
        let path = dir.join("jobs.wal");
        let mut job = sample_job(1);
        job.b.pop();
        let mut j = Journal::open(&path).unwrap();
        assert!(matches!(
            j.accept(1, "acme", &job),
            Err(JournalError::Malformed(_))
        ));
        drop(j);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_submitted_record_naming_an_unknown_matrix_is_an_open_error() {
        let dir = tempdir("unknown");
        let path = dir.join("jobs.wal");
        let job = sample_job(1);
        let record = JournalRecord::Submitted {
            job_id: 1,
            matrix: 9,
            job: Submission::of("acme", &job),
        };
        std::fs::write(&path, record.encode()).unwrap();
        match Journal::open(&path) {
            Err(JournalError::UnknownMatrix {
                job_id: 1,
                matrix: 9,
            }) => {}
            other => panic!("expected UnknownMatrix, got {other:?}"),
        }
        // Nothing was truncated.
        assert_eq!(std::fs::read(&path).unwrap(), record.encode());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_intact_record_of_an_unknown_kind_is_an_open_error() {
        let dir = tempdir("unknown-kind");
        let path = dir.join("jobs.wal");
        let mut bytes = JournalRecord::Failed {
            job_id: 1,
            error: "synthetic".to_owned(),
        }
        .encode();
        let offset = bytes.len() as u64;
        put_record(&mut bytes, TAG_SUBMITTED + 1, 8, |out| put_u64(out, 2));
        bytes.extend_from_slice(
            &JournalRecord::Failed {
                job_id: 3,
                error: "after".to_owned(),
            }
            .encode(),
        );
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open(&path) {
            Err(JournalError::UnknownRecord { tag, offset: at })
                if tag == TAG_SUBMITTED + 1 && at == offset => {}
            other => panic!("expected UnknownRecord, got {other:?}"),
        }
        // Nothing was truncated.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // The same record torn is a torn tail, as before.
        std::fs::write(&path, &bytes[..offset as usize + 10]).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.stats().torn_bytes, 10);
        assert_eq!(j.settled().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Real storage whose next sync fails once when armed, after the write
    /// landed.
    #[derive(Debug, Default)]
    struct FailNextSync(Arc<std::sync::atomic::AtomicBool>);

    struct FailingFile(Box<dyn StorageFile>, Arc<std::sync::atomic::AtomicBool>);

    impl StorageFile for FailingFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.write(buf)
        }

        fn sync(&mut self) -> io::Result<()> {
            if self.1.swap(false, std::sync::atomic::Ordering::SeqCst) {
                return Err(io::Error::other("injected fsync failure"));
            }
            self.0.sync()
        }

        fn set_len(&mut self, len: u64) -> io::Result<()> {
            self.0.set_len(len)
        }
    }

    impl StorageIo for FailNextSync {
        fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
            Ok(Box::new(FailingFile(
                RealStorage.open_append(path)?,
                Arc::clone(&self.0),
            )))
        }

        fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
            RealStorage.create(path)
        }

        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            RealStorage.read(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            RealStorage.rename(from, to)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            RealStorage.remove_file(path)
        }

        fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
            RealStorage.sync_parent_dir(path)
        }
    }

    #[test]
    fn a_rolled_back_matrix_record_is_not_named_later() {
        let dir = tempdir("rollback");
        let path = dir.join("jobs.wal");
        let storage = FailNextSync::default();
        let arm = Arc::clone(&storage.0);
        let mut j = Journal::open_with(&path, Arc::new(storage)).unwrap();
        let job = sample_job(1);
        arm.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(j.accept(1, "acme", &job).is_err());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "rolled back");
        j.accept(2, "acme", &job).unwrap();
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            matrix_records(&bytes),
            1,
            "the retry re-journals the matrix"
        );
        let j = Journal::open(&path).unwrap();
        let recovered = j.recover();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, 2);
        assert!(same_payload_bits(&recovered[0].2, &job));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_only_the_matrices_pending_jobs_name() {
        let dir = tempdir("compact-matrices");
        let path = dir.join("jobs.wal");
        let (a, b, c) = (
            gen::stencil27(2),
            gen::banded(8, 2, 1),
            gen::banded(9, 1, 2),
        );
        let mut j = Journal::open(&path).unwrap();
        j.accept(1, "acme", &job_on(a.clone(), 1)).unwrap();
        j.accept(2, "acme", &job_on(b.clone(), 2)).unwrap();
        j.accept(3, "acme", &job_on(a.clone(), 3)).unwrap();
        j.accept(4, "acme", &job_on(c.clone(), 4)).unwrap();
        for id in [2u64, 4] {
            j.terminal(&JournalRecord::Failed {
                job_id: id,
                error: "synthetic".to_owned(),
            })
            .unwrap();
        }
        j.compact().unwrap();
        // After compaction only `a` is in the file: it is reused, while
        // `b` must be journaled again.
        j.accept(5, "acme", &job_on(a.clone(), 5)).unwrap();
        j.accept(6, "acme", &job_on(b.clone(), 6)).unwrap();
        drop(j);
        let kinds: Vec<u8> = records(&std::fs::read(&path).unwrap())
            .iter()
            .map(|r| match r {
                JournalRecord::Matrix { .. } => TAG_MATRIX,
                JournalRecord::Submitted { .. } => TAG_SUBMITTED,
                JournalRecord::Failed { .. } => TAG_FAILED,
                _ => 0,
            })
            .collect();
        assert_eq!(
            kinds,
            [
                TAG_MATRIX,
                TAG_SUBMITTED,
                TAG_SUBMITTED,
                TAG_FAILED,
                TAG_FAILED,
                TAG_SUBMITTED,
                TAG_MATRIX,
                TAG_SUBMITTED
            ]
        );
        let j = Journal::open(&path).unwrap();
        let ids: Vec<u64> = j.recover().iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids, [1, 3, 5, 6]);
        for (id, _, job) in j.recover() {
            let want = match id {
                6 => &b,
                _ => &a,
            };
            assert!(same_payload_bits(&job, &job_on(want.clone(), id)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
