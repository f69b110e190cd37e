//! The `ALSV` wire protocol: length-prefixed, versioned, CRC-sealed frames.
//!
//! Every frame is laid out the same way, in the house `ALCK` codec style
//! (see `alrescha::checkpoint`):
//!
//! ```text
//! ┌───────┬─────────┬──────┬─────────────┬─────────┬────────┐
//! │ "ALSV"│ version │ tag  │ payload_len │ payload │ CRC-32 │
//! │ 4 B   │ u32 LE  │ u8   │ u32 LE      │ …       │ u32 LE │
//! └───────┴─────────┴──────┴─────────────┴─────────┴────────┘
//! ```
//!
//! Framing, the CRC-32 trailer and the bounded payload reader are the
//! shared codec of [`alrescha_obs::frame`]. The CRC covers everything
//! before it, so a torn or bit-flipped frame is detected before any field
//! is trusted. Decoding is total: corrupted input produces a typed
//! [`WireError`], never a panic, and every length field is validated
//! against the bytes actually present *before* any allocation. `f64`
//! values travel as raw IEEE-754 bits — numeric payloads survive the round
//! trip bit-exactly.

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use alrescha_obs::frame::{
    self, put_f64_vec, put_str, put_u64, u64_le, Extent, FrameError, Reader, TRAILER_LEN,
};
use alrescha_sparse::Coo;

/// Frame magic: "ALSV" (ALrescha SerVe).
pub const MAGIC: [u8; 4] = *b"ALSV";
/// Current wire-format version (2 added the job `priority` byte; 3 added
/// the [`TraceContext`] on `Submit` and the `Scrape`/`Observe` frames).
pub const VERSION: u32 = 3;
/// Oldest version this build still decodes. A v2 `Submit` payload is a
/// strict prefix of the v3 layout (the trace context is appended after
/// the priority byte), so v2 peers keep working with a zero trace.
pub const MIN_VERSION: u32 = 2;
/// Upper bound on a frame payload (a 3-D stencil system of a few million
/// rows fits comfortably; anything bigger is a corrupt length field).
pub const MAX_PAYLOAD: usize = 256 << 20;
/// Bytes of the fixed header: magic, version, tag and payload length.
pub(crate) const HEADER_LEN: usize = 13;
/// The payload length is the u32 at byte 9 of the header.
const EXTENT: Extent = Extent::Counted {
    at: 9,
    header: HEADER_LEN,
    stride: 1,
    max: MAX_PAYLOAD,
};

/// Errors raised while encoding, decoding, or transporting frames.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The bytes are not an intact, well-formed `ALSV` frame.
    Frame(FrameError),
    /// The frame tag is not one this build knows.
    UnknownFrame(u8),
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Frame(e) => write!(f, "alserve frame: {e}"),
            WireError::UnknownFrame(tag) => write!(f, "unknown frame tag {tag}"),
            WireError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Frame(e) => Some(e),
            WireError::Io(e) => Some(e),
            WireError::UnknownFrame(_) => None,
        }
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        WireError::Frame(e)
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Total length, trailer included, of the frame whose fixed header is
/// `header`: checks the magic and the payload cap, so a stream reader
/// knows how many bytes to read next.
///
/// # Errors
///
/// [`FrameError::BadMagic`] or [`FrameError::TooLarge`].
pub(crate) fn frame_len(header: &[u8; HEADER_LEN]) -> Result<usize, WireError> {
    Ok(frame::frame_len(header, MAGIC, EXTENT)?)
}

/// A solve job as submitted over the wire: the operand system plus solver
/// options. The matrix travels as COO triples with exact value bits.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPayload {
    /// The sparse SPD operand.
    pub matrix: Coo,
    /// Right-hand side.
    pub b: Vec<f64>,
    /// Relative residual tolerance.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: u64,
    /// Scheduling priority: higher levels run first; within a level the
    /// queue is stable FIFO. 0 is the default (lowest) priority.
    pub priority: u8,
}

/// Distributed-trace context carried by a [`Frame::Submit`]: the client
/// mints a `trace_id` (deterministically from its retry seed), and every
/// span the request touches — client retries, server journal fsyncs,
/// checkpoint writes, fleet job execution, engine device events — carries
/// a `trace:<trace_id as 016x>` name prefix so `alobs stitch` can line
/// the processes up on one timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Request-scoped identifier; 0 means "untraced" (v2 peers).
    pub trace_id: u64,
    /// Client-side span id that encloses the submit, for future use by
    /// viewers that support explicit parent links; 0 when absent.
    pub parent_span: u64,
}

impl TraceContext {
    /// True when this context carries no trace (v2 peer or tracing off).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.trace_id == 0 && self.parent_span == 0
    }

    /// The span-name prefix for this trace: `trace:<16 hex digits>`.
    #[must_use]
    pub fn prefix(&self) -> String {
        format!("trace:{:016x}", self.trace_id)
    }
}

/// What a [`Frame::Scrape`] asks the daemon for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScrapeKind {
    /// Prometheus text exposition of the live metrics registry.
    Metrics,
    /// One-line JSON health summary (uptime, queue, breaker states).
    Health,
    /// JSON array of every job the status board knows.
    Jobs,
    /// JSON for the `alserve top` view: queue depth, per-tenant quota
    /// burn and SLO burn rate, breaker states.
    Top,
}

impl ScrapeKind {
    fn code(self) -> u8 {
        match self {
            ScrapeKind::Metrics => 0,
            ScrapeKind::Health => 1,
            ScrapeKind::Jobs => 2,
            ScrapeKind::Top => 3,
        }
    }

    fn from_code(code: u8) -> Result<Self, FrameError> {
        Ok(match code {
            0 => ScrapeKind::Metrics,
            1 => ScrapeKind::Health,
            2 => ScrapeKind::Jobs,
            3 => ScrapeKind::Top,
            _ => return Err(FrameError::Malformed("scrape kind")),
        })
    }
}

/// The terminal payload of a completed solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The solution iterate.
    pub x: Vec<f64>,
    /// Iterations completed.
    pub iterations: u64,
    /// Final residual norm.
    pub residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Resume-invariant fingerprint
    /// ([`alrescha::JobOutput::solution_fingerprint`]): equal between an
    /// uninterrupted solve and a killed-and-recovered one.
    pub solution_fingerprint: u64,
}

/// One protocol message, client→server or server→client.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Frame {
    /// Submit a solve job under a tenant identity.
    Submit {
        /// Tenant the job is charged against.
        tenant: String,
        /// The job itself.
        job: JobPayload,
        /// Distributed-trace context (zero from v2 peers).
        trace: TraceContext,
    },
    /// Ask for a one-shot status of a job.
    Status {
        /// Journal job identifier.
        job_id: u64,
    },
    /// Block until the job is terminal, streaming progress frames.
    Wait {
        /// Journal job identifier.
        job_id: u64,
    },
    /// Liveness check.
    Ping,
    /// Stop admitting and park queued work (admin).
    Drain,
    /// The job was journaled durably and will run (or be recovered).
    Accepted {
        /// Journal job identifier assigned by the server.
        job_id: u64,
    },
    /// The job was not admitted.
    Rejected {
        /// Human-readable reason.
        reason: String,
        /// Structured backpressure hint, when the rejection is transient
        /// (queue full, quota exhausted).
        retry_after: Option<Duration>,
    },
    /// Progress of a running job (latest checkpoint boundary).
    Progress {
        /// Journal job identifier.
        job_id: u64,
        /// Completed solver iterations.
        iteration: u64,
        /// Residual norm at that boundary (NaN while still queued).
        residual: f64,
    },
    /// The job finished.
    Done {
        /// Journal job identifier.
        job_id: u64,
        /// The solve outcome.
        result: SolveResult,
    },
    /// The job failed.
    Failed {
        /// Journal job identifier.
        job_id: u64,
        /// The in-band error.
        error: String,
    },
    /// Reply to [`Frame::Ping`].
    Pong,
    /// Reply to [`Frame::Drain`]: admission is closed.
    Draining,
    /// The job id is not known to this server.
    NotFound {
        /// Journal job identifier.
        job_id: u64,
    },
    /// The job was parked by a drain and will resume on the next start.
    Parked {
        /// Journal job identifier.
        job_id: u64,
    },
    /// Ask the daemon for live introspection data (v3).
    Scrape {
        /// Which view to render.
        kind: ScrapeKind,
    },
    /// Reply to [`Frame::Scrape`]: the rendered text/JSON body.
    ScrapeReply {
        /// Exposition body (Prometheus text or JSON, per the request).
        body: String,
    },
    /// Subscribe read-only to an in-flight job's progress stream (v3).
    /// Streams the same frames as [`Frame::Wait`], but the terminal
    /// [`Frame::Done`] omits the solution vector — passive observers get
    /// scalars and the fingerprint, not the tenant's data.
    Observe {
        /// Journal job identifier.
        job_id: u64,
    },
}

impl Frame {
    fn tag(&self) -> u8 {
        match self {
            Frame::Submit { .. } => 1,
            Frame::Status { .. } => 2,
            Frame::Wait { .. } => 3,
            Frame::Ping => 4,
            Frame::Drain => 5,
            Frame::Accepted { .. } => 6,
            Frame::Rejected { .. } => 7,
            Frame::Progress { .. } => 8,
            Frame::Done { .. } => 9,
            Frame::Failed { .. } => 10,
            Frame::Pong => 11,
            Frame::Draining => 12,
            Frame::NotFound { .. } => 13,
            Frame::Parked { .. } => 14,
            Frame::Scrape { .. } => 15,
            Frame::ScrapeReply { .. } => 16,
            Frame::Observe { .. } => 17,
        }
    }

    /// Encodes the frame: header, payload, CRC-32 trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload_len() + TRAILER_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.tag());
        out.extend_from_slice(&[0; 4]); // payload length, patched below
        self.encode_payload(&mut out);
        let len = (out.len() - HEADER_LEN) as u32;
        out[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        frame::seal(&mut out);
        out
    }

    /// Bytes [`Frame::encode_payload`] writes.
    fn payload_len(&self) -> usize {
        match self {
            Frame::Submit { tenant, job, .. } => 8 + tenant.len() + job_len(job) + 16,
            Frame::Status { .. }
            | Frame::Wait { .. }
            | Frame::Observe { .. }
            | Frame::Accepted { .. }
            | Frame::NotFound { .. }
            | Frame::Parked { .. } => 8,
            Frame::Ping | Frame::Drain | Frame::Pong | Frame::Draining => 0,
            Frame::Rejected {
                reason,
                retry_after,
            } => 8 + reason.len() + 1 + if retry_after.is_some() { 8 } else { 0 },
            Frame::Progress { .. } => 24,
            Frame::Done { result, .. } => 8 + 8 + 8 * result.x.len() + 25,
            Frame::Failed { error, .. } => 8 + 8 + error.len(),
            Frame::Scrape { .. } => 1,
            Frame::ScrapeReply { body } => 8 + body.len(),
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Submit { tenant, job, trace } => {
                put_str(out, tenant);
                put_job(out, job);
                put_u64(out, trace.trace_id);
                put_u64(out, trace.parent_span);
            }
            Frame::Status { job_id }
            | Frame::Wait { job_id }
            | Frame::Observe { job_id }
            | Frame::Accepted { job_id }
            | Frame::NotFound { job_id }
            | Frame::Parked { job_id } => put_u64(out, *job_id),
            Frame::Ping | Frame::Drain | Frame::Pong | Frame::Draining => {}
            Frame::Rejected {
                reason,
                retry_after,
            } => {
                put_str(out, reason);
                match retry_after {
                    Some(d) => {
                        out.push(1);
                        put_u64(out, d.as_millis().min(u128::from(u64::MAX)) as u64);
                    }
                    None => out.push(0),
                }
            }
            Frame::Progress {
                job_id,
                iteration,
                residual,
            } => {
                put_u64(out, *job_id);
                put_u64(out, *iteration);
                put_u64(out, residual.to_bits());
            }
            Frame::Done { job_id, result } => {
                put_u64(out, *job_id);
                put_f64_vec(out, &result.x);
                put_u64(out, result.iterations);
                put_u64(out, result.residual.to_bits());
                out.push(u8::from(result.converged));
                put_u64(out, result.solution_fingerprint);
            }
            Frame::Failed { job_id, error } => {
                put_u64(out, *job_id);
                put_str(out, error);
            }
            Frame::Scrape { kind } => out.push(kind.code()),
            Frame::ScrapeReply { body } => put_str(out, body),
        }
    }

    /// Decodes one complete frame from `bytes` (header through CRC).
    ///
    /// # Errors
    ///
    /// Every malformation is a typed [`WireError`]; never panics on
    /// arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (body, len) = frame::open(bytes, MAGIC, EXTENT)?;
        if len != bytes.len() {
            return Err(FrameError::Malformed("trailing bytes after frame").into());
        }
        let mut rd = Reader::new(body);
        let version = rd.u32()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(FrameError::UnsupportedVersion(version).into());
        }
        let tag = rd.u8()?;
        rd.u32()?; // the payload length `open` already checked
        let frame = Frame::decode_payload(tag, version, &mut rd)?;
        rd.finish()?;
        Ok(frame)
    }

    fn decode_payload(tag: u8, version: u32, rd: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match tag {
            1 => {
                let tenant = rd.string()?;
                let job = read_job(rd)?;
                // v2 ends at the priority byte; v3 appends the trace.
                let trace = if version >= 3 {
                    TraceContext {
                        trace_id: rd.u64()?,
                        parent_span: rd.u64()?,
                    }
                } else {
                    TraceContext::default()
                };
                Frame::Submit { tenant, job, trace }
            }
            2 => Frame::Status { job_id: rd.u64()? },
            3 => Frame::Wait { job_id: rd.u64()? },
            4 => Frame::Ping,
            5 => Frame::Drain,
            6 => Frame::Accepted { job_id: rd.u64()? },
            7 => {
                let reason = rd.string()?;
                let retry_after = match rd.u8()? {
                    0 => None,
                    1 => Some(Duration::from_millis(rd.u64()?)),
                    _ => return Err(FrameError::Malformed("retry_after flag").into()),
                };
                Frame::Rejected {
                    reason,
                    retry_after,
                }
            }
            8 => Frame::Progress {
                job_id: rd.u64()?,
                iteration: rd.u64()?,
                residual: rd.f64()?,
            },
            9 => {
                let job_id = rd.u64()?;
                let x = rd.f64_vec()?;
                let iterations = rd.u64()?;
                let residual = rd.f64()?;
                let converged = match rd.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::Malformed("converged flag").into()),
                };
                let solution_fingerprint = rd.u64()?;
                Frame::Done {
                    job_id,
                    result: SolveResult {
                        x,
                        iterations,
                        residual,
                        converged,
                        solution_fingerprint,
                    },
                }
            }
            10 => Frame::Failed {
                job_id: rd.u64()?,
                error: rd.string()?,
            },
            11 => Frame::Pong,
            12 => Frame::Draining,
            13 => Frame::NotFound { job_id: rd.u64()? },
            14 => Frame::Parked { job_id: rd.u64()? },
            15 => Frame::Scrape {
                kind: ScrapeKind::from_code(rd.u8()?)?,
            },
            16 => Frame::ScrapeReply { body: rd.string()? },
            17 => Frame::Observe { job_id: rd.u64()? },
            other => return Err(WireError::UnknownFrame(other)),
        })
    }

    /// Writes one frame to a blocking transport.
    ///
    /// # Errors
    ///
    /// Transport errors ([`WireError::Io`]).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.encode())?;
        w.flush()?;
        Ok(())
    }

    /// Reads one complete frame from a blocking transport.
    ///
    /// # Errors
    ///
    /// Transport errors, or any [`WireError`] the frame fails to decode
    /// with. A clean EOF before the first header byte surfaces as
    /// [`WireError::Io`] with [`io::ErrorKind::UnexpectedEof`].
    pub fn read_from(r: &mut impl Read) -> Result<Self, WireError> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let len = frame_len(&header)?;
        // Read straight into spare capacity: no zero-fill, no second copy.
        let mut whole = Vec::with_capacity(len);
        whole.extend_from_slice(&header);
        r.take((len - HEADER_LEN) as u64).read_to_end(&mut whole)?;
        if whole.len() < len {
            return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
        }
        Frame::decode(&whole)
    }
}

/// Bytes [`put_matrix`] writes for `matrix`.
pub(crate) fn matrix_len(matrix: &Coo) -> usize {
    24 + 24 * matrix.entries().len()
}

/// Bytes [`put_job`] writes for `job`.
pub(crate) fn job_len(job: &JobPayload) -> usize {
    matrix_len(&job.matrix) + 8 + 8 * job.b.len() + 17
}

/// Appends a matrix: rows, cols, the entry count, then one
/// `(row, col, value bits)` triple of u64s per entry.
pub(crate) fn put_matrix(out: &mut Vec<u8>, matrix: &Coo) {
    put_u64(out, matrix.rows() as u64);
    put_u64(out, matrix.cols() as u64);
    put_u64(out, matrix.entries().len() as u64);
    let start = out.len();
    out.resize(start + 24 * matrix.entries().len(), 0);
    for (slot, &(r, c, v)) in out[start..].chunks_exact_mut(24).zip(matrix.entries()) {
        slot[..8].copy_from_slice(&(r as u64).to_le_bytes());
        slot[8..16].copy_from_slice(&(c as u64).to_le_bytes());
        slot[16..].copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Appends a job's operand system and solver options.
pub(crate) fn put_job(out: &mut Vec<u8>, job: &JobPayload) {
    put_matrix(out, &job.matrix);
    put_f64_vec(out, &job.b);
    put_u64(out, job.tol.to_bits());
    put_u64(out, job.max_iters);
    out.push(job.priority);
}

/// Reads what [`put_matrix`] wrote; the entry count is checked against the
/// bytes present before the matrix grows.
pub(crate) fn read_matrix(rd: &mut Reader<'_>) -> Result<Coo, FrameError> {
    let rows = rd.usize("rows")?;
    let cols = rd.usize("cols")?;
    let nnz = rd.u64()?;
    let nnz = rd.checked_len(nnz, 24)?;
    let raw = rd.take(24 * nnz)?;
    let mut matrix = Coo::with_capacity(rows, cols, nnz);
    for entry in raw.chunks_exact(24) {
        let r =
            usize::try_from(u64_le(&entry[..8])).map_err(|_| FrameError::Malformed("entry row"))?;
        let c = usize::try_from(u64_le(&entry[8..16]))
            .map_err(|_| FrameError::Malformed("entry col"))?;
        let v = f64::from_bits(u64_le(&entry[16..]));
        matrix
            .try_push(r, c, v)
            .map_err(|_| FrameError::Malformed("entry out of bounds"))?;
    }
    Ok(matrix)
}

/// Reads what [`put_job`] wrote.
pub(crate) fn read_job(rd: &mut Reader<'_>) -> Result<JobPayload, FrameError> {
    let matrix = read_matrix(rd)?;
    let rows = matrix.rows();
    let b = rd.f64_vec()?;
    let tol = rd.f64()?;
    let max_iters = rd.u64()?;
    let priority = rd.u8()?;
    if b.len() != rows {
        return Err(FrameError::Malformed("rhs length disagrees with rows"));
    }
    Ok(JobPayload {
        matrix,
        b,
        tol,
        max_iters,
        priority,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alrescha_sparse::gen;

    fn sample_job() -> JobPayload {
        let matrix = gen::stencil27(2);
        let b: Vec<f64> = (0..matrix.rows()).map(|i| (i % 3) as f64 - 1.25).collect();
        JobPayload {
            matrix,
            b,
            tol: 1e-9,
            max_iters: 120,
            priority: 0,
        }
    }

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Submit {
                tenant: "tenant-α".to_owned(),
                job: sample_job(),
                trace: TraceContext {
                    trace_id: 0x0123_4567_89AB_CDEF,
                    parent_span: 7,
                },
            },
            Frame::Status { job_id: 7 },
            Frame::Wait { job_id: u64::MAX },
            Frame::Ping,
            Frame::Drain,
            Frame::Accepted { job_id: 42 },
            Frame::Rejected {
                reason: "queue full".to_owned(),
                retry_after: Some(Duration::from_millis(75)),
            },
            Frame::Rejected {
                reason: "unknown tenant".to_owned(),
                retry_after: None,
            },
            Frame::Progress {
                job_id: 3,
                iteration: 17,
                residual: 1.25e-4,
            },
            Frame::Done {
                job_id: 3,
                result: SolveResult {
                    x: vec![1.0, -2.5, f64::MIN_POSITIVE],
                    iterations: 23,
                    residual: 9.5e-11,
                    converged: true,
                    solution_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                },
            },
            Frame::Failed {
                job_id: 9,
                error: "pcg breakdown at iteration 4".to_owned(),
            },
            Frame::Pong,
            Frame::Draining,
            Frame::NotFound { job_id: 404 },
            Frame::Parked { job_id: 11 },
            Frame::Scrape {
                kind: ScrapeKind::Metrics,
            },
            Frame::Scrape {
                kind: ScrapeKind::Top,
            },
            Frame::ScrapeReply {
                body: "# HELP alserve_jobs_total jobs\n".to_owned(),
            },
            Frame::Observe { job_id: 12 },
        ]
    }

    #[test]
    fn every_frame_round_trips_bit_exactly() {
        for frame in frames() {
            let bytes = frame.encode();
            let decoded = Frame::decode(&bytes).unwrap();
            assert_eq!(frame, decoded);
        }
    }

    #[test]
    fn encode_sizes_every_frame_exactly() {
        for frame in frames() {
            let bytes = frame.encode();
            assert_eq!(
                bytes.len(),
                HEADER_LEN + frame.payload_len() + 4,
                "{frame:?}"
            );
            assert_eq!(bytes.len(), bytes.capacity(), "{frame:?} grew its buffer");
        }
    }

    #[test]
    fn submit_preserves_matrix_value_bits() {
        let frame = Frame::Submit {
            tenant: "t".to_owned(),
            job: sample_job(),
            trace: TraceContext::default(),
        };
        let Frame::Submit { job, .. } = Frame::decode(&frame.encode()).unwrap() else {
            panic!("wrong frame");
        };
        let orig = sample_job();
        for (a, b) in orig.matrix.entries().iter().zip(job.matrix.entries()) {
            assert_eq!(a.2.to_bits(), b.2.to_bits());
        }
        for (a, b) in orig.b.iter().zip(&job.b) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corruption_and_truncation_are_typed_errors() {
        for frame in frames() {
            let bytes = frame.encode();
            for len in 0..bytes.len() {
                assert!(
                    Frame::decode(&bytes[..len]).is_err(),
                    "truncation to {len} went undetected"
                );
            }
            // Flip one byte in a few positions spread across the frame.
            for i in [0, 5, 8, bytes.len() / 2, bytes.len() - 1] {
                let mut bad = bytes.clone();
                bad[i] ^= 0x20;
                assert!(Frame::decode(&bad).is_err(), "flip at {i} went undetected");
            }
        }
    }

    #[test]
    fn stream_read_write_round_trips() {
        let mut buf = Vec::new();
        for frame in frames() {
            frame.write_to(&mut buf).unwrap();
        }
        let mut cursor = io::Cursor::new(buf);
        for frame in frames() {
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), frame);
        }
        // Clean EOF afterwards.
        match Frame::read_from(&mut cursor) {
            Err(WireError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected EOF, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_fields_do_not_allocate() {
        // A Done frame whose x-vector length is absurd: decode must reject
        // on the validated length, not attempt the allocation.
        let frame = Frame::Done {
            job_id: 1,
            result: SolveResult {
                x: vec![1.0],
                iterations: 1,
                residual: 0.5,
                converged: false,
                solution_fingerprint: 1,
            },
        };
        let mut bytes = frame.encode();
        // x length lives right after the 13-byte header + 8-byte job id.
        bytes[21..29].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut bytes);
        match Frame::decode(&bytes) {
            Err(WireError::Frame(FrameError::Truncated { .. } | FrameError::Malformed(_))) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }
    }

    /// Replaces the CRC trailer after a deliberate edit.
    fn reseal(bytes: &mut Vec<u8>) {
        bytes.truncate(bytes.len() - frame::TRAILER_LEN);
        frame::seal(bytes);
    }

    /// Encodes a Submit exactly as a v2 peer would: version 2 in the
    /// header, payload ending at the priority byte.
    fn encode_v2_submit(tenant: &str, job: &JobPayload) -> Vec<u8> {
        let mut payload = Vec::new();
        put_str(&mut payload, tenant);
        put_job(&mut payload, job);
        let mut out = Vec::with_capacity(17 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&2u32.to_le_bytes());
        out.push(1); // Submit
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        frame::seal(&mut out);
        out
    }

    #[test]
    fn v2_submit_decodes_with_a_zero_trace() {
        let bytes = encode_v2_submit("legacy", &sample_job());
        let Frame::Submit { tenant, job, trace } = Frame::decode(&bytes).unwrap() else {
            panic!("wrong frame");
        };
        assert_eq!(tenant, "legacy");
        assert_eq!(job, sample_job());
        assert!(trace.is_zero());
    }

    #[test]
    fn v2_frames_without_trailing_trace_still_round_trip() {
        // Non-Submit v2 frames are byte-identical to v3 except the header
        // version; all must decode.
        for frame in [Frame::Ping, Frame::Status { job_id: 3 }] {
            let mut bytes = frame.encode();
            bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
            reseal(&mut bytes);
            assert_eq!(Frame::decode(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn trace_prefix_is_sixteen_hex_digits() {
        let t = TraceContext {
            trace_id: 0xBEEF,
            parent_span: 0,
        };
        assert_eq!(t.prefix(), "trace:000000000000beef");
        assert!(!t.is_zero());
        assert!(TraceContext::default().is_zero());
    }

    #[test]
    fn unknown_tag_and_future_version_are_rejected() {
        let mut bytes = Frame::Ping.encode();
        bytes[8] = 200;
        reseal(&mut bytes);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::UnknownFrame(200))
        ));

        let mut bytes = Frame::Ping.encode();
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        reseal(&mut bytes);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::Frame(FrameError::UnsupportedVersion(9)))
        ));
    }
}
