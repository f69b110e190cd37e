//! Reconnecting `alserve` client with deadline, bounded retries, and
//! deterministic equal-jitter backoff.
//!
//! Transient conditions — a dropped connection (the server was killed and
//! is restarting), a `Rejected { retry_after }` backpressure frame — are
//! retried inside the operation's deadline. The backoff is *equal-jitter*
//! over a capped exponential: attempt `k` sleeps `cap(base·2ᵏ)/2 +
//! U(0, cap(base·2ᵏ)/2)`, with the uniform draw taken from a seeded
//! splitmix64 stream so a test run is reproducible. When the server hints
//! `retry_after`, the client honors the larger of hint and backoff — the
//! hint spreads the retry ramp across rejected clients, the jitter breaks
//! ties within it.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alrescha_obs::Telemetry;

use crate::protocol::{Frame, JobPayload, ScrapeKind, SolveResult, TraceContext, WireError};
use crate::server::Stream;

/// Retry/backoff policy for one client.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total wall-clock budget per operation (connect + retries + waits).
    pub deadline: Duration,
    /// Maximum attempts per operation (≥ 1).
    pub max_attempts: u32,
    /// Base backoff unit.
    pub base: Duration,
    /// Backoff cap.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            deadline: Duration::from_secs(30),
            max_attempts: 100,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 0x5EED_CAFE,
        }
    }
}

impl RetryPolicy {
    /// Equal-jitter backoff for attempt `k` (0-based), advancing the
    /// jitter stream.
    fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .min(self.cap);
        let half = exp / 2;
        let span = half.as_millis().min(u128::from(u64::MAX)) as u64;
        let jitter = if span == 0 {
            0
        } else {
            splitmix64(rng) % (span + 1)
        };
        half + Duration::from_millis(jitter)
    }
}

use alrescha::util::splitmix64;

/// Salt xor'd into the policy seed to derive the trace-id stream, so the
/// jitter and trace streams are distinct but both reproducible per seed.
const TRACE_STREAM_SALT: u64 = 0x7472_6163_6531_3634; // "trace164"

/// Client-side errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The operation's deadline or attempt budget ran out.
    Deadline {
        /// Wall-clock spent before giving up.
        waited: Duration,
        /// Attempts made.
        attempts: u32,
    },
    /// The server rejected the submission permanently (no retry hint).
    Rejected {
        /// The server's reason.
        reason: String,
    },
    /// The job reached a terminal failure on the server.
    JobFailed {
        /// Job identifier.
        job_id: u64,
        /// The server's error string.
        error: String,
    },
    /// The job id is unknown to the server (e.g. its journal was lost).
    NotFound {
        /// Job identifier.
        job_id: u64,
    },
    /// The server answered with a frame the protocol does not allow here.
    Protocol(&'static str),
    /// Transport or codec failure that retries could not absorb.
    Wire(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Deadline { waited, attempts } => write!(
                f,
                "deadline exhausted after {attempts} attempts ({}ms)",
                waited.as_millis()
            ),
            ClientError::Rejected { reason } => write!(f, "rejected: {reason}"),
            ClientError::JobFailed { job_id, error } => {
                write!(f, "job {job_id} failed on the server: {error}")
            }
            ClientError::NotFound { job_id } => write!(f, "job {job_id} not found"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One-shot job status as reported by [`Client::status`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobStatus {
    /// Queued or running; iteration 0 with NaN residual means queued.
    InProgress {
        /// Completed iterations at the last checkpoint boundary.
        iteration: u64,
        /// Residual at that boundary (NaN while queued).
        residual: f64,
    },
    /// Finished.
    Done(SolveResult),
    /// Failed on the server.
    Failed(String),
    /// Parked by a drain; will resume on the server's next start.
    Parked,
    /// Unknown job id.
    NotFound,
}

/// How one attempt of a retried operation ended, as classified by the
/// operation's attempt body for [`Client::retry`].
enum Step<T> {
    /// The operation succeeded.
    Done(T),
    /// The operation failed for good.
    Fail(ClientError),
    /// Try again after a backoff of at least `hint`, first dropping the
    /// connection when `reconnect` is set.
    Retry {
        hint: Option<Duration>,
        reconnect: bool,
    },
    /// The deadline ran out inside the attempt: give up without another
    /// backoff.
    Expired,
}

impl<T> Step<T> {
    /// Drop the connection and try again after a plain backoff.
    const RECONNECT: Self = Step::Retry {
        hint: None,
        reconnect: true,
    };

    /// Classifies the replies every request/response operation treats
    /// alike: a hinted rejection is transient (re-ask on a fresh
    /// connection), an unhinted one permanent, any other frame a protocol
    /// violation, and a transport or codec failure a reconnect.
    fn common(reply: Result<Frame, WireError>, unexpected: &'static str) -> Self {
        match reply {
            Ok(Frame::Rejected {
                retry_after: Some(hint),
                ..
            }) => Step::Retry {
                hint: Some(hint),
                reconnect: true,
            },
            Ok(Frame::Rejected {
                reason,
                retry_after: None,
            }) => Step::Fail(ClientError::Rejected { reason }),
            Ok(_) => Step::Fail(ClientError::Protocol(unexpected)),
            Err(_) => Step::RECONNECT,
        }
    }
}

#[derive(Debug, Clone)]
enum Target {
    Tcp(String),
    Unix(PathBuf),
}

/// A reconnecting `alserve` client.
pub struct Client {
    target: Target,
    policy: RetryPolicy,
    rng: u64,
    conn: Option<Stream>,
    /// Optional span/metric sink; spans carry `trace:<id>:` prefixes that
    /// `alobs stitch` lines up with the server's trace file.
    telemetry: Option<Arc<Telemetry>>,
    /// Deterministic trace-id stream, decoupled from the jitter stream so
    /// tracing never perturbs the retry schedule (and vice versa).
    trace_rng: u64,
    /// job_id → trace_id for jobs this client submitted, so `wait` spans
    /// join the same trace as the submit that created the job.
    traces: HashMap<u64, u64>,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client")
            .field("target", &self.target)
            .field("connected", &self.conn.is_some())
            .finish_non_exhaustive()
    }
}

impl Client {
    /// A client for a TCP server at `addr` (`host:port`).
    pub fn tcp(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let rng = policy.seed;
        let trace_rng = policy.seed ^ TRACE_STREAM_SALT;
        Client {
            target: Target::Tcp(addr.into()),
            policy,
            rng,
            conn: None,
            telemetry: None,
            trace_rng,
            traces: HashMap::new(),
        }
    }

    /// A client for a unix-socket server at `path`.
    pub fn unix(path: impl Into<PathBuf>, policy: RetryPolicy) -> Self {
        let rng = policy.seed;
        let trace_rng = policy.seed ^ TRACE_STREAM_SALT;
        Client {
            target: Target::Unix(path.into()),
            policy,
            rng,
            conn: None,
            telemetry: None,
            trace_rng,
            traces: HashMap::new(),
        }
    }

    /// Attaches a telemetry sink: client-side spans (`submit`, `wait`,
    /// reconnect markers) are recorded with the trace-id prefix the
    /// server's spans share.
    #[must_use]
    pub fn with_telemetry(mut self, tele: Arc<Telemetry>) -> Self {
        self.telemetry = Some(tele);
        self
    }

    /// Mints the next nonzero trace id from the deterministic stream.
    fn mint_trace_id(&mut self) -> u64 {
        loop {
            let id = splitmix64(&mut self.trace_rng);
            if id != 0 {
                return id;
            }
        }
    }

    /// The trace id minted for `job_id`'s submit, if this client made it.
    #[must_use]
    pub fn trace_id_of(&self, job_id: u64) -> Option<u64> {
        self.traces.get(&job_id).copied()
    }

    /// Stamps a trace instant; untraced operations (`trace_id` 0) skip it.
    fn trace_instant(&self, trace_id: u64, what: &str) {
        if let Some(tele) = self.telemetry.as_ref().filter(|_| trace_id != 0) {
            tele.instant(format!("trace:{trace_id:016x}:{what}"));
        }
    }

    fn connect(&mut self) -> io::Result<&mut Stream> {
        if self.conn.is_none() {
            let stream = match &self.target {
                Target::Tcp(addr) => {
                    let s = TcpStream::connect(addr)?;
                    s.set_nodelay(true).ok();
                    Stream::Tcp(s)
                }
                Target::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            };
            stream.set_read_timeout(Some(Duration::from_millis(250)))?;
            self.conn = Some(stream);
        }
        match self.conn.as_mut() {
            Some(s) => Ok(s),
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "no connection")),
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
    }

    /// The retry loop every retried operation runs. `attempt` makes one
    /// try, given the operation's start instant, and classifies the reply;
    /// this loop alone owns the attempt budget and deadline, the jitter
    /// draw and sleep (the larger of backoff and any server hint), and
    /// reconnects, which it marks on `trace_id`'s trace.
    fn retry<T>(
        &mut self,
        trace_id: u64,
        mut attempt: impl FnMut(&mut Self, Instant) -> Step<T>,
    ) -> Result<T, ClientError> {
        let started = Instant::now();
        let mut attempts = 0u32;
        while attempts < self.policy.max_attempts && started.elapsed() < self.policy.deadline {
            match attempt(self, started) {
                Step::Done(value) => return Ok(value),
                Step::Fail(e) => return Err(e),
                Step::Expired => break,
                Step::Retry { hint, reconnect } => {
                    if reconnect {
                        self.trace_instant(trace_id, "reconnect");
                        self.drop_conn();
                    }
                    let backoff = self.policy.backoff(attempts, &mut self.rng);
                    std::thread::sleep(hint.map_or(backoff, |hint| hint.max(backoff)));
                }
            }
            attempts += 1;
        }
        Err(ClientError::Deadline {
            waited: started.elapsed(),
            attempts,
        })
    }

    /// One request/response exchange, absorbing read timeouts (the reply
    /// may lag the request while the server is busy).
    fn exchange(&mut self, request: &Frame, started: Instant) -> Result<Frame, WireError> {
        let deadline = self.policy.deadline;
        let stream = self.connect().map_err(WireError::Io)?;
        request.write_to(stream)?;
        loop {
            match Frame::read_from(stream) {
                Ok(frame) => return Ok(frame),
                Err(WireError::Io(e))
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if started.elapsed() >= deadline {
                        return Err(WireError::Io(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "reply deadline exhausted",
                        )));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Submits a job, retrying through disconnects and backpressure until
    /// the server durably accepts it. Returns the assigned job id.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] on a permanent rejection,
    /// [`ClientError::Deadline`] when the budget runs out, or a wire
    /// error no retry could absorb.
    pub fn submit(&mut self, tenant: &str, job: &JobPayload) -> Result<u64, ClientError> {
        // One trace id per submit *operation*: every retry of this job
        // carries the same id, so the stitched timeline shows the whole
        // gauntlet (rejections, reconnects, the final accept) as one
        // trace even across a server restart.
        let trace_id = self.mint_trace_id();
        let tele = self.telemetry.clone();
        let _span = alrescha_obs::span!(tele, format!("trace:{trace_id:016x}:submit"));
        let request = Frame::Submit {
            tenant: tenant.to_owned(),
            job: job.clone(),
            trace: TraceContext {
                trace_id,
                parent_span: 0,
            },
        };
        self.retry(trace_id, |client, started| {
            match client.exchange(&request, started) {
                Ok(Frame::Accepted { job_id }) => {
                    client.traces.insert(job_id, trace_id);
                    Step::Done(job_id)
                }
                // Transient backpressure: keep the connection, honor the
                // hint, jitter on top.
                Ok(Frame::Rejected {
                    retry_after: Some(hint),
                    ..
                }) => {
                    client.trace_instant(trace_id, "rejected-transient");
                    Step::Retry {
                        hint: Some(hint),
                        reconnect: false,
                    }
                }
                // Admission is closed here; back off and retry (the
                // operator may restart the server within our budget).
                Ok(Frame::Draining) => Step::RECONNECT,
                reply => Step::common(reply, "unexpected reply to Submit"),
            }
        })
    }

    /// One-shot status query.
    ///
    /// # Errors
    ///
    /// Deadline exhaustion or unabsorbed wire errors.
    pub fn status(&mut self, job_id: u64) -> Result<JobStatus, ClientError> {
        let request = Frame::Status { job_id };
        self.retry(0, |client, started| {
            match client.exchange(&request, started) {
                Ok(Frame::Progress {
                    iteration,
                    residual,
                    ..
                }) => Step::Done(JobStatus::InProgress {
                    iteration,
                    residual,
                }),
                Ok(Frame::Done { result, .. }) => Step::Done(JobStatus::Done(result)),
                Ok(Frame::Failed { error, .. }) => Step::Done(JobStatus::Failed(error)),
                Ok(Frame::Parked { .. }) => Step::Done(JobStatus::Parked),
                Ok(Frame::NotFound { .. }) => Step::Done(JobStatus::NotFound),
                // A transient rejection (e.g. the server CRC-rejected a
                // transport-damaged frame and hung up) is re-asked on a
                // fresh connection.
                reply => Step::common(reply, "unexpected reply to Status"),
            }
        })
    }

    /// Blocks until `job_id` is terminal, reconnecting through server
    /// restarts (a parked or recovering job is simply waited out).
    ///
    /// # Errors
    ///
    /// [`ClientError::JobFailed`] when the job failed server-side,
    /// [`ClientError::NotFound`] for an unknown id, or
    /// [`ClientError::Deadline`].
    pub fn wait(&mut self, job_id: u64) -> Result<SolveResult, ClientError> {
        self.wait_inner(job_id, false)
    }

    /// Passively observes a job this client did **not** necessarily
    /// submit: streams the same progress a waiter sees, but read-only —
    /// the terminal `Done` arrives with the solution vector stripped
    /// (scalars and fingerprint intact).
    ///
    /// # Errors
    ///
    /// Same surface as [`Client::wait`].
    pub fn observe(&mut self, job_id: u64) -> Result<SolveResult, ClientError> {
        self.wait_inner(job_id, true)
    }

    fn wait_inner(&mut self, job_id: u64, observe: bool) -> Result<SolveResult, ClientError> {
        let trace_id = self.traces.get(&job_id).copied().unwrap_or(0);
        let tele = self.telemetry.clone();
        let verb = if observe { "observe" } else { "wait" };
        let _span = (trace_id != 0)
            .then(|| alrescha_obs::span!(tele, format!("trace:{trace_id:016x}:{verb}:{job_id}")))
            .flatten();
        let request = if observe {
            Frame::Observe { job_id }
        } else {
            Frame::Wait { job_id }
        };
        self.retry(trace_id, |client, started| {
            let deadline = client.policy.deadline;
            let Ok(stream) = client.connect() else {
                return Step::Retry {
                    hint: None,
                    reconnect: false,
                };
            };
            if request.write_to(stream).is_err() {
                return Step::RECONNECT;
            }
            // Stream Progress frames until a terminal one.
            loop {
                if started.elapsed() >= deadline {
                    return Step::Expired;
                }
                match Frame::read_from(stream) {
                    Ok(Frame::Progress { .. }) => {}
                    Err(WireError::Io(e))
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Ok(Frame::Done { result, .. }) => return Step::Done(result),
                    Ok(Frame::Failed { error, .. }) => {
                        return Step::Fail(ClientError::JobFailed { job_id, error })
                    }
                    // Parked: the server drained. Keep waiting — a restart
                    // inside our deadline will resume and finish the job.
                    // A transient rejection (the server CRC-rejected a
                    // transport-damaged Wait frame and hung up) re-waits
                    // the same way, without the hint.
                    Ok(
                        Frame::Parked { .. }
                        | Frame::Rejected {
                            retry_after: Some(_),
                            ..
                        },
                    ) => return Step::RECONNECT,
                    Ok(Frame::NotFound { .. }) => {
                        return Step::Fail(ClientError::NotFound { job_id })
                    }
                    // Server died mid-wait: reconnect and re-wait. The
                    // journal guarantees the job is still owed.
                    reply => return Step::common(reply, "unexpected frame during Wait"),
                }
            }
        })
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Wire errors (no retries — ping is the probe primitive).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.exchange(&Frame::Ping, Instant::now()) {
            Ok(Frame::Pong) => Ok(()),
            Ok(_) => Err(ClientError::Protocol("unexpected reply to Ping")),
            Err(e) => {
                self.drop_conn();
                Err(e.into())
            }
        }
    }

    /// Asks the server to drain (stop admitting, park queued jobs).
    ///
    /// # Errors
    ///
    /// Wire errors.
    pub fn drain(&mut self) -> Result<(), ClientError> {
        match self.exchange(&Frame::Drain, Instant::now()) {
            Ok(Frame::Draining) => Ok(()),
            Ok(_) => Err(ClientError::Protocol("unexpected reply to Drain")),
            Err(e) => {
                self.drop_conn();
                Err(e.into())
            }
        }
    }

    /// Live introspection: asks the daemon for one scrape body (Prometheus
    /// metrics, health JSON, the job table, or the per-tenant top view).
    ///
    /// # Errors
    ///
    /// Deadline exhaustion or unabsorbed wire errors.
    pub fn scrape(&mut self, kind: ScrapeKind) -> Result<String, ClientError> {
        let request = Frame::Scrape { kind };
        self.retry(0, |client, started| {
            match client.exchange(&request, started) {
                Ok(Frame::ScrapeReply { body }) => Step::Done(body),
                reply => Step::common(reply, "unexpected reply to Scrape"),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread::JoinHandle;

    fn policy_fast() -> RetryPolicy {
        RetryPolicy {
            deadline: Duration::from_secs(5),
            max_attempts: 50,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
            seed: 42,
        }
    }

    fn sample_job() -> JobPayload {
        let matrix = alrescha_sparse::gen::stencil27(2);
        let b = vec![1.0; matrix.rows()];
        JobPayload {
            matrix,
            b,
            tol: 1e-8,
            max_iters: 50,
            priority: 0,
        }
    }

    /// A scripted one-connection-at-a-time server: for each accepted
    /// connection, reads one frame and answers from the script.
    fn scripted_server(replies: Vec<Frame>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            for reply in replies {
                let (mut s, _) = listener.accept().unwrap();
                let _ = Frame::read_from(&mut s);
                reply.write_to(&mut s).unwrap();
                // Drop the connection after each reply so the client's
                // next attempt reconnects.
            }
        });
        (addr, h)
    }

    #[test]
    fn submit_retries_through_backpressure_until_accepted() {
        let (addr, h) = scripted_server(vec![
            Frame::Rejected {
                reason: "queue full".to_owned(),
                retry_after: Some(Duration::from_millis(2)),
            },
            Frame::Rejected {
                reason: "queue full".to_owned(),
                retry_after: Some(Duration::from_millis(2)),
            },
            Frame::Accepted { job_id: 77 },
        ]);
        let mut client = Client::tcp(addr, policy_fast());
        // Each scripted connection closes after its reply, so the client
        // must also absorb the reconnects.
        let job_id = client.submit("t", &sample_job()).unwrap();
        assert_eq!(job_id, 77);
        h.join().unwrap();
    }

    #[test]
    fn permanent_rejection_is_not_retried() {
        let (addr, h) = scripted_server(vec![Frame::Rejected {
            reason: "malformed job".to_owned(),
            retry_after: None,
        }]);
        let mut client = Client::tcp(addr, policy_fast());
        match client.submit("t", &sample_job()) {
            Err(ClientError::Rejected { reason }) => assert!(reason.contains("malformed")),
            other => panic!("expected permanent rejection, got {other:?}"),
        }
        h.join().unwrap();
    }

    #[test]
    fn submit_reconnects_after_connection_drop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            // First connection: read the frame, hang up without replying.
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 64];
            let _ = s.read(&mut buf);
            drop(s);
            // Second connection: accept properly.
            let (mut s, _) = listener.accept().unwrap();
            let _ = Frame::read_from(&mut s);
            Frame::Accepted { job_id: 5 }.write_to(&mut s).unwrap();
        });
        let mut client = Client::tcp(addr, policy_fast());
        assert_eq!(client.submit("t", &sample_job()).unwrap(), 5);
        h.join().unwrap();
    }

    #[test]
    fn deadline_bounds_submit_against_a_dead_server() {
        // Nothing listens on this address (bind then drop to reserve-free).
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut client = Client::tcp(
            addr,
            RetryPolicy {
                deadline: Duration::from_millis(100),
                max_attempts: 1000,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                seed: 7,
            },
        );
        let started = Instant::now();
        match client.submit("t", &sample_job()) {
            Err(ClientError::Deadline { attempts, .. }) => assert!(attempts > 0),
            other => panic!("expected deadline, got {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(3));
    }

    #[test]
    fn retry_schedule_is_deterministic_across_reconnects_for_a_fixed_seed() {
        // Two clients with the same policy seed, driven through an
        // identical gauntlet (backpressure, transient CRC-style
        // rejection, a dropped connection, then acceptance — every reply
        // on a fresh connection), must consume their jitter streams in
        // lockstep: same answer, same private rng end-state. This is the
        // chaos harness's replayability contract — a CHAOS_SEED rerun
        // reproduces the client's exact backoff schedule.
        let script = || {
            vec![
                Frame::Rejected {
                    reason: "queue full".to_owned(),
                    retry_after: Some(Duration::from_millis(1)),
                },
                Frame::Rejected {
                    reason: "frame CRC mismatch".to_owned(),
                    retry_after: Some(Duration::from_millis(1)),
                },
                Frame::Rejected {
                    reason: "storage pressure".to_owned(),
                    retry_after: Some(Duration::from_millis(2)),
                },
                Frame::Accepted { job_id: 9 },
            ]
        };
        let run = |seed: u64| {
            let (addr, h) = scripted_server(script());
            let mut client = Client::tcp(
                addr,
                RetryPolicy {
                    seed,
                    ..policy_fast()
                },
            );
            let id = client.submit("t", &sample_job()).unwrap();
            h.join().unwrap();
            (id, client.rng)
        };
        let (id_a, rng_a) = run(0xD00D);
        let (id_b, rng_b) = run(0xD00D);
        assert_eq!(id_a, 9);
        assert_eq!(id_b, 9);
        assert_eq!(
            rng_a, rng_b,
            "identical seeds through identical reconnect gauntlets must end in identical rng states"
        );
        // A different seed lands the job but walks a different stream.
        let (id_c, rng_c) = run(0xBEEF);
        assert_eq!(id_c, 9);
        assert_ne!(rng_c, rng_a, "distinct seeds should diverge");
    }

    /// One answer of a [`counting_server`] script, consumed per request.
    enum Answer {
        /// Write these frames and keep the connection open.
        Reply(Vec<Frame>),
        /// Close the connection without replying.
        HangUp,
    }

    /// A scripted server that keeps each connection open across requests
    /// and counts the connections it accepts. Every request frame consumes
    /// the next answer; past the end of the script it hangs up. Setting the
    /// returned flag stops it once no connection is pending, and joining
    /// the handle yields the accept count.
    fn counting_server(script: Vec<Answer>) -> (String, Arc<AtomicBool>, JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let h = std::thread::spawn(move || {
            let mut script = script.into_iter();
            let mut accepted = 0;
            loop {
                let mut s = match listener.accept() {
                    Ok((s, _)) => s,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if stop_flag.load(Ordering::SeqCst) {
                            return accepted;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    Err(e) => panic!("accept failed: {e}"),
                };
                accepted += 1;
                s.set_nonblocking(false).unwrap();
                'conn: while Frame::read_from(&mut s).is_ok() {
                    let Some(Answer::Reply(frames)) = script.next() else {
                        break;
                    };
                    for frame in frames {
                        if frame.write_to(&mut s).is_err() {
                            break 'conn;
                        }
                    }
                }
            }
        });
        (addr, stop, h)
    }

    /// A retried operation's outcome, with `Deadline` reduced to its
    /// attempt count (the waited time is wall-clock).
    fn render<T: fmt::Debug>(r: Result<T, ClientError>) -> String {
        match r {
            Ok(v) => format!("ok {v:?}"),
            Err(ClientError::Deadline { attempts, .. }) => format!("deadline {attempts}"),
            Err(e) => format!("err {e}"),
        }
    }

    #[test]
    fn retry_gauntlets_pin_outcome_rng_and_connections() {
        // Every retried operation through every scripted gauntlet, on a
        // server that keeps connections open: the outcome (with the
        // Deadline attempt count), the private jitter-stream end state and
        // the number of connections the client opened are all pinned, so a
        // change to any operation's draw order, draw count, attempt
        // accounting or reconnect choice shows up here.
        const OPS: [&str; 5] = ["submit", "status", "scrape", "wait", "observe"];
        const GAUNTLETS: [&str; 7] = [
            "transient",
            "permanent",
            "hangup",
            "draining",
            "parked",
            "notfound",
            "always-transient",
        ];
        let result = SolveResult {
            x: vec![1.0],
            iterations: 2,
            residual: 0.25,
            converged: true,
            solution_fingerprint: 9,
        };
        let progress = Frame::Progress {
            job_id: 7,
            iteration: 3,
            residual: 0.5,
        };
        let success = |op: &str| match op {
            "submit" => Frame::Accepted { job_id: 7 },
            "status" => progress.clone(),
            "scrape" => Frame::ScrapeReply {
                body: "up".to_owned(),
            },
            _ => Frame::Done {
                job_id: 7,
                result: result.clone(),
            },
        };
        let transient = || Frame::Rejected {
            reason: "busy".to_owned(),
            retry_after: Some(Duration::from_millis(1)),
        };
        let script = |op: &str, gauntlet: &str| match gauntlet {
            "transient" => vec![
                Answer::Reply(vec![transient()]),
                Answer::Reply(vec![success(op)]),
            ],
            "permanent" => vec![Answer::Reply(vec![Frame::Rejected {
                reason: "malformed".to_owned(),
                retry_after: None,
            }])],
            "hangup" => vec![Answer::HangUp, Answer::Reply(vec![success(op)])],
            "draining" => vec![
                Answer::Reply(vec![Frame::Draining]),
                Answer::Reply(vec![success(op)]),
            ],
            "parked" => vec![
                Answer::Reply(vec![progress.clone(), Frame::Parked { job_id: 7 }]),
                Answer::Reply(vec![progress.clone(), success(op)]),
            ],
            "notfound" => vec![Answer::Reply(vec![Frame::NotFound { job_id: 7 }])],
            _ => (0..8).map(|_| Answer::Reply(vec![transient()])).collect(),
        };
        let mut actual = Vec::new();
        for op in OPS {
            for gauntlet in GAUNTLETS {
                let (addr, stop, h) = counting_server(script(op, gauntlet));
                let mut client = Client::tcp(
                    addr,
                    RetryPolicy {
                        deadline: Duration::from_secs(5),
                        max_attempts: if gauntlet == "always-transient" {
                            3
                        } else {
                            50
                        },
                        base: Duration::from_millis(4),
                        cap: Duration::from_millis(16),
                        seed: 42,
                    },
                );
                let outcome = match op {
                    "submit" => render(client.submit("t", &sample_job())),
                    "status" => render(client.status(7)),
                    "scrape" => render(client.scrape(ScrapeKind::Health)),
                    "wait" => render(client.wait(7).map(|r| r.solution_fingerprint)),
                    _ => render(client.observe(7).map(|r| r.solution_fingerprint)),
                };
                let rng = client.rng;
                drop(client);
                stop.store(true, Ordering::SeqCst);
                let conns = h.join().unwrap();
                actual.push((op, gauntlet, outcome, rng, conns));
            }
        }
        let listing = actual
            .iter()
            .map(|(op, g, o, rng, c)| format!("    ({op:?}, {g:?}, {o:?}, {rng:#018x}, {c}),"))
            .collect::<Vec<_>>()
            .join("\n");
        let pinned: Vec<_> = RETRY_PINS
            .iter()
            .map(|&(op, g, o, rng, c)| (op, g, o.to_owned(), rng, c))
            .collect();
        assert_eq!(
            actual, pinned,
            "retry gauntlets drifted; actual:\n{listing}"
        );
    }

    /// `(operation, gauntlet, outcome, final rng, connections accepted)`.
    const RETRY_PINS: &[(&str, &str, &str, u64, usize)] = &[
        ("submit", "transient", "ok 7", 0x9e3779b97f4a7c3f, 1),
        (
            "submit",
            "permanent",
            "err rejected: malformed",
            0x000000000000002a,
            1,
        ),
        ("submit", "hangup", "ok 7", 0x9e3779b97f4a7c3f, 2),
        ("submit", "draining", "ok 7", 0x9e3779b97f4a7c3f, 2),
        (
            "submit",
            "parked",
            "err protocol violation: unexpected reply to Submit",
            0x000000000000002a,
            1,
        ),
        (
            "submit",
            "notfound",
            "err protocol violation: unexpected reply to Submit",
            0x000000000000002a,
            1,
        ),
        (
            "submit",
            "always-transient",
            "deadline 3",
            0xdaa66d2c7ddf7469,
            1,
        ),
        (
            "status",
            "transient",
            "ok InProgress { iteration: 3, residual: 0.5 }",
            0x9e3779b97f4a7c3f,
            2,
        ),
        (
            "status",
            "permanent",
            "err rejected: malformed",
            0x000000000000002a,
            1,
        ),
        (
            "status",
            "hangup",
            "ok InProgress { iteration: 3, residual: 0.5 }",
            0x9e3779b97f4a7c3f,
            2,
        ),
        (
            "status",
            "draining",
            "err protocol violation: unexpected reply to Status",
            0x000000000000002a,
            1,
        ),
        (
            "status",
            "parked",
            "ok InProgress { iteration: 3, residual: 0.5 }",
            0x000000000000002a,
            1,
        ),
        ("status", "notfound", "ok NotFound", 0x000000000000002a, 1),
        (
            "status",
            "always-transient",
            "deadline 3",
            0xdaa66d2c7ddf7469,
            3,
        ),
        ("scrape", "transient", "ok \"up\"", 0x9e3779b97f4a7c3f, 2),
        (
            "scrape",
            "permanent",
            "err rejected: malformed",
            0x000000000000002a,
            1,
        ),
        ("scrape", "hangup", "ok \"up\"", 0x9e3779b97f4a7c3f, 2),
        (
            "scrape",
            "draining",
            "err protocol violation: unexpected reply to Scrape",
            0x000000000000002a,
            1,
        ),
        (
            "scrape",
            "parked",
            "err protocol violation: unexpected reply to Scrape",
            0x000000000000002a,
            1,
        ),
        (
            "scrape",
            "notfound",
            "err protocol violation: unexpected reply to Scrape",
            0x000000000000002a,
            1,
        ),
        (
            "scrape",
            "always-transient",
            "deadline 3",
            0xdaa66d2c7ddf7469,
            3,
        ),
        ("wait", "transient", "ok 9", 0x9e3779b97f4a7c3f, 2),
        (
            "wait",
            "permanent",
            "err rejected: malformed",
            0x000000000000002a,
            1,
        ),
        ("wait", "hangup", "ok 9", 0x9e3779b97f4a7c3f, 2),
        (
            "wait",
            "draining",
            "err protocol violation: unexpected frame during Wait",
            0x000000000000002a,
            1,
        ),
        ("wait", "parked", "ok 9", 0x9e3779b97f4a7c3f, 2),
        (
            "wait",
            "notfound",
            "err job 7 not found",
            0x000000000000002a,
            1,
        ),
        (
            "wait",
            "always-transient",
            "deadline 3",
            0xdaa66d2c7ddf7469,
            3,
        ),
        ("observe", "transient", "ok 9", 0x9e3779b97f4a7c3f, 2),
        (
            "observe",
            "permanent",
            "err rejected: malformed",
            0x000000000000002a,
            1,
        ),
        ("observe", "hangup", "ok 9", 0x9e3779b97f4a7c3f, 2),
        (
            "observe",
            "draining",
            "err protocol violation: unexpected frame during Wait",
            0x000000000000002a,
            1,
        ),
        ("observe", "parked", "ok 9", 0x9e3779b97f4a7c3f, 2),
        (
            "observe",
            "notfound",
            "err job 7 not found",
            0x000000000000002a,
            1,
        ),
        (
            "observe",
            "always-transient",
            "deadline 3",
            0xdaa66d2c7ddf7469,
            3,
        ),
    ];

    #[test]
    fn backoff_is_deterministic_per_seed_and_bounded() {
        let policy = RetryPolicy {
            base: Duration::from_millis(4),
            cap: Duration::from_millis(32),
            ..RetryPolicy::default()
        };
        let mut rng_a = 123u64;
        let mut rng_b = 123u64;
        for attempt in 0..12 {
            let a = policy.backoff(attempt, &mut rng_a);
            let b = policy.backoff(attempt, &mut rng_b);
            assert_eq!(a, b, "same seed must draw the same jitter");
            let exp = policy
                .base
                .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
                .min(policy.cap);
            assert!(a >= exp / 2 && a <= exp, "equal-jitter bounds violated");
        }
        // Different seeds diverge somewhere.
        let mut rng_c = 124u64;
        let diverged = (0..12).any(|attempt| {
            let mut rng_a2 = 123u64;
            for _ in 0..attempt {
                let _ = splitmix64(&mut rng_a2);
            }
            policy.backoff(attempt, &mut rng_a2) != policy.backoff(attempt, &mut rng_c)
        });
        assert!(diverged);
    }
}
