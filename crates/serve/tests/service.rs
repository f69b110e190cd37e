//! End-to-end service tests: a real server on a real socket, driven by
//! the reconnecting client.
//!
//! The kill/restart *soak* (SIGKILL at a random solver iteration) lives
//! in the workspace bench crate where the `alserve` binary is available;
//! these tests cover the same recovery machinery deterministically and
//! in-process: journal replay, checkpoint resume, drain/park, quotas.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use alrescha::checkpoint::SolverCheckpoint;
use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobSpec};
use alrescha::SolverOptions;
use alrescha_serve::{
    Bind, Client, ClientError, JobPayload, JobStatus, Journal, JournalRecord, RetryPolicy, Server,
    ServerConfig,
};

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alserve-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_job(side: usize, seed: u64) -> JobPayload {
    let matrix = alrescha_sparse::gen::stencil27(side);
    let b: Vec<f64> = (0..matrix.rows())
        .map(|i| ((i as f64) + (seed as f64) * 0.25).sin() + 1.5)
        .collect();
    JobPayload {
        matrix,
        b,
        tol: 1e-10,
        max_iters: 200,
        priority: 0,
    }
}

fn spec_for(job: &JobPayload) -> JobSpec {
    JobSpec::new(
        job.matrix.clone(),
        JobKernel::Pcg {
            b: job.b.clone(),
            opts: SolverOptions {
                tol: job.tol,
                max_iters: usize::try_from(job.max_iters).unwrap(),
            },
        },
    )
}

/// The uninterrupted-reference fingerprint for a job, computed by running
/// the identical spec directly on a fleet.
fn reference_fingerprint(job: &JobPayload) -> u64 {
    let fleet = Fleet::new(FleetConfig::default().with_workers(1));
    let report = fleet.run_sequential(vec![spec_for(job)]);
    report.jobs[0]
        .result
        .as_ref()
        .unwrap()
        .solution_fingerprint()
}

fn server_config(data_dir: PathBuf) -> ServerConfig {
    ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_owned()),
        data_dir,
        workers: 2,
        queue_capacity: 16,
        per_tenant_quota: 8,
        checkpoint_every: 3,
        retry_after_hint: Duration::from_millis(5),
        ..ServerConfig::default()
    }
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_mins(1),
        max_attempts: 500,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(10),
        seed: 1,
    }
}

#[test]
fn submit_wait_round_trip_matches_direct_fleet_run() {
    let dir = tempdir("roundtrip");
    let handle = Server::new(server_config(dir.clone())).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());

    client.ping().unwrap();
    let job = sample_job(3, 7);
    let job_id = client.submit("acme", &job).unwrap();
    let result = client.wait(job_id).unwrap();
    assert!(result.converged, "solve did not converge");
    assert_eq!(
        result.solution_fingerprint,
        reference_fingerprint(&job),
        "served solve is not bit-identical to a direct fleet run"
    );
    // One-shot status agrees post-completion.
    match client.status(job_id).unwrap() {
        JobStatus::Done(r) => assert_eq!(r.solution_fingerprint, result.solution_fingerprint),
        other => panic!("expected Done, got {other:?}"),
    }
    // Unknown ids are NotFound, not errors.
    assert_eq!(client.status(9999).unwrap(), JobStatus::NotFound);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_round_trip() {
    let dir = tempdir("unix");
    let sock = dir.join("alserve.sock");
    let mut config = server_config(dir.clone());
    config.bind = Bind::Unix(sock.clone());
    let handle = Server::new(config).start().unwrap();
    let mut client = Client::unix(&sock, fast_policy());

    let job = sample_job(2, 3);
    let job_id = client.submit("acme", &job).unwrap();
    let result = client.wait(job_id).unwrap();
    assert!(result.converged);
    assert_eq!(result.solution_fingerprint, reference_fingerprint(&job));
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_tenant_quota_rejects_in_band_and_client_retries_through() {
    let dir = tempdir("quota");
    let mut config = server_config(dir.clone());
    config.per_tenant_quota = 1;
    config.workers = 1;
    let handle = Server::new(config).start().unwrap();

    // Fill the single quota slot with one job, then submit a second from
    // the same tenant: the client's retry loop must absorb the rejection
    // and land the job once the first completes.
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());
    let a = client.submit("greedy", &sample_job(3, 1)).unwrap();
    let b = client.submit("greedy", &sample_job(3, 2)).unwrap();
    assert_ne!(a, b);
    assert!(client.wait(a).unwrap().converged);
    assert!(client.wait(b).unwrap().converged);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_parks_queued_jobs_and_restart_completes_them() {
    let dir = tempdir("drain");
    let mut config = server_config(dir.clone());
    config.workers = 1;
    let handle = Server::new(config).start().unwrap();
    let addr = handle.addr().to_owned();
    let mut client = Client::tcp(addr, fast_policy());

    // Enough jobs that some are still queued when the drain lands.
    let jobs: Vec<JobPayload> = (0..4).map(|s| sample_job(3, s)).collect();
    let ids: Vec<u64> = jobs
        .iter()
        .map(|j| client.submit("acme", j).unwrap())
        .collect();
    client.drain().unwrap();
    assert!(handle.is_draining());
    // New submissions are refused while draining (client sees Draining and
    // would retry; use a tight deadline to observe the refusal).
    let mut impatient = Client::tcp(handle.addr().to_owned(), RetryPolicy {
        deadline: Duration::from_millis(200),
        max_attempts: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(4),
        seed: 9,
    });
    assert!(matches!(
        impatient.submit("acme", &sample_job(2, 0)),
        Err(ClientError::Deadline { .. })
    ));
    // Let the in-flight job finish, then stop.
    handle.wait_idle(Duration::from_millis(10));
    handle.stop();

    // Restart on the same data dir: parked jobs are recovered and run.
    let mut config = server_config(dir.clone());
    config.workers = 2;
    let handle = Server::new(config).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());
    for (id, job) in ids.iter().zip(&jobs) {
        let result = client.wait(*id).unwrap();
        assert!(result.converged, "job {id} did not converge after restart");
        assert_eq!(
            result.solution_fingerprint,
            reference_fingerprint(job),
            "job {id} diverged from the uninterrupted reference"
        );
    }
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The core crash-recovery property, in-process: a journaled job with a
/// mid-solve checkpoint on disk (exactly what a SIGKILLed server leaves
/// behind) is recovered on start, resumed from the checkpoint, and
/// finishes bit-identical to an uninterrupted run.
#[test]
fn recovery_resumes_from_checkpoint_bit_identically() {
    let dir = tempdir("recover");
    let job = sample_job(3, 11);

    // Forge the crash remnants: an Accepted journal record with no
    // terminal, plus a checkpoint file from iteration ~6.
    {
        let mut journal = Journal::open(dir.join("jobs.wal")).unwrap();
        journal.accept(1, "acme", &job).unwrap();
    }
    {
        let captured: Arc<Mutex<Vec<SolverCheckpoint>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&captured);
        let fleet = Fleet::new(FleetConfig::default().with_workers(1)).with_checkpoint_hook(
            Arc::new(move |_, ckpt| sink.lock().unwrap().push(ckpt.clone())),
        );
        let report = fleet.run_sequential(vec![spec_for(&job).with_id(1).with_checkpoint_every(3)]);
        assert!(report.jobs[0].result.is_ok());
        let checkpoints = captured.lock().unwrap();
        assert!(checkpoints.len() >= 2, "job too short to test mid-solve resume");
        let mid = &checkpoints[checkpoints.len() / 2];
        assert!(mid.iteration > 0);
        mid.write_to_path(&dir.join("job-1.ckpt")).unwrap();
    }

    // Start the server over the remnants: recovery must resume and finish.
    let handle = Server::new(server_config(dir.clone())).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());
    let result = client.wait(1).unwrap();
    assert!(result.converged);
    assert_eq!(
        result.solution_fingerprint,
        reference_fingerprint(&job),
        "resumed solve is not bit-identical to the uninterrupted reference"
    );
    // The journal now carries a terminal record: a second restart owes
    // nothing.
    handle.stop();
    let journal = Journal::open(dir.join("jobs.wal")).unwrap();
    assert_eq!(journal.recover().len(), 0);
    // The checkpoint file was cleaned up at completion.
    assert!(!dir.join("job-1.ckpt").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash between a job's terminal journal record and the unlink of its
/// checkpoint, or in the middle of an atomic checkpoint write, leaves
/// `job-<id>.ckpt` or `job-<id>.ckpt.tmp` behind. Startup removes both
/// kinds for a settled job, and a pending job still resumes from its own
/// checkpoint.
#[test]
fn startup_removes_orphaned_checkpoints_of_settled_jobs() {
    let dir = tempdir("orphans");
    let settled = sample_job(3, 4);
    let pending = sample_job(3, 11);
    {
        let mut journal = Journal::open(dir.join("jobs.wal")).unwrap();
        journal.accept(1, "acme", &settled).unwrap();
        journal
            .terminal(&JournalRecord::Completed {
                job_id: 1,
                fingerprint: reference_fingerprint(&settled),
                iterations: 1,
                residual: 0.0,
                converged: true,
            })
            .unwrap();
        journal.accept(2, "acme", &pending).unwrap();
    }
    let captured: Arc<Mutex<Vec<SolverCheckpoint>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&captured);
    let fleet = Fleet::new(FleetConfig::default().with_workers(1)).with_checkpoint_hook(Arc::new(
        move |_, ckpt| sink.lock().unwrap().push(ckpt.clone()),
    ));
    let report = fleet.run_sequential(vec![spec_for(&pending).with_id(2).with_checkpoint_every(3)]);
    assert!(report.jobs[0].result.is_ok());
    let mid = {
        let checkpoints = captured.lock().unwrap();
        assert!(
            checkpoints.len() >= 2,
            "job too short to test mid-solve resume"
        );
        checkpoints[checkpoints.len() / 2].clone()
    };
    assert!(mid.iteration > 0);
    mid.write_to_path(&dir.join("job-2.ckpt")).unwrap();
    // The settled job's remnants: a whole checkpoint and a torn temp file.
    mid.write_to_path(&dir.join("job-1.ckpt")).unwrap();
    std::fs::write(dir.join("job-1.ckpt.tmp"), b"ALCK torn").unwrap();
    // Files that only look alike are not the server's to remove.
    std::fs::write(dir.join("job-x.ckpt"), b"keep").unwrap();

    let config = server_config(dir.clone());
    let flight = Arc::clone(&config.flight);
    let handle = Server::new(config).start().unwrap();
    assert!(
        !dir.join("job-1.ckpt").exists(),
        "settled job's checkpoint survived start"
    );
    assert!(
        !dir.join("job-1.ckpt.tmp").exists(),
        "settled job's temp file survived start"
    );
    assert!(
        dir.join("job-x.ckpt").exists(),
        "a foreign file was removed"
    );
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());
    let result = client.wait(2).unwrap();
    assert_eq!(
        result.solution_fingerprint,
        reference_fingerprint(&pending),
        "resumed solve is not bit-identical to the uninterrupted reference"
    );
    handle.stop();
    assert!(
        flight
            .snapshot()
            .iter()
            .any(|r| r.code == alrescha_obs::flight::EV_RECOVERY && r.a == 2 && r.b == 1),
        "the pending job did not resume from its checkpoint"
    );
    assert!(!dir.join("job-2.ckpt").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Priority scheduling is deterministic: strict priority order across
/// levels, stable FIFO (journal id order) within a level — observable in
/// the journal's terminal-record order. Forging the backlog as Accepted
/// records and recovering it on a single-worker server makes the whole
/// queue visible to the scheduler at once, so the execution order is a
/// pure function of (priority, id).
#[test]
fn priority_order_is_strict_and_fifo_within_a_level() {
    let dir = tempdir("priority");
    // Backlog with duplicate and distinct priorities, deliberately out of
    // submission order: high priorities late, duplicates interleaved.
    let priorities: [(u64, u8); 5] = [(1, 0), (2, 200), (3, 9), (4, 200), (5, 0)];
    {
        let mut journal = Journal::open(dir.join("jobs.wal")).unwrap();
        for &(id, priority) in &priorities {
            let mut job = sample_job(2, id);
            job.priority = priority;
            journal.accept(id, "acme", &job).unwrap();
        }
    }
    let mut config = server_config(dir.clone());
    config.workers = 1;
    let handle = Server::new(config).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());
    for &(id, _) in &priorities {
        assert!(client.wait(id).unwrap().converged, "job {id} did not converge");
    }
    handle.stop();

    // Highest priority first; equal priorities keep journal id order.
    let journal = Journal::open(dir.join("jobs.wal")).unwrap();
    assert_eq!(
        journal.terminal_order(),
        &[2, 4, 3, 1, 5],
        "execution order must be (priority desc, id asc)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_submissions_are_rejected_permanently() {
    let dir = tempdir("malformed");
    let handle = Server::new(server_config(dir.clone())).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());
    // |b| disagrees with the matrix: permanent rejection, no retry.
    let mut bad = sample_job(2, 0);
    bad.b.pop();
    match client.submit("acme", &bad) {
        Err(ClientError::Rejected { reason }) => assert!(reason.contains("malformed")),
        other => panic!("expected permanent rejection, got {other:?}"),
    }
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn static_admission_gate_bounds_jobs_before_any_work() {
    let dir = tempdir("al404");
    let tele = alrescha_obs::Telemetry::new();
    let config = ServerConfig {
        // Generous enough for the small sample job's full solve, far too
        // small for a million-iteration request on the same matrix.
        admission_cycle_budget: Some(5_000_000),
        telemetry: Some(tele.clone()),
        ..server_config(dir.clone())
    };
    let handle = Server::new(config).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());

    // A provably-infeasible job is rejected in-band with the AL404 bound,
    // permanently (no retry_after), before the journal ever sees it.
    let mut infeasible = sample_job(3, 1);
    infeasible.max_iters = 1_000_000;
    match client.submit("acme", &infeasible) {
        Err(ClientError::Rejected { reason }) => {
            assert!(reason.contains("AL404"), "reason must cite the rule: {reason}");
        }
        other => panic!("expected AL404 rejection, got {other:?}"),
    }
    assert_eq!(
        tele.metrics()
            .counter(
                "alserve_admission_rejected_static_total",
                true,
                "submissions rejected by the alprove static cycle bound (AL404)",
            )
            .value(),
        1,
        "the rejection must be counted"
    );

    // The same matrix with a sane iteration cap fits the budget and runs
    // to convergence — the gate is a bound, not a blanket refusal.
    let feasible = sample_job(3, 1);
    let job_id = client.submit("acme", &feasible).unwrap();
    assert!(client.wait(job_id).unwrap().converged);

    handle.stop();
    // The rejected job must have left no durable trace.
    let journal = Journal::open(dir.join("jobs.wal")).unwrap();
    assert_eq!(journal.terminal_order().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn static_admission_gate_rejects_an_overdeep_link_stack() {
    let dir = tempdir("al401");
    let tele = alrescha_obs::Telemetry::new();
    let config = ServerConfig {
        // No cycle bound can trip: only the resource proof rejects.
        admission_cycle_budget: Some(u64::MAX),
        telemetry: Some(tele.clone()),
        ..server_config(dir.clone())
    };
    let handle = Server::new(config).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());

    // ~100 scattered off-diagonals per row at ω = 8 prove a 248-entry
    // link-stack peak against the 128-entry LIFO (AL401) in the SymGS
    // schedule, whatever the iteration cap.
    let matrix = alrescha_sparse::gen::scattered(256, 100, 5);
    let job = JobPayload {
        b: vec![1.0; matrix.rows()],
        matrix,
        tol: 1e-10,
        max_iters: 1,
        priority: 0,
    };
    match client.submit("acme", &job) {
        Err(ClientError::Rejected { reason }) => {
            assert!(
                reason.contains("AL401"),
                "reason must cite the rule: {reason}"
            );
        }
        other => panic!("expected AL401 rejection, got {other:?}"),
    }
    assert_eq!(
        tele.metrics()
            .counter(
                "alserve_admission_rejected_static_total",
                true,
                "submissions rejected by the alprove static cycle bound (AL404)",
            )
            .value(),
        1,
        "the rejection must be counted"
    );

    handle.stop();
    let journal = Journal::open(dir.join("jobs.wal")).unwrap();
    assert_eq!(
        journal.stats().records,
        0,
        "a rejected job leaves no record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served stream of jobs on one matrix journals the matrix once: the
/// journal grows by the right-hand sides, not by a matrix per job, so a
/// long run stays far below any file-size limit.
#[test]
fn repeated_matrix_jobs_journal_the_matrix_once() {
    let dir = tempdir("repeat");
    let handle = Server::new(server_config(dir.clone())).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy());
    let jobs: Vec<JobPayload> = (0..40).map(|seed| sample_job(6, seed)).collect();
    let mut served = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let job_id = client.submit("acme", job).unwrap();
        served.push(client.wait(job_id).unwrap().solution_fingerprint);
    }
    handle.stop();

    let matrix_bytes = JournalRecord::Matrix {
        id: 1,
        matrix: jobs[0].matrix.clone(),
    }
    .encode()
    .len() as u64;
    let wal = std::fs::metadata(dir.join("jobs.wal")).unwrap().len();
    let bound = 2 * matrix_bytes + 40 * 16 * 1024;
    assert!(
        wal < bound,
        "jobs.wal is {wal} bytes after 40 jobs on one {matrix_bytes}-byte matrix (bound {bound})"
    );
    let fleet = Fleet::new(FleetConfig::default().with_workers(1));
    let report = fleet.run_sequential(jobs.iter().map(spec_for).collect());
    for (i, (record, got)) in report.jobs.iter().zip(&served).enumerate() {
        let want = record.result.as_ref().unwrap().solution_fingerprint();
        assert_eq!(*got, want, "job {i} differs from a direct fleet run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
