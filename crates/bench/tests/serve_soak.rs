//! Kill/restart soak for the `alserve` daemon — the service's acceptance
//! test: SIGKILL the server at a random moment mid-solve, restart it on
//! the same data directory, and require that **every accepted job
//! completes with a solution fingerprint bit-identical to an
//! uninterrupted run, and zero accepted jobs are lost**, across many
//! cycles.
//!
//! Each cycle submits fresh jobs (the submit ack implies the job is
//! fsynced in the journal), sleeps a deterministic pseudo-random slice so
//! the SIGKILL lands at an arbitrary solver iteration — before the first
//! checkpoint, between checkpoints, or after completion — then kills and
//! restarts. The final pass waits out every job ever accepted and checks
//! its fingerprint against a direct in-process fleet run of the same
//! spec.
//!
//! Cycle count: `SOAK_CYCLES` env var; defaults to 20 in release builds
//! (the CI soak job) and 4 under debug so `cargo test` stays quick.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use alrescha::fleet::{Fleet, FleetConfig, JobKernel, JobSpec};
use alrescha::util::splitmix64;
use alrescha::SolverOptions;
use alrescha_obs::flight::{self, FlightDump};
use alrescha_serve::{Client, JobPayload, Journal, RetryPolicy};

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alserve-soak-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Same job family the `alserve solve` subcommand generates, so the soak
/// can be reproduced by hand against a live server.
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

fn reference_fingerprint(job: &JobPayload) -> u64 {
    let spec = JobSpec::new(
        job.matrix.clone(),
        JobKernel::Pcg {
            b: job.b.clone(),
            opts: SolverOptions {
                tol: job.tol,
                max_iters: usize::try_from(job.max_iters).unwrap(),
            },
        },
    );
    let fleet = Fleet::new(FleetConfig::default().with_workers(1));
    fleet.run_sequential(vec![spec]).jobs[0]
        .result
        .as_ref()
        .unwrap()
        .solution_fingerprint()
}

/// Starts the daemon on an ephemeral port over `data_dir` and parses the
/// `alserve listening on <addr>` discovery line.
fn start_server(data_dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_alserve"))
        .args([
            "serve",
            "--bind",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--workers",
            "2",
            "--queue-capacity",
            "64",
            "--quota",
            "128",
            "--checkpoint-every",
            "2",
            "--retry-after-ms",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn alserve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read discovery line");
    let addr = line
        .trim()
        .strip_prefix("alserve listening on ")
        .unwrap_or_else(|| panic!("unexpected discovery line: {line:?}"))
        .to_owned();
    (child, addr)
}

fn soak_client(addr: &str) -> Client {
    Client::tcp(
        addr,
        RetryPolicy {
            deadline: Duration::from_mins(2),
            max_attempts: 10_000,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            seed: 0x50A7_5EED,
        },
    )
}

#[test]
fn kill_restart_soak_loses_no_accepted_jobs_and_stays_bit_identical() {
    let cycles: u64 = std::env::var("SOAK_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) { 4 } else { 20 });
    let dir = tempdir("kill");
    let mut rng: u64 = 0xA15E_57E5;

    // job_id -> seed of the payload it carries.
    let mut accepted: BTreeMap<u64, u64> = BTreeMap::new();
    let mut kills = 0u64;

    // Cumulative count of jobs observed mid-flight (Accepted, no terminal
    // record) at kill time — proof the soak exercised crash recovery and
    // not just settled-record replay.
    let mut pending_observed = 0usize;
    // Restart latency: spawn → journal replay → bound socket → discovery
    // line, i.e. crash-to-accepting-again.
    let mut restart_total = Duration::ZERO;
    let mut restart_max = Duration::ZERO;

    let (mut child, mut addr) = start_server(&dir);
    for cycle in 0..cycles {
        let mut client = soak_client(&addr);
        // Two fresh jobs per cycle: one quick (side 3), one that takes
        // more iterations (side 5) so kills land mid-solve.
        let mut cycle_ids = Vec::new();
        for &side in &[3usize, 5] {
            let seed = cycle * 2 + u64::from(side == 5);
            let id = client
                .submit("soak", &sample_job(side, seed))
                .unwrap_or_else(|e| panic!("cycle {cycle}: submit failed: {e}"));
            assert!(accepted.insert(id, seed).is_none(), "job id {id} reused");
            cycle_ids.push(id);
        }
        // Let the solvers run for a random slice, then SIGKILL: no drain,
        // no flush, no goodbye — exactly a crash. Alternate cycles kill
        // immediately after the accept ack so the victims are still
        // queued or mid-solve.
        let delay = if cycle % 2 == 0 { 0 } else { splitmix64(&mut rng) % 8 };
        std::thread::sleep(Duration::from_millis(delay));
        child.kill().expect("SIGKILL alserve");
        child.wait().expect("reap alserve");
        kills += 1;
        // Peek at the carnage: how many accepted jobs lack a terminal
        // record? (Opening the journal performs the same torn-tail
        // truncation the restarting server would.)
        let journal = Journal::open(dir.join("jobs.wal")).expect("journal readable after kill");
        pending_observed += journal.recover().len();
        // The flight recorder must survive the SIGKILL too: the ring is
        // dumped before every `Accepted` ack, and a terminal event is
        // recorded only after its journal record, so the dump is
        // CRC-valid and its journal events agree with the journal the
        // next incarnation replays.
        let dump = FlightDump::read(&dir.join("alserve.alfr"))
            .unwrap_or_else(|e| panic!("no flight dump after kill {cycle}: {e}"))
            .unwrap_or_else(|e| panic!("flight dump corrupt after kill {cycle}: {e}"));
        let accepts: Vec<u64> = dump
            .records
            .iter()
            .filter(|r| r.code == flight::EV_JOURNAL_ACCEPT)
            .map(|r| r.b)
            .collect();
        for id in &cycle_ids {
            assert!(
                accepts.contains(id),
                "cycle {cycle}: acked job {id} missing from the flight dump"
            );
        }
        for rec in &dump.records {
            if rec.code == flight::EV_JOURNAL_TERMINAL {
                assert!(
                    journal.terminal_order().contains(&rec.b),
                    "cycle {cycle}: flight terminal for job {} has no journal record",
                    rec.b
                );
            }
        }
        drop(journal);
        let restart_started = std::time::Instant::now();
        let (c, a) = start_server(&dir);
        let took = restart_started.elapsed();
        restart_total += took;
        restart_max = restart_max.max(took);
        child = c;
        addr = a;
    }

    // Final pass: every job ever accepted must complete, bit-identical to
    // the uninterrupted reference. The elapsed time is the recovery
    // latency for the whole surviving backlog.
    let backlog_started = std::time::Instant::now();
    let mut client = soak_client(&addr);
    for (&id, &seed) in &accepted {
        let side = if seed % 2 == 1 { 5 } else { 3 };
        let result = client
            .wait(id)
            .unwrap_or_else(|e| panic!("job {id} lost after {kills} kills: {e}"));
        assert!(result.converged, "job {id} did not converge");
        assert_eq!(
            result.solution_fingerprint,
            reference_fingerprint(&sample_job(side, seed)),
            "job {id} diverged from the uninterrupted reference after {kills} kills"
        );
    }
    assert_eq!(accepted.len() as u64, cycles * 2, "acceptance bookkeeping is off");
    assert_eq!(kills, cycles);
    assert!(
        pending_observed > 0,
        "no kill ever caught a job in flight — the soak never exercised recovery"
    );
    eprintln!(
        "soak: {kills} SIGKILLs, {} jobs accepted, {pending_observed} in-flight \
         recoveries, 0 lost; restart latency avg {:.1} ms / max {:.1} ms; \
         final backlog drained in {:.1} ms",
        accepted.len(),
        restart_total.as_secs_f64() * 1e3 / kills as f64,
        restart_max.as_secs_f64() * 1e3,
        backlog_started.elapsed().as_secs_f64() * 1e3,
    );

    // Graceful shutdown for the last incarnation.
    child.kill().expect("final kill");
    child.wait().expect("final reap");
    let _ = std::fs::remove_dir_all(&dir);
}
