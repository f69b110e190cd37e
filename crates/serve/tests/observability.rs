//! End-to-end observability tests: distributed traces stitched across
//! the client/server boundary (including through the chaos proxy), the
//! live `Scrape` introspection surface, the passive `Observe` frame, and
//! the crash-surviving flight recorder.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use alrescha::storage::{RealStorage, StorageFile, StorageIo};

use alrescha_obs::flight::{self, FlightDump};
use alrescha_obs::json::Value;
use alrescha_obs::{
    export_chrome_trace, stitch_traces, trace_ids, validate_chrome_trace, validate_prometheus,
    Telemetry,
};
use alrescha_serve::chaos::{ChaosProxy, NetFaultPlan};
use alrescha_serve::{
    Bind, Client, Frame, JobPayload, Journal, RetryPolicy, ScrapeKind, Server, ServerConfig,
    TraceContext,
};

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alserve-obs-{name}-{}", std::process::id()));
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

fn server_config(data_dir: PathBuf, telemetry: Option<Arc<Telemetry>>) -> ServerConfig {
    ServerConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_owned()),
        data_dir,
        workers: 2,
        queue_capacity: 16,
        per_tenant_quota: 8,
        checkpoint_every: 3,
        retry_after_hint: Duration::from_millis(5),
        telemetry,
        ..ServerConfig::default()
    }
}

/// The real filesystem, except that unlinking a checkpoint file waits
/// while the gate is shut. A worker unlinks its job's checkpoint at the
/// terminal edge, before the job's quota slot and `Done` are released,
/// so a test can hold a job in flight on its worker.
#[derive(Debug, Default)]
struct GatedStorage {
    /// (gate shut, workers waiting at it)
    state: Mutex<(bool, usize)>,
    cv: Condvar,
}

impl GatedStorage {
    fn shut(&self, shut: bool) {
        self.state.lock().unwrap().0 = shut;
        self.cv.notify_all();
    }

    fn wait_for_blocked_worker(&self) {
        let state = self.state.lock().unwrap();
        drop(self.cv.wait_while(state, |s| s.1 == 0).unwrap());
    }
}

impl StorageIo for GatedStorage {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        RealStorage.open_append(path)
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
        let checkpoint = path.file_name().is_some_and(|n| {
            let n = n.to_string_lossy();
            n.starts_with("job-") && n.ends_with(".ckpt")
        });
        if checkpoint {
            let mut state = self.state.lock().unwrap();
            state.1 += 1;
            self.cv.notify_all();
            state = self.cv.wait_while(state, |s| s.0).unwrap();
            state.1 -= 1;
        }
        RealStorage.remove_file(path)
    }

    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        RealStorage.sync_parent_dir(path)
    }
}

fn fast_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_mins(2),
        max_attempts: 5_000,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(10),
        seed,
    }
}

/// The tentpole acceptance path: a traced client talks to a traced
/// server **through the chaos proxy**, both sides export Chrome traces,
/// and `stitch_traces` (the engine behind `alobs stitch`) merges them
/// into one valid Perfetto document in which client and server spans
/// share one distributed trace id.
#[test]
fn stitched_client_server_traces_share_one_trace_id_under_chaos() {
    let dir = tempdir("stitch");
    let server_tele = Telemetry::new();
    let handle = Server::new(server_config(dir.clone(), Some(server_tele.clone())))
        .start()
        .unwrap();
    let proxy = ChaosProxy::start(handle.addr().to_owned(), NetFaultPlan::aggressive(0xBEEF))
        .unwrap();

    let client_tele = Telemetry::new();
    let mut client = Client::tcp(proxy.addr().to_owned(), fast_policy(42))
        .with_telemetry(client_tele.clone());
    let job_id = client.submit("acme", &sample_job(3, 5)).unwrap();
    let trace_id = client
        .trace_id_of(job_id)
        .expect("submitted job must carry a trace id");
    assert_ne!(trace_id, 0);
    assert!(client.wait(job_id).unwrap().converged);
    proxy.stop();
    handle.stop();

    let client_doc = Value::parse(&export_chrome_trace(&client_tele)).unwrap();
    let server_doc = Value::parse(&export_chrome_trace(&server_tele)).unwrap();
    let want = format!("{trace_id:016x}");
    assert!(
        trace_ids(&client_doc).contains(&want),
        "client trace must carry trace id {want}"
    );
    assert!(
        trace_ids(&server_doc).contains(&want),
        "server trace must carry trace id {want} (propagated over the wire)"
    );

    let stitched = stitch_traces(&[
        ("client".to_owned(), client_doc),
        ("server".to_owned(), server_doc),
    ])
    .expect("stitching client+server traces");
    let summary = validate_chrome_trace(&stitched).expect("stitched trace is valid Perfetto");
    assert!(summary.events > 0);
    assert!(
        trace_ids(&stitched).contains(&want),
        "stitched timeline must retain the shared trace id"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Trace ids are minted deterministically from the client's policy seed,
/// so the same client configuration replays the same distributed trace —
/// chaos-proxy reconnects and retries included.
#[test]
fn trace_ids_are_deterministic_across_chaos_replays() {
    let mut observed = Vec::new();
    for round in 0..2 {
        let dir = tempdir(&format!("det-{round}"));
        let handle = Server::new(server_config(dir.clone(), None)).start().unwrap();
        let proxy =
            ChaosProxy::start(handle.addr().to_owned(), NetFaultPlan::aggressive(7)).unwrap();
        let mut client = Client::tcp(proxy.addr().to_owned(), fast_policy(99));
        let a = client.submit("acme", &sample_job(3, 1)).unwrap();
        let b = client.submit("acme", &sample_job(3, 2)).unwrap();
        assert!(client.wait(a).unwrap().converged);
        assert!(client.wait(b).unwrap().converged);
        observed.push((client.trace_id_of(a).unwrap(), client.trace_id_of(b).unwrap()));
        proxy.stop();
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        observed[0], observed[1],
        "same policy seed must replay the same trace ids"
    );
    assert_ne!(observed[0].0, observed[0].1, "each submit mints a fresh id");
}

/// The `Scrape` surface serves live introspection out of the running
/// daemon: a clean Prometheus exposition (including the per-tenant SLO
/// families), a health JSON, the job table, and the `top` view.
#[test]
fn scrape_serves_prometheus_health_jobs_and_top() {
    let dir = tempdir("scrape");
    let tele = Telemetry::new();
    let handle = Server::new(server_config(dir.clone(), Some(tele))).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy(3));

    let job_id = client.submit("acme", &sample_job(3, 9)).unwrap();
    assert!(client.wait(job_id).unwrap().converged);

    let metrics = client.scrape(ScrapeKind::Metrics).unwrap();
    let issues = validate_prometheus(&metrics);
    assert!(issues.is_empty(), "scrape body must be valid Prometheus: {issues:?}");
    assert!(
        metrics.contains("alserve_slo_e2e_us"),
        "per-tenant SLO histograms must be exposed: {metrics}"
    );
    assert!(metrics.contains("alserve_slo_burn_rate"));

    let health = Value::parse(&client.scrape(ScrapeKind::Health).unwrap()).unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert!(health.get("uptime_secs").and_then(Value::as_f64).is_some());

    let jobs = Value::parse(&client.scrape(ScrapeKind::Jobs).unwrap()).unwrap();
    let rows = jobs.as_arr().expect("jobs body is a JSON array");
    assert!(
        rows.iter().any(|r| {
            r.get("job_id").and_then(Value::as_f64) == Some(job_id as f64)
                && r.get("state").and_then(Value::as_str) == Some("done")
        }),
        "completed job must appear in the job table"
    );

    let top = Value::parse(&client.scrape(ScrapeKind::Top).unwrap()).unwrap();
    let tenants = top.get("tenants").and_then(Value::as_arr).unwrap();
    assert!(
        tenants.iter().any(|t| {
            t.get("tenant").and_then(Value::as_str) == Some("acme")
                && t.get("e2e_count").and_then(Value::as_f64) == Some(1.0)
        }),
        "tenant 'acme' must appear in top with one e2e observation"
    );
    assert_eq!(
        top.get("breaker").and_then(Value::as_str),
        Some("closed"),
        "device breaker starts closed"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second client can `Observe` a job it does not own: it gets the
/// terminal result with the (possibly large) solution vector stripped,
/// while the owning waiter still receives the full vector — and both see
/// identical scalars and fingerprint.
#[test]
fn observe_strips_solution_vector_for_passive_second_client() {
    let dir = tempdir("observe");
    let handle = Server::new(server_config(dir.clone(), None)).start().unwrap();
    let addr = handle.addr().to_owned();

    let mut owner = Client::tcp(addr.clone(), fast_policy(1));
    let job_id = owner.submit("acme", &sample_job(3, 4)).unwrap();

    // Passive observer on its own connection, racing the solve.
    let observer_handle = std::thread::spawn(move || {
        let mut observer = Client::tcp(addr, fast_policy(2));
        observer.observe(job_id)
    });
    let full = owner.wait(job_id).unwrap();
    let observed = observer_handle.join().unwrap().unwrap();

    assert!(full.converged);
    assert!(!full.x.is_empty(), "the waiter keeps the solution vector");
    assert!(observed.x.is_empty(), "the observer's vector is stripped");
    assert_eq!(observed.converged, full.converged);
    assert_eq!(observed.iterations, full.iterations);
    assert_eq!(observed.solution_fingerprint, full.solution_fingerprint);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flight recorder's on-disk dump is CRC-valid after a normal run
/// and its journal events agree with the journal itself: every job with
/// a terminal flight event has a terminal journal record (the dump may
/// lag the journal by at most the in-flight record, never the reverse).
#[test]
fn flight_dump_is_valid_and_agrees_with_journal_tail() {
    let dir = tempdir("flight");
    let handle = Server::new(server_config(dir.clone(), None)).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy(8));
    let a = client.submit("acme", &sample_job(3, 1)).unwrap();
    let b = client.submit("acme", &sample_job(3, 2)).unwrap();
    assert!(client.wait(a).unwrap().converged);
    assert!(client.wait(b).unwrap().converged);
    handle.stop();

    let dump = FlightDump::read(&dir.join("alserve.alfr"))
        .expect("dump file exists")
        .expect("dump is CRC-valid");
    assert!(dump.total >= 4, "expected start + accepts + terminals");

    let accepts: Vec<u64> = dump
        .records
        .iter()
        .filter(|r| r.code == flight::EV_JOURNAL_ACCEPT)
        .map(|r| r.b)
        .collect();
    let terminals: Vec<u64> = dump
        .records
        .iter()
        .filter(|r| r.code == flight::EV_JOURNAL_TERMINAL)
        .map(|r| r.b)
        .collect();
    for id in [a, b] {
        assert!(accepts.contains(&id), "job {id} accept missing from flight dump");
        assert!(terminals.contains(&id), "job {id} terminal missing from flight dump");
    }

    // Journal agreement: every terminal flight event corresponds to a
    // terminal journal record, so nothing is pending on recovery.
    let journal = Journal::open(dir.join("jobs.wal")).unwrap();
    for id in &terminals {
        assert!(
            journal.terminal_order().contains(id),
            "flight terminal for job {id} has no journal terminal record"
        );
    }
    assert_eq!(journal.recover().len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quota rejections ride the SLO burn ramp: a tenant that is burning its
/// error budget gets a scaled-up `retry_after` hint relative to a tenant
/// inside budget.
#[test]
fn burning_tenant_gets_scaled_retry_after() {
    let dir = tempdir("burn");
    let mut config = server_config(dir.clone(), None);
    // A target of zero microseconds means every completion misses the
    // SLO, driving the burn rate to 1.0 and the ramp to its 8× cap.
    config.slo_target_e2e = Duration::ZERO;
    config.per_tenant_quota = 1;
    config.workers = 1;
    let storage = Arc::new(GatedStorage::default());
    config.storage = Arc::clone(&storage) as Arc<dyn StorageIo>;
    let handle = Server::new(config).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy(6));

    // Complete one job so tenant 'hot' has a recorded (missed) e2e.
    let first = client.submit("hot", &sample_job(3, 1)).unwrap();
    assert!(client.wait(first).unwrap().converged);

    // Fill the quota slot — the shut gate holds the job in flight at its
    // terminal edge, however fast the solve — then probe with a raw
    // frame so the in-band rejection's retry_after hint is directly
    // observable: it must be the base hint scaled by the 8× burn ramp.
    storage.shut(true);
    let parked = client.submit("hot", &sample_job(4, 2)).unwrap();
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    Frame::Submit {
        tenant: "hot".to_owned(),
        job: sample_job(3, 3),
        trace: TraceContext {
            trace_id: 0,
            parent_span: 0,
        },
    }
    .write_to(&mut stream)
    .unwrap();
    match Frame::read_from(&mut stream).unwrap() {
        Frame::Rejected { retry_after, .. } => assert_eq!(
            retry_after,
            Some(Duration::from_millis(5) * 8),
            "burning tenant must see the base retry hint scaled 8x"
        ),
        other => panic!("expected an in-band quota rejection, got {other:?}"),
    }
    drop(stream);
    storage.shut(false);
    assert!(client.wait(parked).unwrap().converged);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Scrape Top` lists every tenant holding quota, not only tenants with a
/// finished job: with one worker held on alpha's job and beta's queued
/// behind it, both tenants get a row.
#[test]
fn top_lists_running_and_queued_tenants() {
    let dir = tempdir("top");
    let storage = Arc::new(GatedStorage::default());
    storage.shut(true);
    let mut config = server_config(dir.clone(), None);
    config.workers = 1;
    config.checkpoint_every = 1;
    config.storage = Arc::clone(&storage) as Arc<dyn StorageIo>;
    let handle = Server::new(config).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy(7));
    let alpha = client.submit("alpha", &sample_job(3, 1)).unwrap();
    storage.wait_for_blocked_worker();
    let beta = client.submit("beta", &sample_job(3, 2)).unwrap();
    let top = client.scrape(ScrapeKind::Top).unwrap();
    storage.shut(false);
    let top = Value::parse(&top).unwrap();
    assert_eq!(top.get("queue_depth").and_then(Value::as_f64), Some(1.0));
    let tenants: Vec<&str> = top
        .get("tenants")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .filter_map(|t| t.get("tenant").and_then(Value::as_str))
        .collect();
    assert_eq!(tenants, ["alpha", "beta"]);
    assert!(client.wait(alpha).unwrap().converged);
    assert!(client.wait(beta).unwrap().converged);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dump on disk never goes backwards: with several clients, two
/// workers and a checkpoint at every iteration (so accept, terminal and
/// checkpoint traffic interleave), the dump read right after each ack
/// decodes and holds that job's accept event. The ring is large enough
/// that no accept event is evicted during the test.
#[test]
fn every_ack_is_covered_by_the_flight_dump_on_disk() {
    let dir = tempdir("ack-dump");
    let mut config = server_config(dir.clone(), None);
    config.checkpoint_every = 1;
    config.flight = Arc::new(flight::FlightRecorder::new(1 << 16));
    let handle = Server::new(config).start().unwrap();
    let dump_path = dir.join("alserve.alfr");
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let addr = handle.addr().to_owned();
            let dump_path = dump_path.clone();
            std::thread::spawn(move || {
                let mut client = Client::tcp(addr, fast_policy(100 + c));
                for j in 0..10 {
                    let job_id = client
                        .submit(&format!("tenant-{c}"), &sample_job(3, c * 10 + j))
                        .unwrap();
                    let dump = FlightDump::read(&dump_path)
                        .expect("dump file exists after an ack")
                        .expect("dump is CRC-valid after an ack");
                    assert!(
                        dump.records
                            .iter()
                            .any(|r| r.code == flight::EV_JOURNAL_ACCEPT && r.b == job_id),
                        "client {c}: acked job {job_id} missing from the dump on disk"
                    );
                    assert!(client.wait(job_id).unwrap().converged);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Workers only solve: every checkpoint write and flight dump of a
/// fault-free run happens inside a `durability:` span, and every such
/// span sits on the durability writer's track, none on a worker's.
#[test]
fn workers_write_no_checkpoints_or_flight_dumps() {
    let dir = tempdir("writer-spans");
    let tele = Telemetry::new();
    let mut config = server_config(dir.clone(), Some(tele.clone()));
    config.checkpoint_every = 1;
    let handle = Server::new(config).start().unwrap();
    let mut client = Client::tcp(handle.addr().to_owned(), fast_policy(11));
    for seed in 0..3 {
        let job_id = client.submit("acme", &sample_job(3, seed)).unwrap();
        assert!(client.wait(job_id).unwrap().converged);
    }
    handle.stop();

    let (mut checkpoints, mut dumps) = (0, 0);
    let mut worker_tracks = 0;
    for track in tele.snapshot_threads() {
        let name = track.name.unwrap_or_default();
        worker_tracks += usize::from(name.starts_with("alserve-worker-"));
        for event in &track.events {
            let alrescha_obs::SpanEvent::Begin { name: span, .. } = event else {
                continue;
            };
            if !span.starts_with("durability:") {
                continue;
            }
            assert_eq!(name, "alserve-durability", "{span} ran on track {name:?}");
            checkpoints += usize::from(span.starts_with("durability:checkpoint:"));
            dumps += usize::from(span == "durability:flight-dump");
        }
    }
    assert!(worker_tracks > 0, "no worker track was recorded");
    assert!(checkpoints > 0, "no checkpoint write was traced");
    assert!(dumps > 0, "no flight dump was traced");
    let _ = std::fs::remove_dir_all(&dir);
}
