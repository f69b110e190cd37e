//! `alserve` — the crash-safe solver daemon and its companion client.
//!
//! ```text
//! alserve serve --bind 127.0.0.1:0 --data-dir /var/lib/alserve
//! alserve solve --addr 127.0.0.1:7070 --side 8 --seed 3
//! alserve drain --addr 127.0.0.1:7070
//! ```
//!
//! `serve` runs the daemon from `alrescha-serve`: jobs are journaled
//! (fsync before the `Accepted` ack), checkpointed mid-solve, and
//! recovered bit-identically after a crash. The first stdout line is
//! always `alserve listening on <addr>` so scripts (and the soak test)
//! can discover an ephemeral port. `SIGTERM`/`SIGINT` drain gracefully:
//! running jobs finish, queued jobs park in the journal for the next
//! start. `--trace-out` writes a Chrome/Perfetto trace of the server's
//! lifetime on shutdown; `--metrics-out` the metrics-registry snapshot
//! (inspect either with `alobs`).
//!
//! The daemon always keeps a flight recorder — a fixed-size ring of
//! structured admission/journal/fault events — and dumps it to
//! `<data-dir>/alserve.alfr` before every `Accepted` ack, after terminal
//! records (without holding up the worker) and from the panic hook, so
//! even a SIGKILL leaves a CRC-valid dump that holds every acked job and
//! lacks at most the terminal records written since its last dump
//! finished (`alobs flight` decodes it). `scrape` and `top`
//! read live introspection out of a running daemon over the same ALSV
//! socket the jobs use.

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use alrescha_obs::flight::{self, FlightRecorder};
use alrescha_obs::json::Value;
use alrescha_serve::{
    Bind, Client, JobPayload, RetryPolicy, ScrapeKind, Server, ServerConfig,
};

/// Set from the signal handler; polled by the serve loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    // `std` exposes no signal API and the workspace vendors no libc, so
    // bind the one POSIX entry point we need directly. The return value
    // (the previous handler) is opaque to us; `usize` matches pointer
    // width on every supported target.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn print_help() {
    println!("alserve — crash-safe persistent solver service");
    println!("  alserve serve [--bind A | --unix P] [--data-dir D] [--workers N]");
    println!("                [--queue-capacity N] [--quota N] [--checkpoint-every N]");
    println!("                [--flight-capacity N] [--slo-target-ms N] [--slo-window-s N]");
    println!("                [--trace-out T] [--metrics-out M]");
    println!("      run the daemon (first stdout line: `alserve listening on <addr>`;");
    println!("      SIGTERM/SIGINT drains, parks queued jobs, and exits; a flight");
    println!("      recorder dump lands in <data-dir>/alserve.alfr even on panic)");
    println!("  alserve solve (--addr A | --unix P) [--side N] [--seed N]");
    println!("                [--tenant T] [--tol X] [--max-iters N] [--trace-out T]");
    println!("      submit one stencil27 PCG job, wait, print the fingerprint;");
    println!("      --trace-out writes the client-side distributed trace (stitch");
    println!("      it with the server's via `alobs stitch`)");
    println!("  alserve scrape (--addr A | --unix P) [--kind metrics|health|jobs|top]");
    println!("      print one live introspection body from a running daemon");
    println!("  alserve top (--addr A | --unix P)");
    println!("      render queue depth, per-tenant quota burn, and breaker state");
    println!("  alserve drain (--addr A | --unix P)");
    println!("      ask a running server to drain");
}

/// Tiny flag parser over the already-collected argv tail: `--flag value`.
struct Flags<'a> {
    argv: &'a [String],
}

impl<'a> Flags<'a> {
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.argv
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.argv.get(i + 1))
            .map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(v) => v.parse().map_err(|_| format!("bad {flag} value {v}")),
            None => Ok(default),
        }
    }

    /// Every `--flag` present must be one of `known` (all value-taking).
    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        let mut i = 0;
        while i < self.argv.len() {
            let a = &self.argv[i];
            if !a.starts_with("--") {
                return Err(format!("unexpected argument {a}"));
            }
            if !known.contains(&a.as_str()) {
                return Err(format!("unknown flag {a}"));
            }
            i += 2; // skip the value
        }
        Ok(())
    }
}

fn client_for(flags: &Flags<'_>) -> Result<Client, String> {
    let policy = RetryPolicy::default();
    match (flags.value("--addr"), flags.value("--unix")) {
        (Some(addr), None) => Ok(Client::tcp(addr, policy)),
        (None, Some(path)) => Ok(Client::unix(path, policy)),
        _ => Err("need exactly one of --addr or --unix".to_owned()),
    }
}

fn cmd_serve(flags: &Flags<'_>) -> Result<(), String> {
    flags.check_known(&[
        "--bind",
        "--unix",
        "--data-dir",
        "--workers",
        "--queue-capacity",
        "--quota",
        "--checkpoint-every",
        "--retry-after-ms",
        "--flight-capacity",
        "--slo-target-ms",
        "--slo-window-s",
        "--trace-out",
        "--metrics-out",
    ])?;
    let bind = match (flags.value("--bind"), flags.value("--unix")) {
        (Some(_), Some(_)) => return Err("--bind and --unix are mutually exclusive".to_owned()),
        (None, Some(path)) => Bind::Unix(path.into()),
        (addr, None) => Bind::Tcp(addr.unwrap_or("127.0.0.1:0").to_owned()),
    };
    let trace_out = flags.value("--trace-out").map(str::to_owned);
    let metrics_out = flags.value("--metrics-out").map(str::to_owned);
    // The daemon always carries telemetry: the live `Scrape` endpoint
    // serves the metrics registry whether or not a trace file is wanted.
    let telemetry = Some(alrescha_obs::Telemetry::new());
    let data_dir: std::path::PathBuf =
        flags.value("--data-dir").unwrap_or("alserve-data").into();
    let flight = Arc::new(FlightRecorder::new(
        flags.parse("--flight-capacity", 1024usize)?,
    ));
    let config = ServerConfig {
        bind,
        data_dir: data_dir.clone(),
        workers: flags.parse("--workers", 2usize)?,
        queue_capacity: flags.parse("--queue-capacity", 64usize)?,
        per_tenant_quota: flags.parse("--quota", 8usize)?,
        checkpoint_every: flags.parse("--checkpoint-every", 8usize)?,
        retry_after_hint: Duration::from_millis(flags.parse("--retry-after-ms", 25u64)?),
        flight: Arc::clone(&flight),
        slo_target_e2e: Duration::from_millis(flags.parse("--slo-target-ms", 250u64)?),
        slo_window: Duration::from_secs(flags.parse("--slo-window-s", 60u64)?),
        telemetry: telemetry.clone(),
        ..ServerConfig::default()
    };

    // Last-gasp flight dump: a panic anywhere in the process still
    // leaves a CRC-valid `.alfr` next to the journal. The ring itself is
    // lock-free to record into; `sync_to` only runs after the panic is
    // already unwinding, so blocking on file I/O here is fine.
    let panic_flight = Arc::clone(&flight);
    let panic_path = data_dir.join("alserve.alfr");
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        panic_flight.record(flight::EV_PANIC, 0, 0, "panic");
        let _ = panic_flight.sync_to(&panic_path);
        default_hook(info);
    }));

    // Install the drain-on-signal handlers before accepting anything.
    // SAFETY: `on_signal` only touches a static atomic, which is
    // async-signal-safe; `signal(2)` itself has no other side effects here.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }

    let handle = Server::new(config).start().map_err(|e| e.to_string())?;
    // The discovery line scripts (and the soak harness) key on. Flush:
    // stdout is block-buffered under a pipe and the line must be visible
    // before the first job arrives.
    println!("alserve listening on {}", handle.addr());
    let _ = std::io::stdout().flush();

    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("alserve: signal received, draining ({} active)", handle.active_jobs());
    handle.drain();
    handle.wait_idle(Duration::from_millis(20));
    handle.stop();
    if let Some(tele) = &telemetry {
        if let Some(path) = &trace_out {
            std::fs::write(path, alrescha_obs::export_chrome_trace(tele))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("alserve: wrote Chrome trace to {path}");
        }
        if let Some(path) = &metrics_out {
            std::fs::write(path, tele.metrics().snapshot_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("alserve: wrote metrics snapshot to {path}");
        }
    }
    eprintln!("alserve: stopped");
    Ok(())
}

fn cmd_solve(flags: &Flags<'_>) -> Result<(), String> {
    flags.check_known(&[
        "--addr",
        "--unix",
        "--side",
        "--seed",
        "--tenant",
        "--tol",
        "--max-iters",
        "--priority",
        "--trace-out",
    ])?;
    let side = flags.parse("--side", 4usize)?;
    let seed = flags.parse("--seed", 0u64)?;
    let tenant = flags.value("--tenant").unwrap_or("cli");
    let matrix = alrescha_sparse::gen::stencil27(side);
    let rows = matrix.rows();
    let job = JobPayload {
        matrix,
        b: (0..rows)
            .map(|i| ((i as f64) + (seed as f64) * 0.25).sin() + 1.5)
            .collect(),
        tol: flags.parse("--tol", 1e-10f64)?,
        max_iters: flags.parse("--max-iters", 500u64)?,
        priority: flags.parse("--priority", 0u8)?,
    };
    let trace_out = flags.value("--trace-out").map(str::to_owned);
    let telemetry = trace_out.as_ref().map(|_| alrescha_obs::Telemetry::new());
    let mut client = client_for(flags)?;
    if let Some(tele) = &telemetry {
        client = client.with_telemetry(Arc::clone(tele));
    }
    let job_id = client.submit(tenant, &job).map_err(|e| e.to_string())?;
    let trace = client.trace_id_of(job_id).unwrap_or(0);
    eprintln!("alserve: job {job_id} accepted (n = {rows}, trace {trace:016x}), waiting");
    let result = client.wait(job_id).map_err(|e| e.to_string())?;
    println!(
        "job {job_id}: converged={} iterations={} residual={:.3e} fingerprint={:016x}",
        result.converged, result.iterations, result.residual, result.solution_fingerprint
    );
    if let (Some(path), Some(tele)) = (&trace_out, &telemetry) {
        std::fs::write(path, alrescha_obs::export_chrome_trace(tele))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("alserve: wrote client trace to {path}");
    }
    if result.converged {
        Ok(())
    } else {
        Err(format!("job {job_id} did not converge"))
    }
}

fn scrape_kind(name: &str) -> Result<ScrapeKind, String> {
    match name {
        "metrics" => Ok(ScrapeKind::Metrics),
        "health" => Ok(ScrapeKind::Health),
        "jobs" => Ok(ScrapeKind::Jobs),
        "top" => Ok(ScrapeKind::Top),
        other => Err(format!(
            "bad --kind {other} (want metrics, health, jobs, or top)"
        )),
    }
}

fn cmd_scrape(flags: &Flags<'_>) -> Result<(), String> {
    flags.check_known(&["--addr", "--unix", "--kind"])?;
    let kind = scrape_kind(flags.value("--kind").unwrap_or("metrics"))?;
    let mut client = client_for(flags)?;
    let body = client.scrape(kind).map_err(|e| e.to_string())?;
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
    Ok(())
}

/// Renders the `Top` scrape body as a human table: daemon vitals first,
/// then one row per tenant with quota burn and SLO state.
fn cmd_top(flags: &Flags<'_>) -> Result<(), String> {
    flags.check_known(&["--addr", "--unix"])?;
    let mut client = client_for(flags)?;
    let body = client.scrape(ScrapeKind::Top).map_err(|e| e.to_string())?;
    let doc = Value::parse(&body).map_err(|e| format!("malformed top body: {e}"))?;
    let int = |key: &str| doc.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let text = |key: &str| {
        doc.get(key)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    println!(
        "queue {}  active {}  draining {}  breaker device={} storage={}  quota-rejects {}",
        int("queue_depth"),
        int("active_jobs"),
        doc.get("draining")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        text("breaker"),
        text("storage_breaker"),
        int("quota_rejections"),
    );
    let tenants = doc.get("tenants").and_then(Value::as_arr).unwrap_or(&[]);
    if tenants.is_empty() {
        println!("(no tenants yet)");
        return Ok(());
    }
    println!(
        "{:<16} {:>8} {:>7} {:>9} {:>11} {:>9}",
        "tenant", "inflight", "quota", "burn", "retry-scale", "e2e-seen"
    );
    for tenant in tenants {
        let f = |key: &str| tenant.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "{:<16} {:>8} {:>7} {:>8.1}% {:>10}x {:>9}",
            tenant.get("tenant").and_then(Value::as_str).unwrap_or("?"),
            f("inflight") as u64,
            f("quota") as u64,
            f("burn_rate") * 100.0,
            f("retry_scale") as u64,
            f("e2e_count") as u64,
        );
    }
    Ok(())
}

fn cmd_drain(flags: &Flags<'_>) -> Result<(), String> {
    flags.check_known(&["--addr", "--unix"])?;
    let mut client = client_for(flags)?;
    client.drain().map_err(|e| e.to_string())?;
    println!("draining");
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let tail = Flags {
        argv: argv.get(1..).unwrap_or(&[]),
    };
    match argv.first().map(String::as_str) {
        Some("serve") => cmd_serve(&tail),
        Some("solve") => cmd_solve(&tail),
        Some("scrape") => cmd_scrape(&tail),
        Some("top") => cmd_top(&tail),
        Some("drain") => cmd_drain(&tail),
        Some("--help" | "-h") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            print_help();
            ExitCode::FAILURE
        }
    }
}
