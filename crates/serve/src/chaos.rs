//! `alchaos` network leg: a seeded, frame-aware fault proxy for ALSV.
//!
//! [`ChaosProxy`] sits between a [`crate::client::Client`] and a
//! [`crate::server::Server`] as an in-process TCP relay. It understands
//! the ALSV frame layout just enough to find frame boundaries (13-byte
//! header, payload, CRC-32 trailer) and injects faults *per forwarded
//! frame* from a [`NetFaultPlan`] seed:
//!
//! * **delay** — hold the frame for a fixed interval, then forward it;
//! * **corrupt** — flip one bit in the payload/CRC region, so the
//!   receiver sees a deterministic CRC mismatch (never a desync);
//! * **truncate** — forward a strict prefix of the frame, then close
//!   both legs (the receiver observes a torn frame + EOF);
//! * **drop** — forward nothing and close both legs;
//! * **disconnect** — forward the frame intact, then close both legs.
//!
//! Every framing fault closes the connection on purpose: the client
//! absorbs read timeouts until its operation deadline, so a silently
//! swallowed frame would stall the harness instead of exercising the
//! reconnect path. Fault streams are split per connection and per
//! direction (`seed ^ (2·conn + dir)` through splitmix64), so a given
//! seed replays the exact same fault schedule as long as connections
//! are opened in the same order — which a single-client harness
//! guarantees.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use alrescha_obs::Telemetry;

use crate::protocol::{self, HEADER_LEN};

/// Poll interval for the accept loop and stop-flag checks.
const POLL: Duration = Duration::from_millis(5);

use alrescha::util::{splitmix64, unit_f64};

fn draw_unit(state: &mut u64) -> f64 {
    unit_f64(splitmix64(state))
}

/// Seeded per-frame fault probabilities for the ALSV proxy.
///
/// Rates are per forwarded frame and stack into disjoint intervals, so
/// at most one fault fires per frame. All draws come from a splitmix64
/// stream derived from `seed`, the connection index, and the direction,
/// making every schedule replayable from the seed alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    /// Base seed for the per-connection fault substreams.
    pub seed: u64,
    /// Probability a frame is held for [`NetFaultPlan::delay`] first.
    pub delay_rate: f64,
    /// How long a delayed frame is held before forwarding.
    pub delay: Duration,
    /// Probability one bit of the payload/CRC region is flipped.
    pub corrupt_rate: f64,
    /// Probability only a strict prefix is forwarded before closing.
    pub truncate_rate: f64,
    /// Probability the frame is discarded and the connection closed.
    pub drop_rate: f64,
    /// Probability the frame is forwarded intact, then the
    /// connection closed.
    pub disconnect_rate: f64,
}

impl NetFaultPlan {
    /// A plan that never fires: the proxy becomes a transparent relay.
    #[must_use]
    pub fn inert(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            delay_rate: 0.0,
            delay: Duration::ZERO,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            drop_rate: 0.0,
            disconnect_rate: 0.0,
        }
    }

    /// The harness default: every fault kind fires often enough to be
    /// exercised within a short run, while most frames still pass.
    #[must_use]
    pub fn aggressive(seed: u64) -> Self {
        NetFaultPlan {
            seed,
            delay_rate: 0.10,
            delay: Duration::from_millis(5),
            corrupt_rate: 0.08,
            truncate_rate: 0.08,
            drop_rate: 0.08,
            disconnect_rate: 0.08,
        }
    }
}

/// The network fault kinds [`ChaosProxy`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFaultKind {
    /// Frame held for the plan's delay, then forwarded intact.
    Delay,
    /// One bit flipped in the payload/CRC region; framing preserved.
    Corrupt,
    /// Strict prefix forwarded, then both legs closed.
    Truncate,
    /// Frame discarded, both legs closed.
    Drop,
    /// Frame forwarded intact, then both legs closed.
    Disconnect,
}

impl NetFaultKind {
    /// Stable snake-case label used in metric names and spans.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetFaultKind::Delay => "delay",
            NetFaultKind::Corrupt => "corrupt",
            NetFaultKind::Truncate => "truncate",
            NetFaultKind::Drop => "drop",
            NetFaultKind::Disconnect => "disconnect",
        }
    }
}

impl fmt::Display for NetFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Totals of every network fault the proxy has injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultCounters {
    /// Frames held for the plan's delay.
    pub delays: u64,
    /// Frames forwarded with one flipped bit.
    pub corruptions: u64,
    /// Frames cut to a strict prefix before the close.
    pub truncations: u64,
    /// Frames discarded outright.
    pub drops: u64,
    /// Frames forwarded intact before a forced close.
    pub disconnects: u64,
}

impl NetFaultCounters {
    /// Total faults injected across every kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.delays + self.corruptions + self.truncations + self.drops + self.disconnects
    }

    /// True when every fault kind has fired at least once — the
    /// harness's coverage check.
    #[must_use]
    pub fn all_kinds_fired(&self) -> bool {
        self.delays > 0
            && self.corruptions > 0
            && self.truncations > 0
            && self.drops > 0
            && self.disconnects > 0
    }

    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &NetFaultCounters) {
        self.delays += other.delays;
        self.corruptions += other.corruptions;
        self.truncations += other.truncations;
        self.drops += other.drops;
        self.disconnects += other.disconnects;
    }
}

/// What [`decide`] resolved for one frame.
enum FrameFault {
    Forward,
    Delay,
    Corrupt { index: usize, mask: u8 },
    Truncate { cut: usize },
    Drop,
    Disconnect,
}

fn decide(plan: &NetFaultPlan, rng: &mut u64, frame_len: usize) -> FrameFault {
    let roll = draw_unit(rng);
    let mut edge = plan.drop_rate;
    if roll < edge {
        return FrameFault::Drop;
    }
    edge += plan.truncate_rate;
    if roll < edge {
        // A strict prefix: at least one byte delivered, at least one cut.
        let cut = 1 + (splitmix64(rng) as usize) % (frame_len - 1);
        return FrameFault::Truncate { cut };
    }
    edge += plan.corrupt_rate;
    if roll < edge {
        // Flip a bit past the header so the damage lands in the
        // payload/CRC region: framing stays intact and the receiver
        // sees a clean, retryable CRC mismatch instead of a desync.
        let span = frame_len - HEADER_LEN;
        let index = HEADER_LEN + (splitmix64(rng) as usize) % span;
        let mask = 1u8 << (splitmix64(rng) % 8);
        return FrameFault::Corrupt { index, mask };
    }
    edge += plan.disconnect_rate;
    if roll < edge {
        return FrameFault::Disconnect;
    }
    edge += plan.delay_rate;
    if roll < edge {
        return FrameFault::Delay;
    }
    FrameFault::Forward
}

#[derive(Debug)]
struct ProxyShared {
    plan: NetFaultPlan,
    counters: Mutex<NetFaultCounters>,
    telemetry: Option<Arc<Telemetry>>,
    stop: AtomicBool,
    conn_seq: AtomicU64,
}

impl ProxyShared {
    fn record(&self, kind: NetFaultKind) {
        {
            #[allow(clippy::unwrap_used)] // Mutex poisoning is fatal here.
            let mut counters = self.counters.lock().unwrap();
            match kind {
                NetFaultKind::Delay => counters.delays += 1,
                NetFaultKind::Corrupt => counters.corruptions += 1,
                NetFaultKind::Truncate => counters.truncations += 1,
                NetFaultKind::Drop => counters.drops += 1,
                NetFaultKind::Disconnect => counters.disconnects += 1,
            }
        }
        if let Some(tele) = &self.telemetry {
            let name = match kind {
                NetFaultKind::Delay => "alchaos_net_delay_total",
                NetFaultKind::Corrupt => "alchaos_net_corrupt_total",
                NetFaultKind::Truncate => "alchaos_net_truncate_total",
                NetFaultKind::Drop => "alchaos_net_drop_total",
                NetFaultKind::Disconnect => "alchaos_net_disconnect_total",
            };
            tele.metrics()
                .counter(name, true, "network faults injected by the ALSV chaos proxy")
                .inc();
            tele.instant(format!("alchaos.net.{kind}"));
        }
    }
}

/// A seeded in-process fault proxy for the ALSV TCP transport.
///
/// Listens on an ephemeral loopback port and relays each accepted
/// connection to the backend address, injecting [`NetFaultPlan`] faults
/// per forwarded frame. Point a [`crate::client::Client`] at
/// [`ChaosProxy::addr`] instead of the server's address.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: String,
    shared: Arc<ProxyShared>,
    accept_handle: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Start a proxy relaying to `backend` (a `host:port` address).
    ///
    /// # Errors
    /// Fails if the loopback listener cannot be bound.
    pub fn start(backend: impl Into<String>, plan: NetFaultPlan) -> io::Result<ChaosProxy> {
        ChaosProxy::start_with_telemetry(backend, plan, None)
    }

    /// [`ChaosProxy::start`], with every injected fault also counted in
    /// `alchaos_net_*_total` metrics and marked as a trace instant.
    ///
    /// # Errors
    /// Fails if the loopback listener cannot be bound.
    pub fn start_with_telemetry(
        backend: impl Into<String>,
        plan: NetFaultPlan,
        telemetry: Option<Arc<Telemetry>>,
    ) -> io::Result<ChaosProxy> {
        let backend = backend.into();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let shared = Arc::new(ProxyShared {
            plan,
            counters: Mutex::new(NetFaultCounters::default()),
            telemetry,
            stop: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
        });
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_handles);
        let accept_handle = thread::Builder::new()
            .name("alchaos-proxy-accept".into())
            .spawn(move || accept_loop(&listener, &backend, &accept_shared, &accept_conns))?;
        Ok(ChaosProxy {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            conn_handles,
        })
    }

    /// The `host:port` loopback address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The plan this proxy injects from.
    #[must_use]
    pub fn plan(&self) -> NetFaultPlan {
        self.shared.plan
    }

    /// A snapshot of every fault injected so far.
    #[must_use]
    pub fn counters(&self) -> NetFaultCounters {
        #[allow(clippy::unwrap_used)] // Mutex poisoning is fatal here.
        let counters = self.shared.counters.lock().unwrap();
        *counters
    }

    /// Stop the proxy: close the listener, sever every live relay, and
    /// join all threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        let handles = {
            #[allow(clippy::unwrap_used)] // Mutex poisoning is fatal here.
            let mut conns = self.conn_handles.lock().unwrap();
            std::mem::take(&mut *conns)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    backend: &str,
    shared: &Arc<ProxyShared>,
    conn_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let conn = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
                match TcpStream::connect(backend) {
                    Ok(server) => {
                        spawn_relay(client, server, conn, shared, conn_handles);
                    }
                    Err(_) => {
                        // Backend gone (e.g. drained): drop the client
                        // so its reconnect/backoff path fires.
                        let _ = client.shutdown(Shutdown::Both);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
}

fn spawn_relay(
    client: TcpStream,
    server: TcpStream,
    conn: u64,
    shared: &Arc<ProxyShared>,
    conn_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let pairs = [
        (client.try_clone(), server.try_clone(), 0u64),
        (server.try_clone(), client.try_clone(), 1u64),
    ];
    let mut spawned = Vec::new();
    for (from, to, dir) in pairs {
        let (Ok(from), Ok(to)) = (from, to) else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        };
        let mut rng = shared.plan.seed ^ splitmix64(&mut (2 * conn + dir));
        // Decorrelate the substream from the raw seed before first use.
        let _ = splitmix64(&mut rng);
        let pump_shared = Arc::clone(shared);
        let name = format!("alchaos-proxy-{conn}-{dir}");
        if let Ok(handle) = thread::Builder::new()
            .name(name)
            .spawn(move || pump(&from, &to, &pump_shared, rng))
        {
            spawned.push(handle);
        }
    }
    #[allow(clippy::unwrap_used)] // Mutex poisoning is fatal here.
    let mut conns = conn_handles.lock().unwrap();
    conns.extend(spawned);
}

/// Relay whole ALSV frames from `from` to `to`, injecting plan faults.
fn pump(from: &TcpStream, to: &TcpStream, shared: &Arc<ProxyShared>, mut rng: u64) {
    let _ = from.set_read_timeout(Some(POLL.saturating_mul(10)));
    while let Some(frame) = read_frame(from, shared) {
        match decide(&shared.plan, &mut rng, frame.len()) {
            FrameFault::Forward => {
                if write_all(to, &frame).is_err() {
                    break;
                }
            }
            FrameFault::Delay => {
                shared.record(NetFaultKind::Delay);
                thread::sleep(shared.plan.delay);
                if write_all(to, &frame).is_err() {
                    break;
                }
            }
            FrameFault::Corrupt { index, mask } => {
                shared.record(NetFaultKind::Corrupt);
                let mut damaged = frame;
                damaged[index] ^= mask;
                if write_all(to, &damaged).is_err() {
                    break;
                }
            }
            FrameFault::Truncate { cut } => {
                shared.record(NetFaultKind::Truncate);
                let _ = write_all(to, &frame[..cut]);
                break;
            }
            FrameFault::Drop => {
                shared.record(NetFaultKind::Drop);
                break;
            }
            FrameFault::Disconnect => {
                shared.record(NetFaultKind::Disconnect);
                let _ = write_all(to, &frame);
                break;
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Read one whole ALSV frame (header + payload + CRC), absorbing read
/// timeouts until the stop flag trips. Returns `None` on EOF, error, a
/// non-ALSV byte stream, or shutdown.
fn read_frame(from: &TcpStream, shared: &Arc<ProxyShared>) -> Option<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_absorbing(from, &mut header, shared)?;
    // Not speaking ALSV (bad magic, oversized payload): bail out and let
    // both sides see the close.
    let mut frame = vec![0u8; protocol::frame_len(&header).ok()?];
    frame[..HEADER_LEN].copy_from_slice(&header);
    read_exact_absorbing(from, &mut frame[HEADER_LEN..], shared)?;
    Some(frame)
}

/// `read_exact` that treats `WouldBlock`/`TimedOut` as "poll again"
/// (checking the stop flag between polls) and never loses a partial
/// read. Returns `None` on EOF, a real error, or shutdown.
fn read_exact_absorbing(
    mut from: &TcpStream,
    buf: &mut [u8],
    shared: &Arc<ProxyShared>,
) -> Option<()> {
    let mut filled = 0;
    while filled < buf.len() {
        if shared.stop.load(Ordering::SeqCst) {
            return None;
        }
        match from.read(&mut buf[filled..]) {
            Ok(0) => return None,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    Some(())
}

fn write_all(mut to: &TcpStream, bytes: &[u8]) -> io::Result<()> {
    to.write_all(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Frame;
    use std::net::TcpListener;

    fn echo_server() -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = thread::spawn(move || {
            // Serve a handful of connections, echoing Ping -> Pong.
            for _ in 0..16 {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                while let Ok(Frame::Ping) = Frame::read_from(&mut stream) {
                    if Frame::Pong.write_to(&mut stream).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn inert_proxy_is_a_transparent_relay() {
        let (backend, _server) = echo_server();
        let proxy = ChaosProxy::start(backend, NetFaultPlan::inert(1)).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        for _ in 0..8 {
            Frame::Ping.write_to(&mut stream).unwrap();
            assert!(matches!(Frame::read_from(&mut stream).unwrap(), Frame::Pong));
        }
        assert_eq!(proxy.counters(), NetFaultCounters::default());
        proxy.stop();
    }

    #[test]
    fn identical_seeds_produce_identical_fault_decisions() {
        let plan = NetFaultPlan::aggressive(0xC0FFEE);
        let mut a = plan.seed ^ 7;
        let mut b = plan.seed ^ 7;
        for len in [17usize, 64, 256, 1024, 17, 33] {
            let da = decide(&plan, &mut a, len);
            let db = decide(&plan, &mut b, len);
            let label = |d: &FrameFault| match d {
                FrameFault::Forward => 0u8,
                FrameFault::Delay => 1,
                FrameFault::Corrupt { .. } => 2,
                FrameFault::Truncate { .. } => 3,
                FrameFault::Drop => 4,
                FrameFault::Disconnect => 5,
            };
            assert_eq!(label(&da), label(&db));
        }
        assert_eq!(a, b, "rng states must advance in lockstep");
    }

    #[test]
    fn decide_eventually_fires_every_kind() {
        let plan = NetFaultPlan::aggressive(42);
        let mut rng = plan.seed;
        let mut counters = NetFaultCounters::default();
        for _ in 0..4096 {
            match decide(&plan, &mut rng, 64) {
                FrameFault::Forward => {}
                FrameFault::Delay => counters.delays += 1,
                FrameFault::Corrupt { index, mask } => {
                    assert!((HEADER_LEN..64).contains(&index));
                    assert_eq!(mask.count_ones(), 1);
                    counters.corruptions += 1;
                }
                FrameFault::Truncate { cut } => {
                    assert!((1..64).contains(&cut));
                    counters.truncations += 1;
                }
                FrameFault::Drop => counters.drops += 1,
                FrameFault::Disconnect => counters.disconnects += 1,
            }
        }
        assert!(counters.all_kinds_fired(), "coverage: {counters:?}");
    }

    #[test]
    fn corrupted_frames_fail_crc_on_the_receiver() {
        let (backend, _server) = echo_server();
        // Corrupt every frame in both directions; everything else off.
        let plan = NetFaultPlan {
            corrupt_rate: 1.0,
            ..NetFaultPlan::inert(9)
        };
        let proxy = ChaosProxy::start(backend, plan).unwrap();
        let mut stream = TcpStream::connect(proxy.addr()).unwrap();
        Frame::Ping.write_to(&mut stream).unwrap();
        // The server CRC-rejects the damaged Ping and replies Rejected
        // (with a retry hint) — which the proxy then damages too, so the
        // client-side read must also fail the CRC (or see the close).
        assert!(Frame::read_from(&mut stream).is_err());
        assert!(proxy.counters().corruptions >= 1);
        proxy.stop();
    }

    #[test]
    fn counters_merge_and_report_coverage() {
        let mut a = NetFaultCounters {
            delays: 1,
            corruptions: 0,
            truncations: 2,
            drops: 0,
            disconnects: 1,
        };
        let b = NetFaultCounters {
            delays: 0,
            corruptions: 3,
            truncations: 0,
            drops: 4,
            disconnects: 0,
        };
        assert!(!a.all_kinds_fired());
        a.merge(&b);
        assert!(a.all_kinds_fired());
        assert_eq!(a.total(), 11);
    }
}
