//! The I/O surface: a chaos proxy and direct attackers against a live
//! `hems-serve` instance.
//!
//! Topology:
//!
//! ```text
//! retrying Client ──► ChaosProxy ──► hems-serve (solve-panic injection on)
//! attackers ─────────────────────────────────────┘ (direct connections)
//! ```
//!
//! The proxy assigns each accepted connection a scripted fault — tear the
//! request mid-byte, tear the response mid-byte, delay the response, or
//! pass a few frames through then hang up — in a seed-deterministic
//! sequence. The attackers hit the server directly with torn frames,
//! disconnects mid-response, and a slow-loris drip that only the read
//! deadline can clear. Meanwhile every *healthy* request goes through the
//! retrying [`hems_serve::Client`], and the campaign demands all of them
//! get answered.
//!
//! A process-wide panic probe watches threads named `hems-serve-*`
//! (acceptor, connection threads). The campaign's injected solve faults
//! fire there too, on the connection thread that solves the miss, with a
//! payload tagged `chaos:`; the probe counts those apart. A serve panic is
//! an escape when it is untagged (a genuine server-side crash), or when
//! the tagged count disagrees with the server's own `faults` counter (an
//! injected fault the isolation path did not answer). The campaign
//! requires zero escapes.
//!
//! Determinism: all traffic is sequential (one phase at a time, one
//! request in flight), so connection order, proxy fault order, solve
//! fault order, retry counts, and every counter in the report are pure
//! functions of the seed. Wall-clock quantities are deliberately kept out
//! of the report.

use crate::error::ChaosError;
use crate::plan::CampaignConfig;
use hems_obs::{relock, Registry};
use hems_serve::client::{Client, RetryPolicy};
use hems_serve::json::Value;
use hems_serve::proto::{QueryKind, Request, ScenarioSpec};
use hems_serve::server::{serve, ServeConfig};
use hems_serve::wire::{accept_streams, send_line, AcceptStop};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// Untagged panics observed on `hems-serve-*` threads since process
/// start.
static SERVE_PANICS: AtomicU64 = AtomicU64::new(0);
/// `chaos:`-tagged panics observed on `hems-serve-*` threads since
/// process start.
static SERVE_INJECTED: AtomicU64 = AtomicU64::new(0);
static PROBE: OnceLock<()> = OnceLock::new();
/// One net campaign at a time: the probe's counters are process-wide, so
/// a campaign's before/after difference is its own only while no other
/// campaign's server is panicking.
static CAMPAIGN: Mutex<()> = Mutex::new(());

/// Installs the process-wide panic probe (idempotent). Counts panics on
/// server threads, injected faults (payloads tagged `chaos:`) apart from
/// the rest; injected faults skip the default backtrace printer to keep
/// reports clean.
pub fn install_panic_probe() {
    PROBE.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.starts_with("chaos:"));
            // hems-lint: allow(taint, reason = "thread *name* only, to classify hems-serve-* panics into a counter; names are fixed strings, no os id reaches report bytes")
            let current = thread::current();
            if current.name().unwrap_or("").starts_with("hems-serve-") {
                let count = if injected {
                    &SERVE_INJECTED
                } else {
                    &SERVE_PANICS
                };
                count.fetch_add(1, Ordering::SeqCst);
            }
            if !injected {
                previous(info);
            }
        }));
    });
}

/// What the proxy does to one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnFault {
    /// Relay this many request/response frames, then hang up cleanly.
    PassThen(u32),
    /// Forward only a prefix of the first request line, then close both
    /// sides — the server sees a frame torn mid-byte.
    TearRequest,
    /// Relay the request, then forward only a prefix of the response —
    /// the client sees a frame torn mid-byte.
    TearResponse,
    /// Relay frames but sit on each response briefly first.
    Delay(u64),
}

/// Reads one line, polling through read-deadline wakeups until `stop`.
/// `Ok(None)` is EOF.
fn read_line_patient(
    reader: &mut BufReader<TcpStream>,
    stop: &AcceptStop,
) -> std::io::Result<Option<String>> {
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(line)),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Partial bytes stay buffered in `line`; keep waiting
                // unless the proxy is shutting down.
                if stop.is_stopped() {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// One proxied connection, relayed frame-by-frame on a single thread
/// (the protocol is one request in flight per connection).
fn relay(client: TcpStream, upstream_addr: SocketAddr, fault: ConnFault, stop: AcceptStop) {
    let run = || -> std::io::Result<()> {
        let upstream = TcpStream::connect(upstream_addr)?;
        let poll = Some(Duration::from_millis(50));
        client.set_read_timeout(poll)?;
        upstream.set_read_timeout(poll)?;
        let mut from_client = BufReader::new(client.try_clone()?);
        let mut from_upstream = BufReader::new(upstream.try_clone()?);
        let mut to_client = client;
        let mut to_upstream = upstream;
        let mut frames = 0u32;
        loop {
            let Some(request) = read_line_patient(&mut from_client, &stop)? else {
                return Ok(());
            };
            if fault == ConnFault::TearRequest {
                let cut = request.len().saturating_sub(request.len() / 3).max(1);
                to_upstream.write_all(request.as_bytes().get(..cut).unwrap_or(b"{"))?;
                // Close both directions: the server sees EOF mid-frame.
                return Ok(());
            }
            to_upstream.write_all(request.as_bytes())?;
            let Some(response) = read_line_patient(&mut from_upstream, &stop)? else {
                return Ok(());
            };
            match fault {
                ConnFault::TearResponse => {
                    let cut = (response.len() / 2).max(1);
                    to_client.write_all(response.as_bytes().get(..cut).unwrap_or(b"{"))?;
                    return Ok(());
                }
                ConnFault::Delay(ms) => {
                    thread::sleep(Duration::from_millis(ms));
                    to_client.write_all(response.as_bytes())?;
                }
                _ => {
                    to_client.write_all(response.as_bytes())?;
                }
            }
            frames += 1;
            // Rotate connections: close after a few frames so the client
            // reconnects and consumes the next scripted fault.
            let frame_cap = match fault {
                ConnFault::PassThen(n) => n,
                ConnFault::Delay(_) => 2,
                _ => u32::MAX,
            };
            if frames >= frame_cap {
                return Ok(());
            }
        }
    };
    // A relay error just ends this connection; the client retries.
    let _ = run();
}

/// A TCP proxy that injects one scripted fault per connection.
pub(crate) struct ChaosProxy {
    addr: SocketAddr,
    stop: AcceptStop,
    acceptor: Option<thread::JoinHandle<()>>,
    faulted: Arc<AtomicU64>,
}

impl ChaosProxy {
    pub(crate) fn start(
        upstream: SocketAddr,
        script: Vec<ConnFault>,
    ) -> Result<ChaosProxy, ChaosError> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ChaosError::new("net: proxy bind", e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ChaosError::new("net: proxy addr", e.to_string()))?;
        let stop = AcceptStop::for_listener(&listener)
            .map_err(|e| ChaosError::new("net: proxy addr", e.to_string()))?;
        let faulted = Arc::new(AtomicU64::new(0));
        let acceptor = {
            let stop = stop.clone();
            let faulted = Arc::clone(&faulted);
            let mut next = 0usize;
            accept_streams(listener, "hems-chaos-proxy", stop.clone(), move |conn| {
                let fault = script.get(next).copied().unwrap_or(ConnFault::PassThen(4));
                next += 1;
                if !matches!(fault, ConnFault::PassThen(_)) {
                    faulted.fetch_add(1, Ordering::SeqCst);
                }
                let stop = stop.clone();
                let _ = thread::Builder::new()
                    .name("hems-chaos-relay".to_string())
                    .spawn(move || relay(conn, upstream, fault, stop));
            })
            .map_err(|e| ChaosError::new("net: proxy spawn", e.to_string()))?
        };
        Ok(ChaosProxy {
            addr,
            stop,
            acceptor: Some(acceptor),
            faulted,
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn faults(&self) -> u64 {
        self.faulted.load(Ordering::SeqCst)
    }

    pub(crate) fn shutdown(&mut self) {
        self.stop.stop();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The scenario healthy request `i` asks about — a small rotation so some
/// requests repeat (cache hits) and some are fresh (solves).
fn scenario_for(i: usize) -> (QueryKind, ScenarioSpec) {
    let kinds = [QueryKind::Mep, QueryKind::OptimalPoint, QueryKind::Bypass];
    let kind = kinds
        .get(i % kinds.len())
        .copied()
        .unwrap_or(QueryKind::Mep);
    let spec = ScenarioSpec::baseline(0.30 + 0.05 * ((i % 5) as f64));
    (kind, spec)
}

fn healthy_phase(
    proxy_addr: SocketAddr,
    phase: &str,
    count: usize,
    start_at: usize,
    jitter_seed: u64,
    lines: &mut Vec<Value>,
) -> (u64, u64) {
    let mut client = Client::new(
        proxy_addr,
        RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(100),
            request_timeout: Duration::from_secs(5),
            jitter_seed,
        },
    );
    let mut answered = 0u64;
    let mut failed = 0u64;
    for i in start_at..start_at + count {
        let (kind, spec) = scenario_for(i);
        match client.plan(kind, &spec) {
            Ok(answer) => {
                answered += 1;
                lines.push(Value::obj(vec![
                    ("surface", Value::str("net")),
                    ("phase", Value::str(phase)),
                    ("request", Value::Num(i as f64)),
                    ("query", Value::str(kind.as_wire())),
                    ("attempts", Value::Num(answer.attempts as f64)),
                    ("cached", Value::Bool(answer.cached)),
                    ("answered", Value::Bool(true)),
                ]));
            }
            Err(e) => {
                failed += 1;
                lines.push(Value::obj(vec![
                    ("surface", Value::str("net")),
                    ("phase", Value::str(phase)),
                    ("request", Value::Num(i as f64)),
                    ("query", Value::str(kind.as_wire())),
                    ("answered", Value::Bool(false)),
                    ("error", Value::str(e.to_string())),
                ]));
            }
        }
    }
    (answered, failed)
}

/// The direct attackers: each returns whether the server behaved.
fn attack_wave(
    server_addr: SocketAddr,
    read_timeout: Duration,
    lines: &mut Vec<Value>,
) -> (u64, u64) {
    let mut injected = 0u64;
    let mut recovered = 0u64;
    let mut record = |attack: &str, ok: bool, lines: &mut Vec<Value>| {
        injected += 1;
        if ok {
            recovered += 1;
        }
        lines.push(Value::obj(vec![
            ("surface", Value::str("net")),
            ("phase", Value::str("attack")),
            ("attack", Value::str(attack)),
            ("survived", Value::Bool(ok)),
        ]));
    };

    // 1. Torn frame then hangup: a half request with no newline.
    let torn_close = TcpStream::connect(server_addr)
        .and_then(|mut s| s.write_all(br#"{"id":1,"query":"me"#))
        .is_ok();
    record("torn_frame_close", torn_close, lines);

    // 2. Torn frame with a newline: must be answered with an error frame,
    // and the connection must survive for a follow-up request.
    let torn_newline = (|| -> std::io::Result<bool> {
        let mut s = TcpStream::connect(server_addr)?;
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        s.write_all(b"{\"id\":2,\"query\":\"mep\",\"scenario\":{\"irr\n")?;
        let mut reader = BufReader::new(s.try_clone()?);
        let mut response = String::new();
        reader.read_line(&mut response)?;
        let errored = hems_serve::json::parse(&response)
            .ok()
            .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_string))
            == Some("error".to_string());
        s.write_all(b"{\"id\":3,\"query\":\"stats\"}\n")?;
        let mut second = String::new();
        reader.read_line(&mut second)?;
        let answered = hems_serve::json::parse(&second)
            .ok()
            .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_string))
            == Some("ok".to_string());
        Ok(errored && answered)
    })()
    .unwrap_or(false);
    record("torn_frame_newline", torn_newline, lines);

    // 3. Disconnect mid-response: ask for an already-cached plan and slam
    // the connection before reading the answer.
    let mid_response = (|| -> std::io::Result<()> {
        let mut s = TcpStream::connect(server_addr)?;
        let (kind, spec) = scenario_for(0); // cached by the first phase
        send_line(&mut s, &Request::render_line(4, kind, Some(&spec)))
        // Dropped here: the server's response hits a closed socket.
    })()
    .is_ok();
    record("disconnect_mid_response", mid_response, lines);

    // 4. Slow loris: drip a few bytes, then stall past the read deadline.
    // Recovery = the server hangs up on us (the reaper worked).
    let loris = (|| -> std::io::Result<bool> {
        let mut s = TcpStream::connect(server_addr)?;
        s.write_all(b"{\"id\":5,")?;
        s.flush()?;
        thread::sleep(read_timeout * 2 + Duration::from_millis(100));
        s.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut buf = [0u8; 32];
        // A reaped connection reads EOF (or a reset, on some stacks).
        Ok(matches!(s.read(&mut buf), Ok(0) | Err(_)))
    })()
    .unwrap_or(false);
    record("slow_loris", loris, lines);

    (injected, recovered)
}

/// Outcome of the I/O campaign.
#[derive(Debug)]
pub struct NetReport {
    /// One JSON line per request/attack plus a summary line.
    pub lines: Vec<Value>,
    /// Faults injected (proxy tears + attacks + solve panics).
    pub injected: u64,
    /// Faults the stack absorbed (healthy requests all answered, attacks
    /// survived, panics contained).
    pub recovered: u64,
    /// Serve panics that escaped: untagged ones, plus any gap between
    /// the `chaos:`-tagged ones and the server's `faults` counter (must
    /// be zero).
    pub serve_panics: u64,
}

/// Runs the I/O campaign. Fault tallies are double-entried into
/// `registry` (`chaos.net.injected` / `chaos.net.recovered`).
///
/// # Errors
///
/// Errors when the harness itself cannot start (bind/spawn failures) —
/// not when injected faults bite.
pub fn run(config: &CampaignConfig, registry: &Registry) -> Result<NetReport, ChaosError> {
    let _one_campaign = relock(&CAMPAIGN);
    install_panic_probe();
    let panics_before = SERVE_PANICS.load(Ordering::SeqCst);
    let injected_before = SERVE_INJECTED.load(Ordering::SeqCst);
    let read_timeout = Duration::from_millis(config.net_read_timeout_ms);

    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(2),
            cache_capacity: 256,
            max_queue: 64,
            max_line_bytes: 16 * 1024,
            read_timeout: Some(read_timeout),
            write_timeout: Some(Duration::from_secs(2)),
            inject_panic_one_in: Some(3),
            shard_id: None,
        },
    )
    .map_err(|e| ChaosError::new("net: server bind", e.to_string()))?;

    // Script the proxy: every even connection gets a seeded fault, every
    // odd one passes a few frames so the retrying client always converges.
    let mut rng = config.plan().stream("net");
    let script: Vec<ConnFault> = (0..96)
        .map(|i| {
            if i % 2 == 0 {
                match rng.below_u32(3) {
                    0 => ConnFault::TearRequest,
                    1 => ConnFault::TearResponse,
                    _ => ConnFault::Delay(20 + rng.below_u32(40) as u64),
                }
            } else {
                ConnFault::PassThen(2 + rng.below_u32(3))
            }
        })
        .collect();
    let mut proxy = ChaosProxy::start(handle.addr(), script)?;

    let mut lines = Vec::new();
    // Phase 1: healthy traffic through the fault-injecting proxy.
    let (answered_a, failed_a) = healthy_phase(
        proxy.addr,
        "traffic",
        config.net_requests,
        0,
        config.seed ^ 0xA11CE,
        &mut lines,
    );
    // Phase 2: the attack wave, hitting the server directly.
    let (attacks, attacks_survived) = attack_wave(handle.addr(), read_timeout, &mut lines);
    // Phase 3: prove the service still answers after the abuse.
    let (answered_b, failed_b) = healthy_phase(
        proxy.addr,
        "aftermath",
        config.net_requests_after,
        config.net_requests,
        config.seed ^ 0xB0B,
        &mut lines,
    );
    proxy.shutdown();

    // Deterministic service counters, straight from the server.
    let stats = handle.stats_snapshot();
    let counter = |name: &str| stats.get(name).and_then(Value::as_f64).unwrap_or(-1.0);
    let worker_faults = counter("faults").max(0.0) as u64;
    handle.shutdown(); // graceful drain must complete
    let injected_panics = SERVE_INJECTED.load(Ordering::SeqCst) - injected_before;
    let serve_panics = SERVE_PANICS.load(Ordering::SeqCst) - panics_before
        + injected_panics.abs_diff(worker_faults);

    let answered = answered_a + answered_b;
    let failed = failed_a + failed_b;
    let injected = proxy.faults() + attacks + worker_faults;
    let recovered = injected
        .saturating_sub(failed)
        .saturating_sub(attacks - attacks_survived)
        .saturating_sub(serve_panics);
    registry.counter("chaos.net.injected").add(injected);
    registry.counter("chaos.net.recovered").add(recovered);
    lines.push(Value::obj(vec![
        ("surface", Value::str("net")),
        ("phase", Value::str("summary")),
        ("answered", Value::Num(answered as f64)),
        ("failed", Value::Num(failed as f64)),
        ("proxy_faults", Value::Num(proxy.faults() as f64)),
        ("worker_faults", Value::Num(worker_faults as f64)),
        ("attacks", Value::Num(attacks as f64)),
        ("attacks_survived", Value::Num(attacks_survived as f64)),
        ("serve_panics", Value::Num(serve_panics as f64)),
        // `errors` is deliberately absent: the disconnect-mid-response
        // attack races FIN against RST on the server's dead-socket write,
        // so that one counter is not seed-deterministic.
        ("requests", Value::Num(counter("requests"))),
        ("hits", Value::Num(counter("hits"))),
        ("misses", Value::Num(counter("misses"))),
        // Likewise the raw reap *count* is load-sensitive — on a
        // saturated box an idle-but-healthy connection can trip the read
        // deadline alongside the slow loris — so the report keeps only
        // the seed-deterministic fact: at least one socket was reaped.
        ("loris_reaped", Value::Bool(counter("reaped") >= 1.0)),
        ("overloaded", Value::Num(counter("overloaded"))),
        ("drained", Value::Bool(true)),
    ]));

    Ok(NetReport {
        lines,
        injected,
        recovered,
        serve_panics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_campaign_converges_with_zero_server_panics() {
        let report = run(&CampaignConfig::smoke(7), &Registry::new()).expect("campaign runs");
        assert_eq!(report.serve_panics, 0, "{:?}", report.lines);
        assert_eq!(
            report.injected, report.recovered,
            "unrecovered faults: {:?}",
            report.lines
        );
        let summary = report.lines.last().expect("summary line");
        assert_eq!(
            summary.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "every healthy request answered"
        );
        assert_eq!(
            summary.get("loris_reaped").and_then(Value::as_bool),
            Some(true),
            "the slow loris was reaped"
        );
    }
}
