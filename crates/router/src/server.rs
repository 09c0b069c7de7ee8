//! The routing front tier: the forwarding line handler and the seeded
//! health prober, on the shared line-server skeleton in
//! `hems_serve::wire`.
//!
//! ## Thread anatomy
//!
//! The skeleton owns the acceptor and one connection thread per client;
//! this module supplies the per-line handler and the prober:
//!
//! ```text
//! forwarder (the line handler, on the connection thread)
//!    │  parse → stats/metrics/reconfig/shutdown inline
//!    │  plan query → canonical key → ring → shard slot
//!    │     admission full → overloaded (explicit)
//!    │     forward verbatim ──► backend pool ──► relay verbatim
//!    │     IO failure → health, backoff, re-route, retry
//!    ▼
//!  LineWriter ◄── response line (byte-identical to direct serve)
//! prober ──► per-shard stats round trip every jittered interval
//!    │  drives eject / half-open / rejoin (health machine)
//! ```
//!
//! ## Verbatim relay
//!
//! The router parses a plan query only far enough to compute its
//! canonical cache key; what goes to the backend is the client's
//! original line, and what goes back is the backend's original line.
//! Router-synthesized responses exist only where the router *is* the
//! authority: admission refusals (`overloaded`), exhausted retries
//! (retryable `error`), aggregated `stats`/`metrics`, and `reconfig`.
//!
//! ## Determinism
//!
//! Retry backoff jitter and the probe schedule draw from one seeded
//! xorshift stream per concern ([`RouterConfig::seed`]), so a chaos
//! campaign replaying the same seed sees the same retry timing and the
//! same probe cadence.

use crate::backend::{Backend, DialConfig};
use crate::health::{HealthPolicy, Transition};
use crate::ring::HashRing;
use crate::stats::RouterStats;
use hems_obs::clock::monotonic_ns;
use hems_obs::snapshot::Snapshot;
use hems_obs::{relock, Latch};
use hems_serve::json::{self, Value};
use hems_serve::proto::{
    error_response, ok_response, overloaded_response, retryable_error_response, QueryKind, Request,
    ScenarioSpec,
};
use hems_serve::wire::{self, AcceptStop, LinePolicy, LineWriter};
use hems_units::XorShiftRng;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Tuning knobs for a router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend shard addresses; the vector index is the shard id the
    /// identity handshake verifies.
    pub backends: Vec<SocketAddr>,
    /// Most requests simultaneously in flight per shard; beyond it the
    /// router answers `overloaded` without touching the backend.
    pub max_inflight_per_shard: usize,
    /// Longest accepted request/response line, bytes.
    pub max_line_bytes: usize,
    /// Per-client-connection read deadline (idle/slow-loris reap).
    pub read_timeout: Option<Duration>,
    /// Per-client-connection write deadline.
    pub write_timeout: Option<Duration>,
    /// Dial deadline for fresh backend connections.
    pub connect_timeout: Duration,
    /// Per-attempt backend read/write deadline.
    pub request_timeout: Duration,
    /// Most forward attempts per request (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for backoff jitter and the probe schedule.
    pub seed: u64,
    /// Pause between health-probe rounds (jittered ±25 %).
    pub probe_interval: Duration,
    /// Ejection thresholds.
    pub health: HealthPolicy,
    /// Verify each backend's `shard` identity on fresh connections.
    pub verify_shard_ids: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            backends: Vec::new(),
            max_inflight_per_shard: 128,
            max_line_bytes: 64 * 1024,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            connect_timeout: Duration::from_millis(1000),
            request_timeout: Duration::from_secs(5),
            max_attempts: 4,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            seed: 1,
            probe_interval: Duration::from_millis(200),
            health: HealthPolicy::default(),
            verify_shard_ids: true,
        }
    }
}

impl RouterConfig {
    fn dial(&self, shard: usize) -> DialConfig {
        DialConfig {
            connect_timeout: self.connect_timeout,
            request_timeout: self.request_timeout,
            max_line_bytes: self.max_line_bytes,
            expect_shard: self.verify_shard_ids.then_some(shard as u64),
        }
    }

    /// The backoff before attempt `attempt` (1-based), without jitter.
    fn backoff(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(2).min(20);
        let raw = self
            .base_delay
            .saturating_mul(1u32.checked_shl(doublings).unwrap_or(u32::MAX));
        raw.min(self.max_delay)
    }
}

struct Shared {
    config: RouterConfig,
    ring: HashRing,
    slots: Vec<Backend>,
    stats: RouterStats,
    /// Raised on shutdown: the acceptor exits.
    stop: AcceptStop,
    /// Opened when shutdown begins; the prober sleeps on it so shutdown
    /// is prompt.
    stopped: Latch,
    conn_seq: AtomicU64,
}

impl Shared {
    /// `true` when the ring may send new work to `shard`.
    fn available(&self, shard: u32) -> bool {
        let Some(slot) = self.slots.get(shard as usize) else {
            return false;
        };
        !slot.draining.load(Ordering::SeqCst) && relock(&slot.health).admits_traffic()
    }

    fn live_backends(&self) -> usize {
        (0..self.slots.len() as u32)
            .filter(|&s| self.available(s))
            .count()
    }

    fn begin_shutdown(&self) {
        self.stop.stop();
        self.stopped.open();
        for slot in &self.slots {
            slot.clear_pool();
        }
    }

    /// The router `stats` body: own counters plus a per-shard rollup.
    fn stats_value(&self) -> Value {
        let count = |c: &hems_obs::Counter| Value::Num(c.total() as f64);
        let (p50, p95) = self
            .stats
            .latency_percentiles()
            .map_or((Value::Null, Value::Null), |(p50, p95)| {
                (Value::Num(p50), Value::Num(p95))
            });
        let backends: Vec<Value> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                Value::obj(vec![
                    ("shard", Value::Num(i as f64)),
                    ("addr", Value::str(slot.addr().to_string())),
                    ("state", Value::str(relock(&slot.health).state().name())),
                    (
                        "draining",
                        Value::Bool(slot.draining.load(Ordering::SeqCst)),
                    ),
                    (
                        "inflight",
                        Value::Num(slot.inflight.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "forwarded",
                        Value::Num(slot.forwarded.load(Ordering::Relaxed) as f64),
                    ),
                ])
            })
            .collect();
        Value::obj(vec![
            ("requests", count(&self.stats.requests)),
            ("forwarded", count(&self.stats.forwarded)),
            ("overloaded", count(&self.stats.overloaded)),
            ("retries", count(&self.stats.retries)),
            ("errors", count(&self.stats.errors)),
            ("probes", count(&self.stats.probes)),
            ("probe_failures", count(&self.stats.probe_failures)),
            ("ejections", count(&self.stats.ejections)),
            ("rejoins", count(&self.stats.rejoins)),
            ("reaped", count(&self.stats.reaped)),
            ("backends_live", Value::Num(self.live_backends() as f64)),
            ("latency_p50_ns", p50),
            ("latency_p95_ns", p95),
            ("backends", Value::Arr(backends)),
        ])
    }

    /// The aggregated `metrics` snapshot: the router's own registry
    /// merged with every reachable shard's registry snapshot relabeled
    /// `shard<i>.*` via [`Snapshot::with_prefix`].
    fn metrics_snapshot(&self) -> Snapshot {
        let mut merged = self.stats.registry().snapshot();
        for (i, slot) in self.slots.iter().enumerate() {
            if !self.available(i as u32) {
                continue;
            }
            let line = "{\"id\":\"hems-router-metrics\",\"query\":\"metrics\"}";
            let Ok(response) = slot.forward(line, &self.config.dial(i)) else {
                continue;
            };
            let Ok(parsed) = json::parse(&response) else {
                continue;
            };
            let Some(snapshot) = parsed.get("result").and_then(Snapshot::from_value) else {
                continue;
            };
            merged = merged.merged(snapshot.with_prefix(&format!("shard{i}")));
        }
        merged
    }
}

/// The canonical routing key of one plan query — the same FNV-1a cache
/// key the backend caches the answer under, and the same hex id the
/// retrying client uses for idempotent resubmission.
///
/// # Errors
///
/// The scenario's build error, verbatim.
pub fn plan_key(kind: QueryKind, spec: &ScenarioSpec) -> Result<u64, String> {
    let (config, policy) = spec.build()?;
    Ok(spec.cache_key(kind, &config, &policy))
}

/// A running router. Dropping the handle shuts it down and joins its
/// threads.
pub struct RouterHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The acceptor and the prober.
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound front address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The ring (for affinity assertions and shard-aware tooling).
    pub fn ring(&self) -> &HashRing {
        &self.shared.ring
    }

    /// Live router counters (the same body a wire `stats` query gets).
    pub fn stats_value(&self) -> Value {
        self.shared.stats_value()
    }

    /// The aggregated metrics snapshot (`router.*` + `shard<i>.*`).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.metrics_snapshot()
    }

    /// One shard's current health state name (`None`: no such shard).
    pub fn shard_state(&self, shard: usize) -> Option<&'static str> {
        let slot = self.shared.slots.get(shard)?;
        Some(relock(&slot.health).state().name())
    }

    /// Takes `shard` out of rotation and blocks until its in-flight
    /// requests finish — the drain half of hot reconfiguration. New
    /// requests re-route to the remaining shards immediately; nothing
    /// in flight is dropped. `false`: no such shard.
    pub fn drain_shard(&self, shard: usize) -> bool {
        let Some(slot) = self.shared.slots.get(shard) else {
            return false;
        };
        slot.draining.store(true, Ordering::SeqCst);
        while slot.inflight.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(1));
        }
        slot.clear_pool();
        true
    }

    /// Puts a drained shard back in rotation with a fresh health
    /// record — the rejoin half of hot reconfiguration. `false`: no
    /// such shard.
    pub fn rejoin_shard(&self, shard: usize) -> bool {
        let Some(slot) = self.shared.slots.get(shard) else {
            return false;
        };
        slot.set_addr(slot.addr());
        slot.draining.store(false, Ordering::SeqCst);
        true
    }

    /// Repoints `shard` at `addr` (e.g. a restarted backend on a new
    /// port), dropping pooled connections to the old address. Usually
    /// bracketed by [`Self::drain_shard`] / [`Self::rejoin_shard`].
    /// `false`: no such shard.
    pub fn set_backend(&self, shard: usize, addr: SocketAddr) -> bool {
        let Some(slot) = self.shared.slots.get(shard) else {
            return false;
        };
        slot.set_addr(addr);
        true
    }

    /// Initiates shutdown and joins the acceptor and prober.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Blocks until the router shuts down (e.g. by a wire `shutdown`).
    pub fn wait(&mut self) {
        self.shared.stopped.wait(None);
        self.shutdown();
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds and starts a router over `config.backends`.
///
/// # Errors
///
/// Propagates the bind failure, and rejects an empty backend set.
pub fn route<A: ToSocketAddrs>(addr: A, config: RouterConfig) -> io::Result<RouterHandle> {
    if config.backends.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one backend",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = AcceptStop::for_listener(&listener)?;
    let shared = Arc::new(Shared {
        ring: HashRing::new(config.backends.len()),
        slots: config.backends.iter().map(|&a| Backend::new(a)).collect(),
        stats: RouterStats::new(),
        stop: stop.clone(),
        stopped: Latch::default(),
        conn_seq: AtomicU64::new(0),
        config,
    });
    shared.stats.backends_live.set(shared.slots.len() as i64);
    let policy = LinePolicy {
        max_line_bytes: shared.config.max_line_bytes,
        read_timeout: shared.config.read_timeout,
        write_timeout: shared.config.write_timeout,
        reaped: shared.stats.reaped.clone(),
        bad_lines: shared.stats.errors.clone(),
    };
    // A spawn failure drops `handle`, which stops and joins whatever
    // already started.
    let mut handle = RouterHandle {
        addr,
        shared: Arc::clone(&shared),
        threads: Vec::new(),
    };
    let accepted = Arc::clone(&shared);
    handle.threads.push(wire::serve_lines(
        listener,
        "hems-router",
        policy,
        stop,
        move || {
            // Retry jitter: one seeded stream per client connection.
            let conn_id = accepted.conn_seq.fetch_add(1, Ordering::Relaxed);
            let mut rng =
                XorShiftRng::seed_from_u64(accepted.config.seed ^ conn_id.rotate_left(17));
            let shared = Arc::clone(&accepted);
            move |line: &str, out: &LineWriter| handle_line(&shared, line, out, &mut rng)
        },
    )?);
    handle.threads.push(
        thread::Builder::new()
            .name("hems-router-probe".to_string())
            .spawn(move || probe_loop(&shared))?,
    );
    Ok(handle)
}

fn probe_loop(shared: &Arc<Shared>) {
    let mut rng = XorShiftRng::seed_from_u64(shared.config.seed ^ 0x70726f6265); // "probe"
    loop {
        let jitter = 0.75 + 0.5 * rng.next_f64();
        if shared
            .stopped
            .wait(Some(shared.config.probe_interval.mul_f64(jitter)))
        {
            return;
        }
        for (i, slot) in shared.slots.iter().enumerate() {
            shared.stats.probes.inc();
            let ok = slot.probe(&shared.config.dial(i));
            if !ok {
                shared.stats.probe_failures.inc();
            }
            let transition = relock(&slot.health).on_probe(ok, &shared.config.health);
            record_transition(shared, transition);
        }
        shared
            .stats
            .backends_live
            .set(shared.live_backends() as i64);
    }
}

fn record_transition(shared: &Arc<Shared>, transition: Transition) {
    match transition {
        Transition::Ejected => shared.stats.ejections.inc(),
        Transition::Rejoined => shared.stats.rejoins.inc(),
        Transition::None | Transition::HalfOpen => {}
    }
}

/// Answers one client line; `false` closes the connection.
fn handle_line(shared: &Arc<Shared>, line: &str, out: &LineWriter, rng: &mut XorShiftRng) -> bool {
    let started = monotonic_ns();
    shared.stats.requests.inc();
    let (body, shutdown) = dispatch(shared, line, rng);
    shared
        .stats
        .record_latency_ns(monotonic_ns().saturating_sub(started) as f64);
    if out.send(&body).is_err() {
        return false;
    }
    if shutdown {
        shared.begin_shutdown();
    }
    !shutdown
}

/// The response line, and whether it acknowledges a `shutdown`.
fn dispatch(shared: &Arc<Shared>, line: &str, rng: &mut XorShiftRng) -> (String, bool) {
    // Router-level verbs are recognized before protocol parsing so the
    // router, not a backend, answers them.
    let parsed = json::parse(line).ok();
    let id = parsed
        .as_ref()
        .and_then(|v| v.get("id"))
        .cloned()
        .unwrap_or(Value::Null);
    let verb = parsed
        .as_ref()
        .and_then(|v| v.get("query"))
        .and_then(Value::as_str)
        .unwrap_or("");
    let reply = match verb {
        "stats" => ok_response(&id, false, shared.stats_value()),
        "metrics" => ok_response(&id, false, shared.metrics_snapshot().to_value()),
        "shutdown" => {
            let draining = Value::obj(vec![("draining", Value::Bool(true))]);
            return (ok_response(&id, false, draining), true);
        }
        "reconfig" => reconfig(shared, &id, parsed.as_ref()),
        _ => forward_plan(shared, line, rng),
    };
    (reply, false)
}

/// The wire half of drain-and-rejoin: marks shards draining (non-
/// blocking; in-flight requests finish on their connections) or back in
/// rotation, and reports each touched shard's remaining in-flight count
/// so an operator can poll for quiescence.
fn reconfig(shared: &Arc<Shared>, id: &Value, parsed: Option<&Value>) -> String {
    let shard_list = |key: &str| -> Vec<usize> {
        parsed
            .and_then(|v| v.get(key))
            .and_then(Value::as_arr)
            .map(|items| {
                items
                    .iter()
                    .filter_map(Value::as_f64)
                    .map(|s| s as usize)
                    .collect()
            })
            .unwrap_or_default()
    };
    let mut touched: Vec<Value> = Vec::new();
    for shard in shard_list("drain") {
        let Some(slot) = shared.slots.get(shard) else {
            continue;
        };
        slot.draining.store(true, Ordering::SeqCst);
        touched.push(Value::obj(vec![
            ("shard", Value::Num(shard as f64)),
            ("draining", Value::Bool(true)),
            (
                "inflight",
                Value::Num(slot.inflight.load(Ordering::SeqCst) as f64),
            ),
        ]));
    }
    for shard in shard_list("rejoin") {
        let Some(slot) = shared.slots.get(shard) else {
            continue;
        };
        slot.set_addr(slot.addr());
        slot.draining.store(false, Ordering::SeqCst);
        touched.push(Value::obj(vec![
            ("shard", Value::Num(shard as f64)),
            ("draining", Value::Bool(false)),
            ("inflight", Value::Num(0.0)),
        ]));
    }
    ok_response(id, false, Value::obj(vec![("shards", Value::Arr(touched))]))
}

fn forward_plan(shared: &Arc<Shared>, line: &str, rng: &mut XorShiftRng) -> String {
    // Full protocol parse: identical parser, identical error text — a
    // malformed line gets the same answer it would get from a backend.
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        Err((id, message)) => {
            shared.stats.errors.inc();
            return error_response(&id, &message);
        }
    };
    // The routing key is the canonical cache key. A scenario that fails
    // to build still routes (any backend produces the identical error
    // verdict); key 0 keeps that deterministic.
    let key = match &request.scenario {
        Some(spec) => plan_key(request.kind, spec).unwrap_or_default(),
        None => 0,
    };
    let mut last = String::from("no live backend shard");
    for attempt in 1..=shared.config.max_attempts.max(1) {
        if attempt > 1 {
            shared.stats.retries.inc();
            let jitter = 0.5 + 0.5 * rng.next_f64();
            thread::sleep(shared.config.backoff(attempt).mul_f64(jitter));
        }
        let Some(shard) = shared.ring.route(key, |s| shared.available(s)) else {
            continue;
        };
        let Some(slot) = shared.slots.get(shard as usize) else {
            continue;
        };
        // Admission: bound the shard's in-flight work and answer
        // `overloaded` explicitly — the client's backoff loop handles
        // the rest, exactly as with a saturated single node.
        let admitted = slot.inflight.fetch_add(1, Ordering::SeqCst);
        if admitted >= shared.config.max_inflight_per_shard {
            slot.inflight.fetch_sub(1, Ordering::SeqCst);
            shared.stats.overloaded.inc();
            return overloaded_response(
                &request.id,
                &format!("shard {shard} admission limit reached"),
            );
        }
        let outcome = slot.forward(line, &shared.config.dial(shard as usize));
        slot.inflight.fetch_sub(1, Ordering::SeqCst);
        match outcome {
            Ok(response) => {
                let transition = relock(&slot.health).on_traffic(true, &shared.config.health);
                record_transition(shared, transition);
                shared.stats.forwarded.inc();
                return response;
            }
            Err(e) => {
                let transition = relock(&slot.health).on_traffic(false, &shared.config.health);
                record_transition(shared, transition);
                last = format!("shard {shard}: {e}");
            }
        }
    }
    shared.stats.errors.inc();
    retryable_error_response(
        &request.id,
        &format!(
            "forwarding failed after {} attempts: {last}",
            shared.config.max_attempts.max(1)
        ),
    )
}
