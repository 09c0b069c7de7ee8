//! The service: the line handler, on the shared line-server skeleton in
//! [`crate::wire`]. Every request, cache miss included, is answered on
//! the connection thread that read it.
//!
//! ## Thread anatomy
//!
//! The skeleton owns the acceptor and one connection thread per client;
//! this module supplies the per-line handler:
//!
//! ```text
//! line handler (on the connection thread)
//!    │  parse → stats/metrics/shutdown inline
//!    │  cache hit → respond inline (cached: true)
//!    │  cache miss → solve permit → planner::answer → cache insert
//!    │  no permit and max_queue already waiting → overloaded
//!    ▼
//!  LineWriter ◄── one response per request, in request order
//! ```
//!
//! ## Admission control
//!
//! At most [`ServeConfig::threads`] misses solve at once, and at most
//! [`ServeConfig::max_queue`] more wait for a permit. Beyond that a miss
//! is refused with an explicit `overloaded` response instead of waiting
//! unboundedly — under a compute-bound load the client learns to back off
//! within one round trip, and accepted requests keep a bounded latency.
//! Cache hits, `stats`, and errors take no permit, so an overloaded
//! server still answers cheap traffic.
//!
//! ## Shutdown
//!
//! A `shutdown` query (or [`ServerHandle::shutdown`]) raises the stop
//! flag, which also wakes the acceptor out of `accept`, and *drains*:
//! every miss already solving or waiting for a permit is answered before
//! the `drained` latch opens. Misses arriving after the flag see
//! `overloaded` with a "shutting down" reason.

use crate::cache::PlanCache;
use crate::json::Value;
use crate::planner::{self, PlanJob};
use crate::proto::{
    error_response, ok_response, overloaded_response, retryable_error_response, QueryKind, Request,
};
use crate::stats::ServeStats;
use crate::wire::{self, AcceptStop, LinePolicy, LineWriter};
use hems_obs::clock::monotonic_ns;
use hems_obs::{relock, Latch};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most plan solves running at once, each on the connection thread
    /// that read its request (`None` → `HEMS_THREADS` or the machine's
    /// parallelism, like the sweep engine).
    pub threads: Option<usize>,
    /// Total plan-cache entries across shards.
    pub cache_capacity: usize,
    /// Most misses waiting for a solve permit; beyond it requests get
    /// `overloaded`.
    pub max_queue: usize,
    /// Longest accepted request line, bytes (DoS guard).
    pub max_line_bytes: usize,
    /// Per-connection read deadline. A client that stays silent (or drips
    /// bytes slower than one line per deadline — slow loris) is reaped and
    /// its handler thread reclaimed. `None` disables the deadline.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline: a client that stops draining its
    /// receive window cannot pin a writer forever. `None` disables it.
    pub write_timeout: Option<Duration>,
    /// Deterministic fault injection for chaos campaigns: `Some(n)` makes
    /// every n-th solve panic on its connection thread instead of
    /// solving. The panic exercises the real isolation path — the
    /// `catch_unwind` around the solve turns it into a retryable degraded
    /// response for that request, the connection and the server carry on,
    /// the `faults` counter ticks. `None` (the default) injects nothing.
    pub inject_panic_one_in: Option<u64>,
    /// Shard identity for router-fronted deployments: when set, `stats`
    /// responses carry a `shard` field. The router's connect handshake
    /// probes it and refuses to pool connections to a backend whose
    /// reported identity disagrees with the ring slot it was registered
    /// under (a misconfigured shard set silently destroys cache affinity;
    /// the handshake turns that into an ejection instead).
    pub shard_id: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: None,
            cache_capacity: 1024,
            max_queue: 256,
            max_line_bytes: 64 * 1024,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            inject_panic_one_in: None,
            shard_id: None,
        }
    }
}

/// The solve permits' state: misses waiting for a permit, misses holding
/// one, and misses solved but not yet written back.
#[derive(Debug, Default)]
struct Permits {
    waiting: usize,
    solving: usize,
    answering: usize,
}

impl Permits {
    /// No admitted miss is waiting, solving or unanswered.
    fn idle(&self) -> bool {
        self.waiting == 0 && self.solving == 0 && self.answering == 0
    }
}

struct Shared {
    config: ServeConfig,
    /// Permits: the resolved [`ServeConfig::threads`].
    threads: usize,
    cache: PlanCache,
    stats: ServeStats,
    permits: Mutex<Permits>,
    permit_freed: Condvar,
    /// Raised on shutdown: the acceptor exits and new misses are refused.
    stop: AcceptStop,
    /// Opened once the stop flag is up and no admitted miss is unanswered.
    drained: Latch,
    /// Solves started so far — the deterministic counter the
    /// `inject_panic_one_in` chaos hook keys off.
    solves: AtomicU64,
}

impl Shared {
    /// The `stats` response body: the counter snapshot, plus the shard
    /// identity when this server runs as a router-fronted shard.
    fn stats_value(&self) -> Value {
        let waiting = relock(&self.permits).waiting;
        let snapshot = self.stats.snapshot(waiting, self.cache.len(), self.threads);
        match (self.config.shard_id, snapshot) {
            (Some(sid), Value::Obj(mut fields)) => {
                fields.push(("shard".to_string(), Value::Num(sid as f64)));
                Value::Obj(fields)
            }
            (_, snapshot) => snapshot,
        }
    }

    fn begin_shutdown(&self) {
        self.stop.stop();
        let idle = relock(&self.permits).idle();
        if idle {
            self.drained.open();
        }
    }

    /// Admits one miss: a solve permit now, or after waiting behind at
    /// most `max_queue` others. The stop flag is checked under the permit
    /// lock, so shutdown cannot race an admission past the drain. `Err`
    /// is the refusal reason.
    fn admit(&self) -> Result<Permit<'_>, &'static str> {
        let mut permits = relock(&self.permits);
        if self.stop.is_stopped() {
            return Err("shutting down");
        }
        if permits.solving >= self.threads {
            if permits.waiting >= self.config.max_queue {
                return Err("queue full, back off and retry");
            }
            permits.waiting += 1;
            permits = self
                .permit_freed
                .wait_while(permits, |p| p.solving >= self.threads)
                .unwrap_or_else(PoisonError::into_inner);
            permits.waiting -= 1;
        }
        permits.solving += 1;
        self.stats.misses.inc();
        Ok(Permit {
            shared: self,
            solving: true,
        })
    }
}

/// One admitted miss, from admission until its answer is written. It
/// holds a solve permit until [`Permit::solved`]; dropping it ends the
/// miss and, once the stop flag is up and nothing else is in flight,
/// opens the drain latch.
struct Permit<'a> {
    shared: &'a Shared,
    solving: bool,
}

impl Permit<'_> {
    /// Hands the solve permit to the next waiting miss, so this miss's
    /// render and write overlap the next solve. The miss stays in flight,
    /// holding the drain latch shut, until dropped.
    fn solved(&mut self) {
        if !std::mem::replace(&mut self.solving, false) {
            return;
        }
        {
            let mut permits = relock(&self.shared.permits);
            permits.solving -= 1;
            permits.answering += 1;
        }
        self.shared.permit_freed.notify_one();
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.solved();
        let shared = self.shared;
        let drained = {
            let mut permits = relock(&shared.permits);
            permits.answering -= 1;
            shared.stop.is_stopped() && permits.idle()
        };
        if drained {
            shared.drained.open();
        }
    }
}

/// A running server. Dropping the handle shuts the server down and joins
/// its acceptor.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live service counters (the same snapshot a `stats` query returns).
    pub fn stats_snapshot(&self) -> Value {
        self.shared.stats_value()
    }

    /// Initiates graceful shutdown *without* joining: stops accepting
    /// and returns immediately while admitted misses finish. This is the
    /// drain hook a supervisor (the router's drain-and-rejoin protocol,
    /// the chaos crash/restart surface) uses to take a backend out of
    /// rotation while its in-flight solves still complete; follow with
    /// [`ServerHandle::wait`] or [`ServerHandle::shutdown`] to join.
    pub fn begin_drain(&self) {
        self.shared.begin_shutdown();
    }

    /// Initiates graceful shutdown and blocks until every admitted miss
    /// is answered and the acceptor has exited.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.shared.drained.wait(None);
    }

    /// Blocks until the server shuts down (e.g. by a wire `shutdown`
    /// query).
    pub fn wait(&mut self) {
        self.shared.drained.wait(None);
        self.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds and starts a server.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = AcceptStop::for_listener(&listener)?;
    let stats = ServeStats::new();
    let shared = Arc::new(Shared {
        threads: hems_sim::sweep::resolved_threads(config.threads),
        cache: PlanCache::with_registry(config.cache_capacity, stats.registry()),
        stats,
        permits: Mutex::default(),
        permit_freed: Condvar::new(),
        stop: stop.clone(),
        drained: Latch::default(),
        solves: AtomicU64::new(0),
        config,
    });

    let policy = LinePolicy {
        max_line_bytes: shared.config.max_line_bytes,
        read_timeout: shared.config.read_timeout,
        write_timeout: shared.config.write_timeout,
        reaped: shared.stats.reaped.clone(),
        bad_lines: shared.stats.errors.clone(),
    };
    let accepted = Arc::clone(&shared);
    let acceptor = wire::serve_lines(listener, "hems-serve", policy, stop, move || {
        let shared = Arc::clone(&accepted);
        move |line: &str, out: &LineWriter| handle_line(&shared, line, out)
    })?;
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

/// Answers one request line; `false` closes the connection.
fn handle_line(shared: &Shared, line: &str, out: &LineWriter) -> bool {
    let started = monotonic_ns();
    shared.stats.requests.inc();
    let request = match Request::parse_line(line) {
        Ok(request) => request,
        Err((id, message)) => {
            shared.stats.errors.inc();
            let _ = out.send(&error_response(&id, &message));
            return true;
        }
    };
    let result = match request.kind {
        QueryKind::Stats => shared.stats_value(),
        // Merge the process-global registry (sweep, pool, LUT series)
        // with this server's own (serve.*, cache); the snapshot's JSON
        // tree is the structured result object.
        QueryKind::Metrics => hems_obs::global()
            .snapshot()
            .merged(shared.stats.registry().snapshot())
            .to_value(),
        QueryKind::Shutdown => {
            let draining = Value::obj(vec![("draining", Value::Bool(true))]);
            let _ = out.send(&ok_response(&request.id, false, draining));
            shared.begin_shutdown();
            return false;
        }
        _ => {
            handle_plan_query(shared, out, request, started);
            return true;
        }
    };
    let _ = out.send(&ok_response(&request.id, false, result));
    shared.stats.record_latency_ns(elapsed_ns(started));
    true
}

fn handle_plan_query(shared: &Shared, writer: &LineWriter, request: Request, started: u64) {
    let Some(spec) = request.scenario else {
        // Parsing guarantees plan queries carry a scenario; answer rather
        // than crash the connection if that invariant ever slips.
        shared.stats.errors.inc();
        let _ = writer.send(&error_response(
            &request.id,
            "plan query is missing a scenario",
        ));
        return;
    };
    let job = match PlanJob::build(request.kind, spec) {
        Ok(job) => job,
        Err(message) => {
            shared.stats.errors.inc();
            let _ = writer.send(&error_response(&request.id, &message));
            return;
        }
    };
    if let Some(rendered) = shared.cache.get(job.key) {
        shared.stats.hits.inc();
        let _ = writer.send(&ok_line(&request.id, true, &rendered));
        shared.stats.record_latency_ns(elapsed_ns(started));
        return;
    }
    // Admission control: refuse instead of waiting unboundedly.
    let mut permit = match shared.admit() {
        Ok(permit) => permit,
        Err(reason) => {
            shared.stats.overloaded.inc();
            let _ = writer.send(&overloaded_response(&request.id, reason));
            return;
        }
    };
    let line = solve(shared, &request.id, &job, &mut permit);
    // Recorded before the write, so a client that has read its answer
    // and then asks for `stats` or `metrics` anywhere sees it counted.
    shared.stats.record_latency_ns(elapsed_ns(started));
    let _ = writer.send(&line);
    // Dropped only now: the drain latch opens once every admitted miss
    // is on the wire.
    drop(permit);
}

/// Solves one admitted miss, frees its solve permit, and renders its
/// response line; an `ok` result is cached.
fn solve(shared: &Shared, id: &Value, job: &PlanJob, permit: &mut Permit<'_>) -> String {
    let nth = shared.solves.fetch_add(1, Ordering::Relaxed) + 1;
    let inject = shared
        .config
        .inject_panic_one_in
        .is_some_and(|n| n > 0 && nth.is_multiple_of(n));
    let started = monotonic_ns();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject {
            // hems-lint: allow(panic, reason = "chaos hook: opt-in injected solve fault, caught by the catch_unwind around it")
            panic!("chaos: injected worker fault");
        }
        planner::answer(job)
    }));
    shared.stats.record_solve_ns(elapsed_ns(started));
    permit.solved();
    match outcome {
        Ok(Ok(result)) => {
            let rendered = result.render();
            let line = ok_line(id, false, &rendered);
            shared.cache.insert(job.key, rendered);
            line
        }
        Ok(Err(message)) => {
            // A semantic failure (malformed scenario, infeasible plan):
            // resubmitting the same request cannot succeed, so the error
            // is terminal. Not cached — a transiently infeasible plan
            // (e.g. a race on darkness) should not poison the key.
            shared.stats.errors.inc();
            error_response(id, &message)
        }
        Err(panic) => {
            // A panicking solve is a *fault*, not a verdict about the
            // request: the response is marked retryable so a well-behaved
            // client resubmits, and the connection carries on.
            shared.stats.faults.inc();
            let message = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            retryable_error_response(id, &format!("internal fault: {message}"))
        }
    }
}

/// Renders an `ok` response by splicing an already-rendered result —
/// cache hits and fresh solves never re-serialize the result object.
fn ok_line(id: &Value, cached: bool, rendered_result: &str) -> String {
    let mut line = String::with_capacity(rendered_result.len() + 48);
    line.push_str("{\"id\":");
    line.push_str(&id.render());
    line.push_str(",\"status\":\"ok\",\"cached\":");
    line.push_str(if cached { "true" } else { "false" });
    line.push_str(",\"result\":");
    line.push_str(rendered_result);
    line.push('}');
    line
}

fn elapsed_ns(started_ns: u64) -> f64 {
    monotonic_ns().saturating_sub(started_ns) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::proto::ScenarioSpec;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::thread;

    fn small_config() -> ServeConfig {
        ServeConfig {
            threads: Some(2),
            cache_capacity: 64,
            max_queue: 64,
            max_line_bytes: 16 * 1024,
            ..ServeConfig::default()
        }
    }

    fn query_line(stream: &mut TcpStream, line: &str) -> Value {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        parse(&response).expect("response is JSON")
    }

    #[test]
    fn answers_a_plan_query_then_serves_the_repeat_from_cache() {
        let mut handle = serve("127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let line = Request::render_line(1, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.5)));
        let first = query_line(&mut stream, &line);
        assert_eq!(first.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));
        let second = query_line(&mut stream, &line);
        assert_eq!(second.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));
        assert_eq!(
            first.get("result").map(Value::render),
            second.get("result").map(Value::render),
            "cached result is byte-identical"
        );
        let stats = handle.stats_snapshot();
        assert_eq!(stats.get("hits").and_then(Value::as_f64), Some(1.0));
        assert_eq!(stats.get("misses").and_then(Value::as_f64), Some(1.0));
        handle.shutdown();
    }

    #[test]
    fn malformed_lines_get_error_responses_and_the_connection_survives() {
        let mut handle = serve("127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let bad = query_line(&mut stream, r#"{"id":5,"query":"nope"}"#);
        assert_eq!(bad.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(bad.get("id").and_then(Value::as_f64), Some(5.0));
        // Same connection still answers good queries.
        let ok = query_line(&mut stream, r#"{"id":6,"query":"stats"}"#);
        assert_eq!(ok.get("status").and_then(Value::as_str), Some("ok"));
        handle.shutdown();
    }

    #[test]
    fn idle_connections_are_reaped_by_the_read_deadline() {
        let config = ServeConfig {
            read_timeout: Some(Duration::from_millis(100)),
            ..small_config()
        };
        let mut handle = serve("127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Say nothing. The server must hang up on its own; without the
        // deadline this read would block forever (the old slow-loris bug).
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 64];
        let n = stream.read(&mut buf).expect("server closed cleanly");
        assert_eq!(n, 0, "reap is a plain close, not an error frame");
        let stats = handle.stats_snapshot();
        assert_eq!(stats.get("reaped").and_then(Value::as_f64), Some(1.0));
        handle.shutdown();
    }

    #[test]
    fn torn_frame_gets_an_error_and_the_next_frame_still_parses() {
        let mut handle = serve("127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // A frame torn mid-byte but newline-terminated: the parser must
        // reject it without killing the connection.
        let torn = query_line(&mut stream, r#"{"id":8,"query":"mep","scenario":{"irr"#);
        assert_eq!(torn.get("status").and_then(Value::as_str), Some("error"));
        let ok = query_line(&mut stream, r#"{"id":9,"query":"stats"}"#);
        assert_eq!(ok.get("status").and_then(Value::as_str), Some("ok"));
        handle.shutdown();
    }

    #[test]
    fn fragmented_frames_reassemble_within_the_deadline() {
        let config = ServeConfig {
            read_timeout: Some(Duration::from_secs(2)),
            ..small_config()
        };
        let mut handle = serve("127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let line = format!(
            "{}\n",
            Request::render_line(3, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.3)))
        );
        // Drip the request a few bytes at a time (a slow but honest
        // client); the per-line reader must reassemble it.
        for chunk in line.as_bytes().chunks(7) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
            thread::sleep(Duration::from_millis(2));
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let value = parse(&response).unwrap();
        assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
        handle.shutdown();
    }

    #[test]
    fn injected_worker_faults_degrade_to_retryable_errors() {
        let config = ServeConfig {
            inject_panic_one_in: Some(2), // every 2nd solve panics
            ..small_config()
        };
        let mut handle = serve("127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let first = query_line(
            &mut stream,
            &Request::render_line(1, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.5))),
        );
        assert_eq!(first.get("status").and_then(Value::as_str), Some("ok"));
        // A distinct scenario forces a second solve: solve #2 panics on
        // the connection thread, and the request gets a retryable degraded
        // response instead of a dead connection or a dead server.
        let second = query_line(
            &mut stream,
            &Request::render_line(2, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.6))),
        );
        assert_eq!(second.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(second.get("retryable").and_then(Value::as_bool), Some(true));
        // The connection survived the panic.
        let stats = query_line(&mut stream, r#"{"id":3,"query":"stats"}"#);
        assert_eq!(stats.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            stats
                .get("result")
                .and_then(|r| r.get("faults"))
                .and_then(Value::as_f64),
            Some(1.0)
        );
        handle.shutdown();
    }

    #[test]
    fn wire_shutdown_unblocks_wait() {
        let mut handle = serve("127.0.0.1:0", small_config()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let bye = query_line(&mut stream, r#"{"id":1,"query":"shutdown"}"#);
        assert_eq!(bye.get("status").and_then(Value::as_str), Some("ok"));
        handle.wait(); // must return, not hang
    }
}
