//! One backend shard slot: address, persistent connection pool,
//! admission counters, and health record.
//!
//! Connections are pooled per backend and reused across requests (one
//! request in flight per pooled connection, matching the NDJSON
//! protocol's one-line-in/one-line-out framing). A fresh connection
//! performs the *shard-identity handshake*: a `stats` round trip whose
//! response must carry `"shard": <expected>` — a backend that answers
//! as the wrong shard (a misconfigured shard set, a port collision
//! after restart) is refused before any traffic reaches it, turning a
//! silent cache-affinity loss into an ejection.
//!
//! Any IO error drops the connection on the floor rather than returning
//! it to the pool; the next request dials fresh. Forwarding itself is
//! one attempt — the retry/backoff/re-route loop lives in
//! [`crate::server`] where it can consult the ring and the health
//! machine between attempts.

use crate::health::Health;
use hems_obs::relock;
use hems_serve::wire::exchange;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Most idle connections retained per backend.
const POOL_CAP: usize = 16;

/// Dial/IO tuning for one backend attempt.
#[derive(Debug, Clone)]
pub struct DialConfig {
    /// Connect deadline for a fresh pool connection.
    pub connect_timeout: Duration,
    /// Per-attempt read/write deadline on a pooled connection.
    pub request_timeout: Duration,
    /// Longest accepted backend response line.
    pub max_line_bytes: usize,
    /// Expected shard identity (`None` skips the handshake).
    pub expect_shard: Option<u64>,
}

/// One shard slot in the router's backend table.
#[derive(Debug)]
pub struct Backend {
    addr: Mutex<SocketAddr>,
    idle: Mutex<Vec<BufReader<TcpStream>>>,
    /// Requests currently being forwarded to this backend (admission).
    pub inflight: AtomicUsize,
    /// Set while an operator drains this shard: no new routes.
    pub draining: AtomicBool,
    /// Health record driven by probes and traffic outcomes.
    pub health: Mutex<Health>,
    /// Requests forwarded here over the slot's lifetime.
    pub forwarded: AtomicU64,
}

impl Backend {
    /// A fresh healthy slot for `addr` with an empty pool.
    pub fn new(addr: SocketAddr) -> Backend {
        Backend {
            addr: Mutex::new(addr),
            idle: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            health: Mutex::new(Health::new()),
            forwarded: AtomicU64::new(0),
        }
    }

    /// Current backend address.
    pub fn addr(&self) -> SocketAddr {
        *relock(&self.addr)
    }

    /// Repoints the slot (e.g. at a restarted process) and empties the
    /// pool so no connection to the old address survives.
    pub fn set_addr(&self, addr: SocketAddr) {
        *relock(&self.addr) = addr;
        relock(&self.idle).clear();
        *relock(&self.health) = Health::new();
    }

    /// Dials a fresh connection and runs the shard-identity handshake.
    fn connect(&self, dial: &DialConfig) -> io::Result<BufReader<TcpStream>> {
        let addr = self.addr();
        let stream = TcpStream::connect_timeout(&addr, dial.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(dial.request_timeout))?;
        stream.set_write_timeout(Some(dial.request_timeout))?;
        let mut conn = BufReader::new(stream);
        if let Some(expected) = dial.expect_shard {
            let response = exchange(
                &mut conn,
                "{\"id\":\"hems-router-handshake\",\"query\":\"stats\"}",
                dial.max_line_bytes,
            )?;
            let parsed = hems_serve::json::parse(&response)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            let shard = parsed
                .get("result")
                .and_then(|r| r.get("shard"))
                .and_then(|s| s.as_f64());
            if shard != Some(expected as f64) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard identity mismatch at {addr}: expected {expected}, got {shard:?}"
                    ),
                ));
            }
        }
        Ok(conn)
    }

    /// Forwards one raw request line, returning the raw response line.
    /// One attempt: any failure drops the connection and surfaces the
    /// error to the caller's retry loop.
    ///
    /// # Errors
    ///
    /// Dial, handshake, write, deadline, or EOF errors from the attempt.
    pub fn forward(&self, line: &str, dial: &DialConfig) -> io::Result<String> {
        // Pop first: a `match` on `relock(..).pop()` would keep the pool
        // guard alive through the dial and its handshake below.
        let pooled = relock(&self.idle).pop();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => self.connect(dial)?,
        };
        let response = exchange(&mut conn, line, dial.max_line_bytes)?;
        let mut idle = relock(&self.idle);
        if idle.len() < POOL_CAP {
            idle.push(conn);
        }
        self.forwarded.fetch_add(1, Ordering::Relaxed);
        Ok(response)
    }

    /// One health probe: a fresh dial plus the identity handshake (and a
    /// `stats` round trip when no identity is expected). `true` = alive
    /// and correctly identified.
    pub fn probe(&self, dial: &DialConfig) -> bool {
        let mut conn = match self.connect(dial) {
            Ok(conn) => conn,
            Err(_) => return false,
        };
        if dial.expect_shard.is_some() {
            // `connect` already round-tripped the handshake.
            return true;
        }
        exchange(
            &mut conn,
            "{\"id\":\"hems-router-probe\",\"query\":\"stats\"}",
            dial.max_line_bytes,
        )
        .is_ok()
    }

    /// Drops every pooled connection (used on shutdown).
    pub fn clear_pool(&self) {
        relock(&self.idle).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_obs::clock::monotonic_ns;
    use hems_serve::{serve, ServeConfig};
    use std::net::TcpListener;
    use std::sync::Arc;
    use std::thread;

    fn dial(expect_shard: Option<u64>) -> DialConfig {
        DialConfig {
            connect_timeout: Duration::from_millis(500),
            request_timeout: Duration::from_secs(2),
            max_line_bytes: 64 * 1024,
            expect_shard,
        }
    }

    #[test]
    fn handshake_accepts_matching_and_refuses_mismatched_identity() {
        let config = ServeConfig {
            threads: Some(1),
            shard_id: Some(4),
            ..ServeConfig::default()
        };
        let handle = serve("127.0.0.1:0", config).expect("bind");
        let backend = Backend::new(handle.addr());
        assert!(backend.probe(&dial(Some(4))), "matching identity");
        assert!(!backend.probe(&dial(Some(5))), "mismatched identity");
        assert!(backend.probe(&dial(None)), "no identity expected");
    }

    #[test]
    fn forward_relays_raw_lines_and_reuses_the_connection() {
        let handle = serve(
            "127.0.0.1:0",
            ServeConfig {
                threads: Some(1),
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        let backend = Backend::new(handle.addr());
        let d = dial(None);
        let a = backend
            .forward("{\"id\":1,\"query\":\"stats\"}", &d)
            .expect("first");
        assert!(a.contains("\"id\":1"));
        let b = backend
            .forward("{\"id\":2,\"query\":\"stats\"}", &d)
            .expect("second");
        assert!(b.contains("\"id\":2"));
        assert_eq!(backend.forwarded.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn a_dial_in_progress_does_not_hold_the_pool_lock() {
        // A backend that accepts but never answers the identity handshake:
        // the forward below sits in its dial for the whole request timeout.
        let silent = TcpListener::bind("127.0.0.1:0").expect("bind");
        let backend = Arc::new(Backend::new(silent.local_addr().expect("addr")));
        let request_timeout = Duration::from_millis(800);
        let forwarder = {
            let backend = Arc::clone(&backend);
            let d = DialConfig {
                request_timeout,
                ..dial(Some(0))
            };
            thread::spawn(move || backend.forward("{\"id\":1,\"query\":\"stats\"}", &d))
        };
        let (_held, _) = silent.accept().expect("the forward dials");
        let started = monotonic_ns();
        backend.clear_pool();
        let waited = Duration::from_nanos(monotonic_ns().saturating_sub(started));
        assert!(
            waited < request_timeout / 4,
            "clear_pool waited {waited:?} behind a dial"
        );
        assert!(forwarder.join().expect("forwarder").is_err());
    }

    #[test]
    fn probe_fails_fast_on_a_dead_address() {
        let backend = Backend::new("127.0.0.1:1".parse().expect("addr"));
        assert!(!backend.probe(&dial(None)));
    }
}
