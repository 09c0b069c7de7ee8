//! The serving tiers under test: two `hems-serve` shards behind
//! `hems-router`, or one bare `hems-serve`, all in this process.

use hems_obs::clock::monotonic_ns;
use hems_router::{route, HashRing, RouterConfig, RouterHandle};
use hems_serve::wire::{read_line_bounded, send_line};
use hems_serve::{serve, ServeConfig, ServerHandle};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest response line accepted (a `metrics` snapshot is the largest).
const MAX_LINE: usize = 1 << 20;

/// A running tier: `hems-serve` shards, optionally fronted by
/// `hems-router`. Dropping it stops the router, then the shards.
pub struct Tier {
    router: Option<RouterHandle>,
    backends: Vec<ServerHandle>,
}

impl Tier {
    /// `shards` shards, one solver thread each, behind a router.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn routed(shards: usize, cache_capacity: usize) -> io::Result<Tier> {
        let backends = (0..shards)
            .map(|s| serve("127.0.0.1:0", shard_config(cache_capacity, Some(s as u64))))
            .collect::<io::Result<Vec<_>>>()?;
        // Every acceptor polls every 5 ms from its start. Started back to
        // back, the router's first dial to a shard lands within a fraction
        // of a millisecond of a shard poll, and set-up time flips between
        // modes 5 ms apart. Half a poll period between them keeps the dial
        // mid-way between two polls.
        std::thread::sleep(Duration::from_micros(2500));
        let router = route(
            "127.0.0.1:0",
            RouterConfig {
                backends: backends.iter().map(ServerHandle::addr).collect(),
                ..RouterConfig::default()
            },
        )?;
        Ok(Tier {
            router: Some(router),
            backends,
        })
    }

    /// One bare server with one solver thread.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn direct(cache_capacity: usize) -> io::Result<Tier> {
        Ok(Tier {
            router: None,
            backends: vec![serve("127.0.0.1:0", shard_config(cache_capacity, None))?],
        })
    }

    /// The address clients talk to.
    pub fn addr(&self) -> SocketAddr {
        match (&self.router, self.backends.first()) {
            (Some(router), _) => router.addr(),
            (None, Some(backend)) => backend.addr(),
            (None, None) => unreachable!("a tier has at least one server"),
        }
    }

    /// The router's ring, when the tier has a router.
    pub fn ring(&self) -> Option<&HashRing> {
        self.router.as_ref().map(RouterHandle::ring)
    }
}

fn shard_config(cache_capacity: usize, shard_id: Option<u64>) -> ServeConfig {
    ServeConfig {
        threads: Some(1),
        cache_capacity,
        shard_id,
        ..ServeConfig::default()
    }
}

/// Starts a tier with `start` and times it until `probe` (a request
/// line) is answered `ok`: the set-up cost a user waits through.
///
/// # Errors
///
/// Start or exchange failures, or a probe the tier did not answer `ok`.
pub fn timed_start(
    start: impl FnOnce() -> io::Result<Tier>,
    probe: &str,
) -> io::Result<(Tier, f64)> {
    let t0 = monotonic_ns();
    let tier = start()?;
    // The acceptors poll every 5 ms. A probe dialled before an acceptor
    // thread's first poll skips one wait, so without this pause set-up
    // time flips between two modes 5 ms apart depending on which thread
    // the scheduler runs first. The pause is shorter than the wait it
    // sits in, so it is timed like any other part of set-up.
    std::thread::sleep(Duration::from_millis(1));
    let mut conn = dial(tier.addr())?;
    let response = exchange(&mut conn, probe)?;
    let seconds = monotonic_ns().saturating_sub(t0) as f64 / 1e9;
    if !response.contains("\"status\":\"ok\"") {
        return Err(io::Error::other(format!(
            "set-up probe refused: {response}"
        )));
    }
    Ok((tier, seconds))
}

/// A client connection with Nagle off and 10 s deadlines.
///
/// # Errors
///
/// Connect failures.
pub fn dial(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    Ok(BufReader::new(stream))
}

/// One request line out, one response line back.
///
/// # Errors
///
/// IO errors, deadline expiry, or the peer closing mid-request.
pub fn exchange(conn: &mut BufReader<TcpStream>, line: &str) -> io::Result<String> {
    send_line(conn.get_mut(), line)?;
    read_line_bounded(conn, MAX_LINE)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "tier closed the connection mid-request",
        )
    })
}
