//! The open-loop replay engine: send a schedule at its scheduled times,
//! measure latency from the *scheduled* start, and aggregate.
//!
//! ## Why open-loop
//!
//! A closed-loop generator (send, wait, send) slows down exactly when
//! the server does, so a saturated server sees a polite client and the
//! measured latencies miss the queueing delay real independent clients
//! would have suffered — the classic *coordinated omission* trap. Here
//! each worker sends at the schedule regardless of response progress on
//! its own connection, and every latency sample is
//! `response_received − scheduled_send`, so server-side stalls show up
//! in p99 instead of vanishing into a slower offered rate.
//!
//! [`RunConfig::pace`] = `false` disables the schedule (saturate mode):
//! workers send back-to-back to measure peak throughput, and latency is
//! measured from the actual send.
//!
//! ## Digest
//!
//! Each worker folds an order-independent digest over its raw response
//! lines (wrapping sum of per-line FNV-1a hashes). Two runs that
//! produced the same response *multiset* — e.g. the same stream sent
//! directly and through a router that relays verbatim — have equal
//! digests regardless of connection interleaving.

use crate::workload::Arrival;
use hems_obs::clock::monotonic_ns;
use hems_obs::stats::percentile;
use hems_serve::json::{self, Value};
use hems_serve::wire::exchange;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How a schedule is replayed against one target address.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Address of the serve/router tier under load.
    pub target: SocketAddr,
    /// Concurrent connections (schedule is dealt round-robin).
    pub connections: usize,
    /// `true` = honor the schedule (open-loop); `false` = saturate.
    pub pace: bool,
    /// Per-response read deadline.
    pub request_timeout: Duration,
    /// Longest accepted response line.
    pub max_line_bytes: usize,
}

impl RunConfig {
    /// A paced open-loop run against `target` with 4 connections.
    pub fn paced(target: SocketAddr) -> RunConfig {
        RunConfig {
            target,
            connections: 4,
            pace: true,
            request_timeout: Duration::from_secs(10),
            max_line_bytes: 256 * 1024,
        }
    }

    /// A saturate-mode run against `target` with `connections` workers.
    pub fn saturate(target: SocketAddr, connections: usize) -> RunConfig {
        RunConfig {
            connections: connections.max(1),
            pace: false,
            ..RunConfig::paced(target)
        }
    }
}

/// Aggregated outcome of one replay.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Requests sent.
    pub sent: u64,
    /// `status:"ok"` responses.
    pub ok: u64,
    /// `ok` responses answered from a plan cache (`cached:true`).
    pub cached: u64,
    /// `status:"error"` responses plus transport failures.
    pub errors: u64,
    /// `status:"overloaded"` responses (admission-control refusals).
    pub overloaded: u64,
    /// Wall time from the shared start to the last response.
    pub elapsed_ns: u64,
    /// Offered rate, Hz. Paced runs divide by the *schedule* horizon —
    /// a target that falls behind cannot shrink the offer it was given
    /// — saturate runs divide by elapsed wall time.
    pub offered_hz: f64,
    /// `ok / elapsed` — successfully answered rate, Hz.
    pub goodput_hz: f64,
    /// Median latency, milliseconds (from scheduled start when paced).
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Order-independent digest over all raw response lines.
    pub digest: u64,
}

impl RunReport {
    /// Errors as a fraction of requests sent.
    pub fn error_rate(&self) -> f64 {
        ratio(self.errors, self.sent)
    }

    /// Overload refusals as a fraction of requests sent.
    pub fn overload_rate(&self) -> f64 {
        ratio(self.overloaded, self.sent)
    }

    /// Cache hits as a fraction of `ok` responses.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.cached, self.ok)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// FNV-1a over a line's bytes (the digest primitive).
pub fn fnv_line(line: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in line.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// What one worker thread brings home.
#[derive(Debug, Default)]
struct WorkerReport {
    sent: u64,
    ok: u64,
    cached: u64,
    errors: u64,
    overloaded: u64,
    digest: u64,
    latencies_ns: Vec<f64>,
    end_ns: u64,
}

/// Replays `arrivals` against `config.target` and aggregates.
///
/// # Errors
///
/// Connection-setup failures (the target is down before the run even
/// starts) and worker-thread panics surface as `io::Error`; transport
/// errors *during* the run are counted in [`RunReport::errors`]
/// instead, because a load test that dies at the first reset measures
/// nothing.
pub fn run(config: &RunConfig, arrivals: &[Arrival]) -> io::Result<RunReport> {
    let workers = config.connections.max(1);
    // Connect every worker before starting the clock so dial time is
    // not billed to the first requests.
    let mut conns = Vec::with_capacity(workers);
    for _ in 0..workers {
        conns.push(dial(config)?);
    }
    let start_ns = monotonic_ns();
    let mut handles = Vec::with_capacity(workers);
    for (w, conn) in conns.into_iter().enumerate() {
        let lane: Vec<Arrival> = arrivals.iter().skip(w).step_by(workers).cloned().collect();
        let config = config.clone();
        handles.push(std::thread::spawn(move || {
            worker(&config, conn, &lane, start_ns)
        }));
    }
    let mut total = WorkerReport::default();
    for handle in handles {
        let report = handle
            .join()
            .map_err(|_| io::Error::other("load worker thread panicked"))?;
        total.sent += report.sent;
        total.ok += report.ok;
        total.cached += report.cached;
        total.errors += report.errors;
        total.overloaded += report.overloaded;
        total.digest = total.digest.wrapping_add(report.digest);
        total.latencies_ns.extend(report.latencies_ns);
        total.end_ns = total.end_ns.max(report.end_ns);
    }
    let elapsed_ns = total.end_ns.saturating_sub(start_ns).max(1);
    let elapsed_s = elapsed_ns as f64 / 1e9;
    let horizon_ns = arrivals.iter().map(|a| a.at_ns).max().unwrap_or(0).max(1);
    let offered_hz = if config.pace {
        total.sent as f64 / (horizon_ns as f64 / 1e9)
    } else {
        total.sent as f64 / elapsed_s
    };
    total
        .latencies_ns
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let (p50, p95, p99) = if total.latencies_ns.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            percentile(&total.latencies_ns, 50.0),
            percentile(&total.latencies_ns, 95.0),
            percentile(&total.latencies_ns, 99.0),
        )
    };
    Ok(RunReport {
        sent: total.sent,
        ok: total.ok,
        cached: total.cached,
        errors: total.errors,
        overloaded: total.overloaded,
        elapsed_ns,
        offered_hz,
        goodput_hz: total.ok as f64 / elapsed_s,
        p50_ms: p50 / 1e6,
        p95_ms: p95 / 1e6,
        p99_ms: p99 / 1e6,
        digest: total.digest,
    })
}

fn dial(config: &RunConfig) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect_timeout(&config.target, Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.request_timeout))?;
    stream.set_write_timeout(Some(config.request_timeout))?;
    Ok(BufReader::new(stream))
}

fn worker(
    config: &RunConfig,
    mut conn: BufReader<TcpStream>,
    lane: &[Arrival],
    start_ns: u64,
) -> WorkerReport {
    let mut report = WorkerReport {
        latencies_ns: Vec::with_capacity(lane.len()),
        ..WorkerReport::default()
    };
    for arrival in lane {
        let scheduled_ns = start_ns.saturating_add(arrival.at_ns);
        if config.pace {
            let now = monotonic_ns();
            if now < scheduled_ns {
                std::thread::sleep(Duration::from_nanos(scheduled_ns - now));
            }
        }
        let sent_at = if config.pace {
            scheduled_ns
        } else {
            monotonic_ns()
        };
        report.sent += 1;
        match exchange(&mut conn, &arrival.line, config.max_line_bytes) {
            Ok(response) => {
                let now = monotonic_ns();
                report.end_ns = now;
                report.latencies_ns.push(now.saturating_sub(sent_at) as f64);
                report.digest = report.digest.wrapping_add(fnv_line(&response));
                tally(&mut report, &response);
            }
            Err(_) => {
                report.errors += 1;
                report.end_ns = monotonic_ns();
                // The connection is suspect after any IO error; redial
                // once and carry on, or bleed the rest of the lane into
                // the error count if the target is really gone.
                match dial(config) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => {
                        report.errors += (lane.len() as u64).saturating_sub(report.sent);
                        report.sent = lane.len() as u64;
                        break;
                    }
                }
            }
        }
    }
    report
}

fn tally(report: &mut WorkerReport, response: &str) {
    let status = json::parse(response)
        .ok()
        .and_then(|v| v.get("status").and_then(Value::as_str).map(String::from));
    match status.as_deref() {
        Some("ok") => {
            report.ok += 1;
            let cached = json::parse(response)
                .ok()
                .and_then(|v| v.get("cached").and_then(Value::as_bool));
            if cached == Some(true) {
                report.cached += 1;
            }
        }
        Some("overloaded") => report.overloaded += 1,
        _ => report.errors += 1,
    }
}

/// One step of an offered-rate ramp.
#[derive(Debug, Clone)]
pub struct RampPoint {
    /// Offered (scheduled) rate, Hz.
    pub offered_hz: f64,
    /// Measured goodput at that offer, Hz.
    pub goodput_hz: f64,
    /// p99 latency at that offer, milliseconds.
    pub p99_ms: f64,
    /// Overload-refusal fraction at that offer.
    pub overload_rate: f64,
}

/// The saturation knee of a ramp: the highest offered rate whose
/// goodput kept up with at least `tolerance` (e.g. `0.95`) of the
/// offer. `None` if no step kept up.
pub fn knee_of(points: &[RampPoint], tolerance: f64) -> Option<f64> {
    points
        .iter()
        .filter(|p| p.offered_hz > 0.0 && p.goodput_hz >= tolerance * p.offered_hz)
        .map(|p| p.offered_hz)
        .fold(None, |best, hz| match best {
            Some(b) if b >= hz => Some(b),
            _ => Some(hz),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_independent() {
        let a = fnv_line("alpha").wrapping_add(fnv_line("beta"));
        let b = fnv_line("beta").wrapping_add(fnv_line("alpha"));
        assert_eq!(a, b);
        assert_ne!(fnv_line("alpha"), fnv_line("beta"));
    }

    #[test]
    fn knee_picks_the_highest_keeping_rate() {
        let points = vec![
            RampPoint {
                offered_hz: 100.0,
                goodput_hz: 100.0,
                p99_ms: 1.0,
                overload_rate: 0.0,
            },
            RampPoint {
                offered_hz: 200.0,
                goodput_hz: 197.0,
                p99_ms: 2.0,
                overload_rate: 0.0,
            },
            RampPoint {
                offered_hz: 400.0,
                goodput_hz: 250.0,
                p99_ms: 90.0,
                overload_rate: 0.3,
            },
        ];
        assert_eq!(knee_of(&points, 0.95), Some(200.0));
        assert_eq!(knee_of(&points[2..], 0.95), None);
        assert_eq!(knee_of(&[], 0.95), None);
    }
}
