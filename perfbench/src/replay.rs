//! Load generation from one process with at most two connections.
//!
//! * [`open_loop`] sends a `hems_load` arrival schedule at its scheduled
//!   times (each connection takes every `lanes`-th arrival) and times
//!   every request from when it was *due*, so a stall is charged to the
//!   requests queued behind it; how late the generator itself ran is
//!   kept as the send lag.
//! * [`closed_loop`] sends back to back for a fixed time: the capacity
//!   the tier sustains for callers that wait for each answer.
//! * [`send_all`] sends a fixed list of keys back to back (warm-up).
//! * [`rounds`] interleaves slices of the two loops.
//!
//! Every response is classified against the oracle as it arrives.

use crate::keys::{classify, Oracle, Outcome, PlanKey};
use crate::spans::{Span, Spans};
use crate::tier::{dial, exchange};
use crate::Ops;
use hems_load::{Arrival, Zipf};
use hems_obs::clock::monotonic_ns;
use hems_units::XorShiftRng;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client connections: at most one per core of the reference host.
pub const LANES: usize = 2;

/// The keys requests are drawn from and their expected answers.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    /// Where the tier listens.
    pub addr: SocketAddr,
    /// The keyspace, by rank.
    pub keys: &'a [PlanKey],
    /// Expected answers, by rank.
    pub oracle: &'a Oracle,
}

impl Target<'_> {
    /// Sends key `rank` as request `id` and classifies the answer. A
    /// transport failure redials so the rest of the lane carries on.
    fn ask(&self, conn: &mut BufReader<TcpStream>, rank: usize, id: u64) -> (Outcome, u64) {
        let line = self.keys[rank].line(id);
        let outcome = match exchange(conn, &line) {
            Ok(response) => {
                let done = monotonic_ns();
                return (classify(&response, id, self.oracle.expected(rank)), done);
            }
            Err(_) => Outcome::Transport,
        };
        if let Ok(fresh) = dial(self.addr) {
            *conn = fresh;
        }
        (outcome, monotonic_ns())
    }
}

/// One open-loop request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request id.
    pub id: u64,
    /// When it was due, monotonic ns.
    pub due_ns: u64,
    /// When it was actually sent.
    pub sent_ns: u64,
    /// When its response arrived.
    pub done_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
}

impl Sample {
    /// Latency from the scheduled send. A failed request misses every
    /// latency limit, so it counts as infinitely late.
    pub fn latency_ns(&self) -> f64 {
        match self.outcome {
            Outcome::Ok => self.done_ns.saturating_sub(self.due_ns) as f64,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it.
    pub fn lag_ns(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64
    }

    /// The request's spans: the whole request, the generator's lag, and
    /// the round trip through the tier.
    pub fn spans(&self) -> [Span; 3] {
        let span = |name, parent, start_ns, end_ns| Span {
            id: self.id,
            name,
            parent,
            start_ns,
            end_ns,
            calls: 1,
        };
        [
            span("load.request", "", self.due_ns, self.done_ns),
            span("load.send_lag", "load.request", self.due_ns, self.sent_ns),
            span(
                "tier.round_trip",
                "load.request",
                self.sent_ns,
                self.done_ns,
            ),
        ]
    }
}

/// How long before a send a lane stops sleeping and starts yielding.
const SPIN_NS: u64 = 1_000_000;

/// Waits until `due_ns`: sleeps to within [`SPIN_NS`] of it, then yields
/// until it passes. A sleeping thread on an idle virtual CPU can wake a
/// millisecond late; yielding keeps the generator's own wake-up out of
/// the measured latency while leaving the cores to any runnable thread.
fn pace_until(due_ns: u64) {
    let now = monotonic_ns();
    if now + SPIN_NS < due_ns {
        std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_NS));
    }
    while monotonic_ns() < due_ns {
        std::thread::yield_now();
    }
}

/// Replays `arrivals` open-loop over `lanes` connections. Request ids
/// are `first_id + arrival index`.
///
/// # Errors
///
/// Connection set-up failures or a panicked lane thread.
pub fn open_loop(
    target: Target<'_>,
    lanes: usize,
    arrivals: &[Arrival],
    first_id: u64,
) -> io::Result<Vec<Sample>> {
    let lanes = lanes.max(1);
    let conns = (0..lanes)
        .map(|_| dial(target.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start_ns = monotonic_ns();
    let mut samples = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, mut conn)| {
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(arrivals.len() / lanes + 1);
                    for (i, arrival) in arrivals.iter().enumerate().skip(lane).step_by(lanes) {
                        let due_ns = start_ns + arrival.at_ns;
                        pace_until(due_ns);
                        let sent_ns = monotonic_ns();
                        let id = first_id + i as u64;
                        let (outcome, done_ns) = target.ask(&mut conn, arrival.key, id);
                        out.push(Sample {
                            id,
                            due_ns,
                            sent_ns,
                            done_ns,
                            outcome,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("replay lane panicked"))
            })
            .collect::<io::Result<Vec<_>>>()
    })?
    .concat();
    samples.sort_by_key(|s| s.id);
    Ok(samples)
}

/// What a closed-loop phase achieved.
#[derive(Debug, Default)]
pub struct Closed {
    /// Operation accounting.
    pub ops: Ops,
    /// Wall time from the common start to the last answer, ns.
    pub elapsed_ns: u64,
    /// When each correct answer arrived, ns after the common start.
    pub ok_at_ns: Vec<u64>,
    /// Spans, one per request (kept only when tracing).
    pub spans: Spans,
}

impl Closed {
    /// Correctly answered requests per second: the median over
    /// half-second windows, so a burst of host noise costs one window.
    pub fn capacity_hz(&self) -> f64 {
        crate::spans::median_window_rate(&self.ok_at_ns, 0, self.elapsed_ns, 500_000_000)
    }
}

/// Sends back to back on `lanes` connections for `duration`, each lane
/// drawing ranks from `zipf` with its own seed. Lane `l` numbers its
/// requests `first_id + l, first_id + l + lanes, …`.
///
/// # Errors
///
/// Connection set-up failures or a panicked lane thread.
pub fn closed_loop(
    target: Target<'_>,
    lanes: usize,
    duration: Duration,
    zipf: &Zipf,
    seed: u64,
    first_id: u64,
    trace: bool,
) -> io::Result<Closed> {
    let lanes = lanes.max(1);
    let conns = (0..lanes)
        .map(|_| dial(target.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start_ns = monotonic_ns();
    let deadline_ns = start_ns + duration.as_nanos() as u64;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, mut conn)| {
                scope.spawn(move || {
                    let mut rng = XorShiftRng::seed_from_u64(seed ^ ((lane as u64 + 1) << 32));
                    let mut ops = Ops::default();
                    let mut spans = Spans::new(trace);
                    let mut id = first_id + lane as u64;
                    let mut end_ns = start_ns;
                    let mut ok_at_ns = Vec::new();
                    while monotonic_ns() < deadline_ns {
                        let sent_ns = monotonic_ns();
                        let (outcome, done_ns) = target.ask(&mut conn, zipf.sample(&mut rng), id);
                        outcome.tally(&mut ops);
                        if let Outcome::Ok = outcome {
                            ok_at_ns.push(done_ns - start_ns);
                        }
                        spans.record(Span {
                            id,
                            name: "load.closed_request",
                            parent: "",
                            start_ns: sent_ns,
                            end_ns: done_ns,
                            calls: 1,
                        });
                        end_ns = done_ns;
                        id += lanes as u64;
                    }
                    (ops, end_ns, spans, ok_at_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("replay lane panicked"))
            })
            .collect::<io::Result<Vec<_>>>()
    })?;
    let mut closed = Closed {
        spans: Spans::new(trace),
        ..Closed::default()
    };
    let mut end_ns = start_ns;
    for (ops, lane_end, spans, ok_at_ns) in results {
        closed.ops.absorb(ops);
        closed.ok_at_ns.extend(ok_at_ns);
        closed.spans.absorb(spans);
        end_ns = end_ns.max(lane_end);
    }
    closed.elapsed_ns = end_ns.saturating_sub(start_ns);
    Ok(closed)
}

/// Sends `ranks` back to back over `lanes` connections (each takes every
/// `lanes`-th rank), numbering requests from `first_id`.
///
/// # Errors
///
/// Connection set-up failures or a panicked lane thread.
pub fn send_all(
    target: Target<'_>,
    lanes: usize,
    ranks: &[usize],
    first_id: u64,
) -> io::Result<Ops> {
    let lanes = lanes.max(1);
    let conns = (0..lanes)
        .map(|_| dial(target.addr))
        .collect::<io::Result<Vec<_>>>()?;
    let tallies = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, mut conn)| {
                scope.spawn(move || {
                    let mut ops = Ops::default();
                    for (i, &rank) in ranks.iter().enumerate().skip(lane).step_by(lanes) {
                        target
                            .ask(&mut conn, rank, first_id + i as u64)
                            .0
                            .tally(&mut ops);
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("replay lane panicked"))
            })
            .collect::<io::Result<Vec<_>>>()
    })?;
    let mut total = Ops::default();
    for ops in tallies {
        total.absorb(ops);
    }
    Ok(total)
}

/// Interleaved open-loop and closed-loop slices.
#[derive(Debug, Default)]
pub struct Rounds {
    /// Every open-loop request, in id order per slice.
    pub samples: Vec<Sample>,
    /// The untraced closed-loop slices.
    pub plain: Vec<Closed>,
    /// The traced closed-loop slices (empty unless tracing).
    pub traced: Vec<Closed>,
    /// Operation accounting over every slice.
    pub ops: Ops,
    /// Length of the open-loop schedule, ns: a failed request counts as
    /// this late.
    horizon_ns: f64,
}

impl Rounds {
    /// `(due, latency)` of every open-loop request.
    fn timed(&self) -> Vec<(u64, f64)> {
        self.samples
            .iter()
            .map(|s| (s.due_ns, s.latency_ns().min(self.horizon_ns)))
            .collect()
    }

    /// Median over one-second windows of each window's median latency.
    pub fn latency_p50_ns(&self) -> f64 {
        crate::spans::median_of_window_medians(&mut self.timed(), 1_000_000_000)
    }

    /// Every open-loop latency, ascending, ns.
    pub fn sorted_latencies_ns(&self) -> Vec<f64> {
        let mut latencies: Vec<f64> = self.timed().into_iter().map(|t| t.1).collect();
        latencies.sort_by(f64::total_cmp);
        latencies
    }

    /// Median capacity over the untraced closed-loop slices.
    pub fn capacity_hz(&self) -> f64 {
        median_capacity(&self.plain)
    }

    /// Median capacity over the traced closed-loop slices.
    pub fn traced_capacity_hz(&self) -> f64 {
        median_capacity(&self.traced)
    }
}

fn median_capacity(slices: &[Closed]) -> f64 {
    crate::spans::median(&slices.iter().map(Closed::capacity_hz).collect::<Vec<_>>())
}

/// Runs `rounds` rounds, each an open-loop slice of `schedule` (which
/// spans `open`) followed by a closed-loop slice of `closed` — two when
/// `trace`, one untraced and one traced — so both figures
/// sample the whole run and a slow spell of the host spoils a round,
/// not a figure. Request ids count up from `ids`.
///
/// # Errors
///
/// Connection set-up failures or a panicked lane thread.
#[allow(clippy::too_many_arguments)]
pub fn rounds(
    target: Target<'_>,
    schedule: &[Arrival],
    open: Duration,
    rounds: u64,
    closed: Duration,
    zipf: &Zipf,
    seed: u64,
    ids: u64,
    trace: bool,
) -> io::Result<Rounds> {
    let rounds = rounds.max(1);
    let slice_ns = open.as_nanos() as u64 / rounds;
    let mut out = Rounds {
        horizon_ns: open.as_nanos() as f64,
        ..Rounds::default()
    };
    for round in 0..rounds {
        let lo = round * slice_ns;
        let slice: Vec<Arrival> = schedule
            .iter()
            .filter(|a| a.at_ns >= lo && (a.at_ns < lo + slice_ns || round + 1 == rounds))
            .map(|a| Arrival {
                at_ns: a.at_ns - lo,
                ..a.clone()
            })
            .collect();
        let first_id = ids + out.samples.len() as u64;
        out.samples
            .extend(open_loop(target, LANES, &slice, first_id)?);
        // Alternate which half goes first, so neither inherits a warmer
        // cache or a quieter host more often than the other.
        let order = if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            if traced && !trace {
                continue;
            }
            let first_id = ids + ((2 * round + 1 + u64::from(traced)) << 32);
            let phase = closed_loop(
                target,
                LANES,
                closed,
                zipf,
                seed ^ first_id,
                first_id,
                traced,
            )?;
            out.ops.absorb(phase.ops);
            if traced {
                out.traced.push(phase);
            } else {
                out.plain.push(phase);
            }
        }
    }
    for sample in &out.samples {
        sample.outcome.tally(&mut out.ops);
    }
    Ok(out)
}
