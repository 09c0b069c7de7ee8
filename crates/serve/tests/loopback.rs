//! End-to-end loopback tests: concurrent clients, admission control, and
//! graceful shutdown against a real TCP server.
//!
//! These are the acceptance tests for the service's three promises:
//!
//! 1. **Throughput without corruption** — 4 concurrent clients issuing
//!    1200+ pipelined mixed queries get exactly one well-formed response
//!    per request (correlated by id), with zero errors and a busy cache.
//! 2. **Admission control** — misses beyond the solve permits and the
//!    bounded wait are refused with explicit `overloaded` responses
//!    instead of hanging or dropping.
//! 3. **Graceful shutdown** — every request accepted before a `shutdown`
//!    is answered before the server exits.
//!
//! One connection's answers leave in request order: each miss is solved
//! on the connection thread that read it.

use hems_serve::json::{parse, Value};
use hems_serve::proto::{PolicySpec, QueryKind, Request, ScenarioSpec};
use hems_serve::{serve, ServeConfig};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "server closed mid-conversation");
    parse(&line).expect("response is JSON")
}

/// ~12 distinct scenarios spanning light levels, topologies, policies,
/// and storage sizes — enough key diversity to exercise the cache's
/// shards without making every request a miss.
fn scenario_mix() -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    // Levels where every query kind is feasible — below ~0.15 sun the
    // joint plan correctly reports infeasibility, which is its own test
    // (`planner::tests::dark_scenarios_answer_with_errors_not_panics`).
    for &g in &[1.0, 0.75, 0.5, 0.25] {
        let mut a = ScenarioSpec::baseline(g);
        a.duration = 0.005;
        specs.push(a.clone());
        let mut b = a.clone();
        b.capacitance = Some(6.6e-5);
        specs.push(b);
        let mut c = a.clone();
        c.policy = PolicySpec::Duty {
            v_run: 1.0,
            v_stop: 0.8,
            vdd: 0.55,
        };
        specs.push(c);
    }
    specs
}

const KINDS: [QueryKind; 5] = [
    QueryKind::OptimalPoint,
    QueryKind::Mep,
    QueryKind::Bypass,
    QueryKind::Sprint,
    QueryKind::SweepSummary,
];

#[test]
fn four_concurrent_clients_thousand_plus_mixed_queries_no_errors() {
    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(4),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();
    let specs = scenario_mix();
    let clients = 4usize;
    let per_client = 300usize;
    let chunk = 10usize;

    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let specs = specs.clone();
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                let mut answered = 0usize;
                for base in (0..per_client).step_by(chunk) {
                    // Pipeline a chunk, then collect its responses by id —
                    // the id is the contract, not arrival order.
                    let mut outstanding = HashSet::new();
                    for i in base..(base + chunk).min(per_client) {
                        let id = (client * 1_000_000 + i) as i64;
                        let spec = &specs[(client * 7 + i) % specs.len()];
                        let mut spec = spec.clone();
                        if KINDS[i % KINDS.len()] == QueryKind::Sprint {
                            spec.deadline = Some(0.004);
                        }
                        let line = Request::render_line(id, KINDS[i % KINDS.len()], Some(&spec));
                        stream
                            .write_all(format!("{line}\n").as_bytes())
                            .expect("write");
                        outstanding.insert(id);
                    }
                    while !outstanding.is_empty() {
                        let response = read_response(&mut reader);
                        let id = response
                            .get("id")
                            .and_then(Value::as_f64)
                            .expect("response carries the id")
                            as i64;
                        assert!(outstanding.remove(&id), "unexpected or duplicate id {id}");
                        assert_eq!(
                            response.get("status").and_then(Value::as_str),
                            Some("ok"),
                            "request {id} failed: {response:?}"
                        );
                        assert!(
                            response.get("result").is_some(),
                            "ok response without a result"
                        );
                        answered += 1;
                    }
                }
                answered
            })
        })
        .collect();

    let total: usize = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .sum();
    assert_eq!(total, clients * per_client);

    // The mix repeats scenarios across clients, so the cache must have
    // served a large share of the load.
    let stats = handle.stats_snapshot();
    let hits = stats.get("hits").and_then(Value::as_f64).unwrap();
    let misses = stats.get("misses").and_then(Value::as_f64).unwrap();
    assert!(hits > 0.0, "repeated queries never hit the cache");
    assert!(
        hits + misses >= (clients * per_client) as f64,
        "every plan query is a hit or a miss"
    );
    assert!(
        hits > misses,
        "a 12-scenario x 5-kind mix under 1200 requests must be hit-dominated \
         (hits {hits}, misses {misses})"
    );
    assert_eq!(
        stats.get("errors").and_then(Value::as_f64),
        Some(0.0),
        "no request may error"
    );
    assert_eq!(
        stats.get("overloaded").and_then(Value::as_f64),
        Some(0.0),
        "the default queue must absorb this load"
    );
    handle.shutdown();
}

#[test]
fn saturated_queue_answers_overloaded_instead_of_hanging() {
    // One solve permit and a 2-deep wait: a burst of 16 distinct slow
    // queries, one per connection, outruns the drain by construction.
    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(1),
            cache_capacity: 64,
            max_queue: 2,
            max_line_bytes: 16 * 1024,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let burst = 16usize;
    let start = Arc::new(Barrier::new(burst));
    let senders: Vec<_> = (0..burst)
        .map(|i| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let (mut stream, mut reader) = connect(addr);
                // Distinct irradiances → distinct keys → no cache relief;
                // a 1 s transient (~13 ms to solve) each keeps the lone
                // permit busy while the whole burst lands.
                let mut spec = ScenarioSpec::baseline(0.90 - 0.05 * i as f64);
                spec.duration = 1.0;
                let line = Request::render_line(i as i64, QueryKind::SweepSummary, Some(&spec));
                start.wait();
                stream
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("write");
                read_response(&mut reader)
            })
        })
        .collect();

    let mut ok = 0usize;
    let mut overloaded = 0usize;
    let mut seen = HashSet::new();
    for sender in senders {
        let response = sender.join().expect("sender thread");
        let id = response.get("id").and_then(Value::as_f64).unwrap() as i64;
        assert!(seen.insert(id), "duplicate response for {id}");
        match response.get("status").and_then(Value::as_str) {
            Some("ok") => ok += 1,
            Some("overloaded") => {
                assert!(
                    response.get("error").and_then(Value::as_str).is_some(),
                    "overloaded responses explain themselves"
                );
                overloaded += 1;
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(
        ok + overloaded,
        burst,
        "every request is answered exactly once"
    );
    assert!(
        overloaded >= 1,
        "a 16-burst against a 2-deep queue must refuse some work"
    );
    assert!(ok >= 1, "admission control must not refuse everything");
    let stats = handle.stats_snapshot();
    assert_eq!(
        stats.get("overloaded").and_then(Value::as_f64),
        Some(overloaded as f64)
    );
    handle.shutdown();
}

#[test]
fn a_pipelined_hit_is_answered_after_the_slow_miss_before_it() {
    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(1),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let (mut stream, mut reader) = connect(handle.addr());
    let warm = Request::render_line(1, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.5)));
    stream
        .write_all(format!("{warm}\n").as_bytes())
        .expect("write");
    let first = read_response(&mut reader);
    assert_eq!(first.get("cached").and_then(Value::as_bool), Some(false));

    // A slow miss, then a repeat of the warmed key, in one write: the
    // hit is ready at once but must not overtake the miss.
    let mut slow = ScenarioSpec::baseline(0.8);
    slow.duration = 0.05;
    let miss = Request::render_line(2, QueryKind::SweepSummary, Some(&slow));
    let hit = Request::render_line(3, QueryKind::Mep, Some(&ScenarioSpec::baseline(0.5)));
    stream
        .write_all(format!("{miss}\n{hit}\n").as_bytes())
        .expect("write");
    for (id, cached) in [(2.0, false), (3.0, true)] {
        let response = read_response(&mut reader);
        assert_eq!(
            response.get("id").and_then(Value::as_f64),
            Some(id),
            "answers leave in request order: {response:?}"
        );
        assert_eq!(response.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            response.get("cached").and_then(Value::as_bool),
            Some(cached)
        );
    }
    handle.shutdown();
}

#[test]
fn metrics_query_returns_the_merged_telemetry_snapshot() {
    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(2),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let (mut stream, mut reader) = connect(handle.addr());

    // A mixed workload first: every plan kind once (a cache miss that
    // drives the solver, and the sweep series on the global registry),
    // then again (a hit on the server's registry) with the identical
    // result bytes.
    for (i, kind) in KINDS.into_iter().enumerate() {
        let mut spec = ScenarioSpec::baseline(0.6);
        spec.duration = 0.005;
        if kind == QueryKind::Sprint {
            spec.deadline = Some(0.02);
        }
        let line = Request::render_line(i as i64, kind, Some(&spec));
        let mut results = Vec::new();
        for want_cached in [false, true] {
            stream
                .write_all(format!("{line}\n").as_bytes())
                .expect("write");
            let mut raw = String::new();
            reader.read_line(&mut raw).expect("read response");
            let response = parse(&raw).expect("response is JSON");
            assert_eq!(
                response.get("status").and_then(Value::as_str),
                Some("ok"),
                "{kind:?} request failed: {raw}"
            );
            assert_eq!(
                response.get("cached").and_then(Value::as_bool),
                Some(want_cached),
                "{kind:?}: a first request misses, its repeat hits: {raw}"
            );
            // The result is the last field of an ok line; keep its raw
            // bytes so the hit is compared byte for byte, not re-rendered.
            let (_, result) = raw
                .split_once(",\"result\":")
                .expect("ok line carries a result");
            results.push(result.to_string());
        }
        assert_eq!(
            results[0], results[1],
            "{kind:?}: cached result bytes differ"
        );
    }

    let metrics = Request::render_line(99, QueryKind::Metrics, None);
    stream
        .write_all(format!("{metrics}\n").as_bytes())
        .expect("write metrics");
    let response = read_response(&mut reader);
    assert_eq!(
        response.get("status").and_then(Value::as_str),
        Some("ok"),
        "metrics must succeed: {response:?}"
    );
    let result = response.get("result").expect("metrics result");
    assert!(
        result.get("at_ns").and_then(Value::as_f64).is_some(),
        "snapshot carries its timestamp"
    );
    let series = result.get("series").expect("series object");

    let counter = |name: &str| {
        series
            .get(name)
            .unwrap_or_else(|| panic!("series '{name}' missing"))
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("series '{name}' has no value"))
    };
    // Sweep series (global registry, driven by sweep_summary).
    assert!(counter("sweep.scenarios") >= 1.0, "sweep ran");
    // Solver series (per-server registry): one solve per miss.
    let solve = series.get("serve.solve_ns").expect("solve histogram");
    assert_eq!(
        solve.get("count").and_then(Value::as_f64),
        Some(5.0),
        "every miss solved once, every hit not at all"
    );
    // Cache series (per-server registry): one miss and one hit per kind.
    assert_eq!(counter("serve.cache.hits"), 5.0, "every repeat hit");
    assert_eq!(
        counter("serve.cache.misses"),
        5.0,
        "every first query missed"
    );
    // Admission + service series (per-server registry).
    assert_eq!(counter("serve.overloaded"), 0.0, "nothing refused");
    assert!(counter("serve.requests") >= 11.0, "all requests counted");
    let latency = series.get("serve.latency_ns").expect("latency histogram");
    assert_eq!(
        latency.get("kind").and_then(Value::as_str),
        Some("histogram")
    );
    assert!(
        latency.get("count").and_then(Value::as_f64).unwrap() >= 10.0,
        "latency recorded per answered request"
    );
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_accepted_requests() {
    let mut handle = serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(2),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let (mut stream, mut reader) = connect(handle.addr());

    // Pipeline 8 distinct misses and then a shutdown on the same
    // connection: all 8 were accepted before the shutdown is parsed, so
    // all 8 must be answered even though the server is stopping.
    let accepted = 8usize;
    for i in 0..accepted {
        let mut spec = ScenarioSpec::baseline(0.95 - 0.1 * i as f64);
        spec.duration = 0.01;
        let line = Request::render_line(i as i64, QueryKind::SweepSummary, Some(&spec));
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }
    let bye = Request::render_line(999, QueryKind::Shutdown, None);
    stream
        .write_all(format!("{bye}\n").as_bytes())
        .expect("write shutdown");

    let mut answered = HashSet::new();
    let mut shutdown_acked = false;
    for _ in 0..=accepted {
        let response = read_response(&mut reader);
        let id = response.get("id").and_then(Value::as_f64).unwrap() as i64;
        assert_eq!(
            response.get("status").and_then(Value::as_str),
            Some("ok"),
            "draining must answer accepted work: {response:?}"
        );
        if id == 999 {
            shutdown_acked = true;
        } else {
            answered.insert(id);
        }
    }
    assert!(shutdown_acked, "shutdown query acknowledged");
    assert_eq!(answered.len(), accepted, "every accepted request drained");

    // wait() must return promptly now that the drain finished.
    handle.wait();
}
