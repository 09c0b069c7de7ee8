//! The `metrics` query end to end: spin up `hems-serve` in-process, push
//! a small mixed workload through it (plans, a sweep summary, a cache
//! hit), then ask for `metrics` and walk the returned telemetry snapshot.
//!
//! The snapshot is the `hems_obs` registry rendered as JSON — the global
//! registry (sweep stages, solver LUTs) merged with the server's own
//! registry (requests, cache, solve and latency histograms) — and this
//! example doubles as a living check that every instrumented plane
//! actually shows up on the wire: it asserts sweep, solver, cache, and
//! admission series are present before printing a digest.
//!
//! ```text
//! cargo run --example metrics_query
//! ```

use hems_serve::json::Value;
use hems_serve::proto::{QueryKind, Request, ScenarioSpec};
use hems_serve::wire::exchange;
use hems_serve::{serve, ServeConfig};
use std::io::BufReader;
use std::net::TcpStream;

fn ask(
    conn: &mut BufReader<TcpStream>,
    id: i64,
    kind: QueryKind,
    spec: Option<&ScenarioSpec>,
) -> Value {
    let line = Request::render_line(id, kind, spec);
    let response = exchange(conn, &line, 1 << 20).expect("server answers");
    hems_serve::json::parse(&response).expect("server speaks JSON")
}

/// A counter's value out of the snapshot's `series` map, if present.
fn counter(series: &Value, name: &str) -> Option<f64> {
    series.get(name)?.get("value")?.as_f64()
}

fn main() {
    let handle = serve("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let addr = handle.addr().to_string();
    println!("started in-process hems-serve on {addr}");
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = BufReader::new(stream);

    // Workload: two distinct plans (cache misses), one repeat (cache
    // hit), and a sweep summary to exercise the sweep engine.
    let spec = ScenarioSpec::baseline(0.5);
    let bright = ScenarioSpec::baseline(1.0);
    ask(&mut conn, 1, QueryKind::Mep, Some(&spec));
    ask(&mut conn, 2, QueryKind::Mep, Some(&bright));
    ask(&mut conn, 3, QueryKind::Mep, Some(&spec));
    ask(&mut conn, 4, QueryKind::SweepSummary, Some(&spec));

    let response = ask(&mut conn, 5, QueryKind::Metrics, None);
    assert_eq!(
        response.get("status").and_then(Value::as_str),
        Some("ok"),
        "metrics query failed: {}",
        response.render()
    );
    let snapshot = response.get("result").expect("ok response carries result");
    let series = snapshot.get("series").expect("snapshot carries series");

    // Every instrumented plane must be on the wire.
    let planes = [
        ("sweep", "sweep.scenarios"),
        ("solver", "serve.solve_ns"),
        ("cache", "serve.cache.hits"),
        ("admission", "serve.overloaded"),
    ];
    for (plane, name) in planes {
        assert!(
            series.get(name).is_some(),
            "{plane} series `{name}` missing from snapshot"
        );
    }

    println!("\ntelemetry snapshot digest:");
    for name in [
        "serve.requests",
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.overloaded",
        "sweep.scenarios",
    ] {
        let value = counter(series, name).unwrap_or(0.0);
        println!("  {name:<24} {value}");
    }
    for (name, what) in [
        ("serve.solve_ns", "solves"),
        ("serve.latency_ns", "requests"),
    ] {
        if let Some(histogram) = series.get(name) {
            let field = |f: &str| histogram.get(f).and_then(Value::as_f64).unwrap_or(0.0);
            let (p50, p95, count) = (field("p50"), field("p95"), field("count"));
            println!("  {name:<24} p50 {p50} ns, p95 {p95} ns over {count} {what}");
        }
    }

    assert!(
        counter(series, "serve.cache.hits").unwrap_or(0.0) >= 1.0,
        "the repeated plan must land in the cache series"
    );
    assert!(
        counter(series, "sweep.scenarios").unwrap_or(0.0) >= 1.0,
        "the sweep summary must exercise the sweep engine"
    );
    assert_eq!(
        series
            .get("serve.solve_ns")
            .and_then(|h| h.get("count"))
            .and_then(Value::as_f64),
        Some(3.0),
        "the three misses must each be solved once"
    );

    ask(&mut conn, 6, QueryKind::Shutdown, None);
    let mut handle = handle;
    handle.wait();
    println!("\nall planes present; server drained and stopped");
}
