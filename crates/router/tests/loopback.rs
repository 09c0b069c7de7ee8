//! Loopback integration suite for the routing front tier: byte-for-byte
//! relay transparency, key affinity, drain-and-rejoin with zero dropped
//! in-flight requests, health-probe ejection / half-open recovery, and
//! per-shard metrics aggregation.

use hems_fleet::plan::{AnalyticPlans, PlanSource, ServePlans};
use hems_router::server::plan_key;
use hems_router::{route, HealthPolicy, RouterConfig, RouterHandle};
use hems_serve::wire::{read_line_bounded, send_line};
use hems_serve::{serve, QueryKind, Request, ScenarioSpec, ServeConfig, ServerHandle, Value};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn backend(shard: u64) -> ServerHandle {
    serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(1),
            cache_capacity: 512,
            shard_id: Some(shard),
            ..ServeConfig::default()
        },
    )
    .expect("bind backend")
}

fn router_over(backends: &[&ServerHandle]) -> RouterHandle {
    let config = RouterConfig {
        backends: backends.iter().map(|b| b.addr()).collect(),
        probe_interval: Duration::from_millis(15),
        health: HealthPolicy {
            eject_after: 3,
            rejoin_after: 2,
        },
        connect_timeout: Duration::from_millis(300),
        request_timeout: Duration::from_secs(5),
        seed: 7,
        ..RouterConfig::default()
    };
    route("127.0.0.1:0", config).expect("bind router")
}

/// One raw NDJSON exchange on a dedicated connection stream.
struct RawClient {
    conn: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: SocketAddr) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("deadline");
        RawClient {
            conn: BufReader::new(stream),
        }
    }

    fn exchange(&mut self, line: &str) -> String {
        send_line(self.conn.get_mut(), line).expect("send");
        read_line_bounded(&mut self.conn, 256 * 1024)
            .expect("read")
            .expect("response line")
    }
}

fn plan_line(id: i64, kind: QueryKind, irradiance: f64) -> String {
    let spec = ScenarioSpec::baseline(irradiance);
    Request::render_line(id, kind, Some(&spec))
}

#[test]
fn router_relays_byte_identical_responses() {
    // A bare backend and a router-fronted backend see the same request
    // stream; every response line must match byte for byte — misses,
    // cache hits (second pass), and semantic errors alike.
    let direct = backend(0);
    let fronted = backend(0);
    let router = router_over(&[&fronted]);
    let mut to_direct = RawClient::connect(direct.addr());
    let mut to_router = RawClient::connect(router.addr());
    let mut lines: Vec<String> = Vec::new();
    for (i, g) in [0.62, 0.74, 0.88].iter().enumerate() {
        lines.push(plan_line(i as i64, QueryKind::OptimalPoint, *g));
        lines.push(plan_line(100 + i as i64, QueryKind::Mep, *g));
    }
    // An unbuildable scenario: the error verdict must relay verbatim too.
    lines.push(plan_line(999, QueryKind::OptimalPoint, -5.0));
    for pass in 0..2 {
        for line in &lines {
            let a = to_direct.exchange(line);
            let b = to_router.exchange(line);
            assert_eq!(a, b, "pass {pass}: direct vs routed for {line}");
        }
    }
}

#[test]
fn wire_shutdown_unblocks_wait() {
    let b0 = backend(0);
    let mut router = router_over(&[&b0]);
    let mut client = RawClient::connect(router.addr());
    let bye = client.exchange(r#"{"id":1,"query":"shutdown"}"#);
    let parsed = hems_serve::json::parse(&bye).expect("response json");
    assert_eq!(parsed.get("status").and_then(Value::as_str), Some("ok"));
    router.wait(); // must return, not hang
}

#[test]
fn key_affinity_pins_keys_to_their_home_shard() {
    let (b0, b1, b2) = (backend(0), backend(1), backend(2));
    let router = router_over(&[&b0, &b1, &b2]);
    let mut client = RawClient::connect(router.addr());
    let specs: Vec<ScenarioSpec> = (0..24)
        .map(|i| ScenarioSpec::baseline(0.2 + 0.06 * i as f64))
        .collect();
    // First pass warms each key's home shard; the second pass must be
    // all cache hits — the proof that the same key reached the same
    // shard both times.
    for pass in 0..2 {
        for (i, spec) in specs.iter().enumerate() {
            let line =
                Request::render_line((pass * 100 + i) as i64, QueryKind::OptimalPoint, Some(spec));
            let response = client.exchange(&line);
            let parsed = hems_serve::json::parse(&response).expect("response json");
            assert_eq!(
                parsed.get("status").and_then(Value::as_str),
                Some("ok"),
                "{response}"
            );
            let cached = parsed.get("cached").and_then(Value::as_bool);
            if pass == 1 {
                assert_eq!(cached, Some(true), "second pass must hit: {response}");
            }
        }
    }
    // The ring must have spread these keys over more than one shard, and
    // the observed shard for each key must be its ring home.
    let stats = router.stats_value();
    let shards = stats
        .get("backends")
        .and_then(|b| b.as_arr())
        .expect("backends");
    let used = shards
        .iter()
        .filter(|s| s.get("forwarded").and_then(Value::as_f64).unwrap_or(0.0) > 0.0)
        .count();
    assert!(
        used >= 2,
        "expected ≥2 shards used, stats: {}",
        stats.render()
    );
    for spec in &specs {
        let key = plan_key(QueryKind::OptimalPoint, spec).expect("key");
        let home = router.ring().home(key).expect("home");
        assert!(home < 3);
    }
}

#[test]
fn drain_and_rejoin_drops_no_inflight_requests() {
    let (b0, b1, b2) = (backend(0), backend(1), backend(2));
    let router = router_over(&[&b0, &b1, &b2]);
    let addr = router.addr();
    // Sustained concurrent load through retrying clients while shard 0
    // is drained and rejoined mid-stream: every request must answer.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = hems_serve::Client::new(
                    addr,
                    hems_serve::RetryPolicy {
                        jitter_seed: 40 + w,
                        ..hems_serve::RetryPolicy::default()
                    },
                );
                let mut answered = 0usize;
                for i in 0..40 {
                    let spec = ScenarioSpec::baseline(0.3 + (w * 40 + i) as f64 * 0.008);
                    let answer = client
                        .plan(QueryKind::OptimalPoint, &spec)
                        .expect("plan through drain");
                    assert!(answer.result.get("frequency_hz").is_some());
                    answered += 1;
                }
                answered
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    assert!(router.drain_shard(0), "drain shard 0");
    std::thread::sleep(Duration::from_millis(30));
    assert!(router.rejoin_shard(0), "rejoin shard 0");
    let total: usize = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    assert_eq!(total, 160, "every request answered across drain+rejoin");
    let stats = router.stats_value();
    assert_eq!(
        stats.get("errors").and_then(Value::as_f64),
        Some(0.0),
        "no router-synthesized errors: {}",
        stats.render()
    );
}

fn wait_for_state(router: &RouterHandle, shard: usize, state: &str, within: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < within {
        if router.shard_state(shard) == Some(state) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn probes_eject_dead_backends_and_rejoin_recovered_ones() {
    let b0 = backend(0);
    let mut b1 = backend(1);
    let router = router_over(&[&b0, &b1]);
    let mut client = RawClient::connect(router.addr());
    // Baseline: both shards answer.
    let warm = client.exchange(&plan_line(1, QueryKind::OptimalPoint, 0.7));
    assert!(warm.contains("\"status\":\"ok\""));

    // Kill shard 1; probes must eject it.
    b1.shutdown();
    assert!(
        wait_for_state(&router, 1, "ejected", Duration::from_secs(5)),
        "shard 1 ejected after its backend died (state: {:?})",
        router.shard_state(1)
    );
    // Traffic owned by the dead shard reroutes and still answers.
    for i in 0..12 {
        let response = client.exchange(&plan_line(
            50 + i,
            QueryKind::OptimalPoint,
            0.5 + i as f64 * 0.03,
        ));
        assert!(
            response.contains("\"status\":\"ok\""),
            "rerouted request {i} failed: {response}"
        );
    }

    // Restart the shard on a fresh port, repoint the slot: probes must
    // walk it through half-open back to healthy and count a rejoin.
    let revived = backend(1);
    assert!(router.set_backend(1, revived.addr()));
    assert!(
        wait_for_state(&router, 1, "healthy", Duration::from_secs(5)),
        "shard 1 healthy after restart (state: {:?})",
        router.shard_state(1)
    );
    let stats = router.stats_value();
    let ejections = stats
        .get("ejections")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    assert!(ejections >= 1.0, "ejection recorded: {}", stats.render());
    let after = client.exchange(&plan_line(99, QueryKind::OptimalPoint, 0.7));
    assert!(after.contains("\"status\":\"ok\""));
}

#[test]
fn metrics_aggregates_per_shard_snapshots_with_prefixes() {
    let (b0, b1) = (backend(0), backend(1));
    let router = router_over(&[&b0, &b1]);
    let mut client = RawClient::connect(router.addr());
    for i in 0..8 {
        client.exchange(&plan_line(
            i,
            QueryKind::OptimalPoint,
            0.45 + 0.06 * i as f64,
        ));
    }
    let snapshot = router.metrics_snapshot();
    assert!(snapshot.counter("router.requests").unwrap_or(0) >= 8);
    let shard_requests = |i: usize| {
        snapshot
            .counter(&format!("shard{i}.serve.requests"))
            .unwrap_or(0)
    };
    assert!(
        shard_requests(0) + shard_requests(1) >= 8,
        "per-shard serve series present and labeled"
    );
    // The wire verb returns the same aggregation as a structured result.
    let response = client.exchange("{\"id\":7,\"query\":\"metrics\"}");
    let parsed = hems_serve::json::parse(&response).expect("metrics json");
    assert!(parsed.get("result").and_then(|r| r.get("series")).is_some());
}

#[test]
fn fleet_planning_waves_ride_through_the_router() {
    // The fleet's serve-backed plan source pointed at the router must
    // agree with the pure analytic planner — the router is transparent
    // to the planning tier.
    let (b0, b1) = (backend(0), backend(1));
    let router = router_over(&[&b0, &b1]);
    let mut through_router = ServePlans::new(router.addr());
    let mut analytic = AnalyticPlans::new();
    for g in [480.0, 640.0, 800.0] {
        let a = through_router.optimal_point(g).expect("router plan");
        let b = analytic.optimal_point(g).expect("analytic plan");
        match (a, b) {
            (Some(a), Some(b)) => {
                assert!(
                    (a.frequency_hz - b.frequency_hz).abs() <= 1e-9 * b.frequency_hz.abs(),
                    "frequency at {g}: {} vs {}",
                    a.frequency_hz,
                    b.frequency_hz
                );
            }
            (None, None) => {}
            (a, b) => panic!("answerability diverged at {g}: {a:?} vs {b:?}"),
        }
    }
}
