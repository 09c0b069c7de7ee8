//! `hems-load`: the serving-tier load benchmark. Spawns in-process
//! `hems-serve` shards fronted by `hems-router`, replays seeded
//! workloads against them, and writes `BENCH_load.json`:
//!
//! 1. **digest** — the same serial request stream sent to a bare
//!    backend and through a 1-backend router must produce an identical
//!    response multiset (the router's verbatim-relay contract, checked
//!    over a whole load stream rather than single exchanges).
//! 2. **scaling** — warm saturate throughput of a 1-backend tier vs a
//!    3-backend tier over a keyspace 3x one shard's plan cache: one
//!    shard thrashes, three shards each hold their key range, so the
//!    consistent-hash tier multiplies cache capacity as well as
//!    compute (acceptance: ≥2x aggregate).
//! 3. **knee** — an offered-rate ramp against the 3-backend tier;
//!    the knee is the highest offer whose goodput kept up.
//! 4. **diurnal** — a Zipf-skewed, sine-modulated open-loop run
//!    reporting p50/p95/p99 (coordinated-omission-free), goodput, and
//!    error/overload rates.
//!
//! `--smoke` (or `HEMS_BENCH_SMOKE=1`) shrinks every experiment to a
//! seconds-scale CI pass. `--out PATH` overrides the output path.

use hems_load::run as load_run;
use hems_load::{knee_of, RampPoint, RunConfig, RunReport, WorkloadConfig};
use hems_router::{route, RouterConfig, RouterHandle};
use hems_serve::{serve, QueryKind, ServeConfig, ServerHandle, Value};
use std::io;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_load.json".to_string(),
        smoke: std::env::var("HEMS_BENCH_SMOKE").ok().as_deref() == Some("1"),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                if let Some(path) = iter.next() {
                    args.out = path;
                }
            }
            _ => {}
        }
    }
    args
}

/// One serving tier: N in-process shards behind a router.
struct Tier {
    /// Held for their lifetime: dropping a handle stops its shard.
    _backends: Vec<ServerHandle>,
    router: RouterHandle,
}

fn tier(shards: usize, cache_capacity: usize) -> io::Result<Tier> {
    let mut backends = Vec::with_capacity(shards);
    for shard in 0..shards {
        backends.push(serve(
            "127.0.0.1:0",
            ServeConfig {
                threads: Some(1),
                cache_capacity,
                shard_id: Some(shard as u64),
                ..ServeConfig::default()
            },
        )?);
    }
    let router = route(
        "127.0.0.1:0",
        RouterConfig {
            backends: backends.iter().map(ServerHandle::addr).collect(),
            ..RouterConfig::default()
        },
    )?;
    Ok(Tier {
        _backends: backends,
        router,
    })
}

fn report_json(report: &RunReport) -> Value {
    Value::obj(vec![
        ("sent", Value::Num(report.sent as f64)),
        ("ok", Value::Num(report.ok as f64)),
        ("offered_hz", Value::Num(report.offered_hz)),
        ("goodput_hz", Value::Num(report.goodput_hz)),
        ("p50_ms", Value::Num(report.p50_ms)),
        ("p95_ms", Value::Num(report.p95_ms)),
        ("p99_ms", Value::Num(report.p99_ms)),
        ("error_rate", Value::Num(report.error_rate())),
        ("overload_rate", Value::Num(report.overload_rate())),
        ("hit_rate", Value::Num(report.hit_rate())),
    ])
}

fn main() -> ExitCode {
    match bench(parse_args()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hems-load: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: Args) -> io::Result<ExitCode> {
    let cache_capacity = if args.smoke { 32 } else { 64 };
    let keyspace = 3 * cache_capacity;
    let connections = 6usize;

    // ---- 1. Router transparency digest over a whole load stream ----
    let digest_load = WorkloadConfig {
        keyspace: 24,
        base_rate_hz: 1e6, // saturate mode ignores pacing anyway
        duration: Duration::from_micros(if args.smoke { 120 } else { 400 }),
        seed: 11,
        ..WorkloadConfig::default()
    };
    let digest_arrivals = digest_load.arrivals();
    let direct = serve(
        "127.0.0.1:0",
        ServeConfig {
            threads: Some(1),
            cache_capacity,
            ..ServeConfig::default()
        },
    )?;
    let fronted = tier(1, cache_capacity)?;
    let serial_direct = RunConfig::saturate(direct.addr(), 1);
    let serial_routed = RunConfig::saturate(fronted.router.addr(), 1);
    let direct_report = load_run(&serial_direct, &digest_arrivals)?;
    let routed_report = load_run(&serial_routed, &digest_arrivals)?;
    let digest_match = direct_report.digest == routed_report.digest
        && direct_report.errors == 0
        && routed_report.errors == 0;
    println!(
        "digest: {} requests, direct {:#018x} vs routed {:#018x} -> {}",
        digest_arrivals.len(),
        direct_report.digest,
        routed_report.digest,
        if digest_match { "match" } else { "MISMATCH" }
    );
    drop(fronted);
    drop(direct);

    // ---- 2. 1-backend vs 3-backend warm saturate throughput ----
    // Sized so the experiment isolates *cache capacity*: the keyspace
    // is 2.25x one shard's plan cache, so a single backend thrashes
    // (~44% hits) while each of three shards' ring ranges fits its
    // cache whole (~100% warm hits). `sprint` is the most expensive
    // cacheable solver query (~15x a cache hit on this box), so the
    // hit-rate gap, not raw parallelism, carries the speedup — which
    // is the point: consistent hashing multiplies cache capacity even
    // when compute does not scale (this runner may be single-core).
    let scale_keyspace = cache_capacity * 9 / 4;
    let scale_load = WorkloadConfig {
        keyspace: scale_keyspace,
        zipf_exponent: 0.0, // flat: the honest cache-thrash case
        base_rate_hz: 1e6,
        duration: Duration::from_micros(if args.smoke { 400 } else { 1200 }),
        seed: 22,
        kind_override: Some(QueryKind::Sprint),
        ..WorkloadConfig::default()
    };
    let scale_arrivals = scale_load.arrivals();
    let mut scaling = Vec::new();
    for shards in [1usize, 3] {
        let t = tier(shards, cache_capacity)?;
        let config = RunConfig::saturate(t.router.addr(), connections);
        load_run(&config, &scale_arrivals)?; // warm pass
        let warm = load_run(&config, &scale_arrivals)?;
        println!(
            "scaling: {shards} backend(s): {:.0} req/s warm ({:.0}% hits, {} errors)",
            warm.goodput_hz,
            warm.hit_rate() * 100.0,
            warm.errors
        );
        scaling.push((shards, warm));
    }
    let one_hz = scaling
        .iter()
        .find(|(s, _)| *s == 1)
        .map(|(_, r)| r.goodput_hz)
        .unwrap_or(0.0);
    let three_hz = scaling
        .iter()
        .find(|(s, _)| *s == 3)
        .map(|(_, r)| r.goodput_hz)
        .unwrap_or(0.0);
    let speedup = if one_hz > 0.0 { three_hz / one_hz } else { 0.0 };
    println!("scaling: 3-backend speedup {speedup:.2}x");

    // ---- 3. Offered-rate ramp to the saturation knee (3 backends) ----
    let knee_tier = tier(3, cache_capacity)?;
    let knee_target = knee_tier.router.addr();
    let step_s = if args.smoke { 0.4 } else { 1.2 };
    let mut points: Vec<RampPoint> = Vec::new();
    for fraction in [0.4, 0.8, 1.2, 1.8, 2.6] {
        let offered = (three_hz * fraction).max(10.0);
        let load = WorkloadConfig {
            keyspace,
            zipf_exponent: 1.0,
            base_rate_hz: offered,
            duration: Duration::from_secs_f64(step_s),
            seed: 33,
            ..WorkloadConfig::default()
        };
        let report = load_run(&RunConfig::paced(knee_target), &load.arrivals())?;
        println!(
            "knee: offered {:.0} req/s -> goodput {:.0} req/s, p99 {:.2} ms",
            report.offered_hz, report.goodput_hz, report.p99_ms
        );
        points.push(RampPoint {
            offered_hz: report.offered_hz,
            goodput_hz: report.goodput_hz,
            p99_ms: report.p99_ms,
            overload_rate: report.overload_rate(),
        });
    }
    let knee_tolerance = 0.9;
    let knee_hz = knee_of(&points, knee_tolerance);
    println!(
        "knee: {} (tolerance {knee_tolerance})",
        knee_hz.map_or("none held".to_string(), |hz| format!("{hz:.0} req/s"))
    );

    // ---- 4. The headline diurnal open-loop run ----
    let diurnal_rate = knee_hz.unwrap_or(three_hz * 0.5).max(20.0) * 0.5;
    let diurnal_load = WorkloadConfig {
        keyspace,
        zipf_exponent: 1.0,
        base_rate_hz: diurnal_rate,
        wave_amplitude: 0.7,
        waves: 2.0,
        duration: Duration::from_secs_f64(if args.smoke { 0.8 } else { 3.0 }),
        seed: 44,
        ..WorkloadConfig::default()
    };
    let diurnal = load_run(&RunConfig::paced(knee_target), &diurnal_load.arrivals())?;
    println!(
        "diurnal: {} requests, goodput {:.0} req/s, p50 {:.2} ms, p99 {:.2} ms",
        diurnal.sent, diurnal.goodput_hz, diurnal.p50_ms, diurnal.p99_ms
    );
    drop(knee_tier);

    let bench = Value::obj(vec![
        (
            "meta",
            Value::obj(vec![
                ("smoke", Value::Bool(args.smoke)),
                ("cache_capacity", Value::Num(cache_capacity as f64)),
                ("keyspace", Value::Num(keyspace as f64)),
                ("scale_keyspace", Value::Num(scale_keyspace as f64)),
                ("connections", Value::Num(connections as f64)),
            ]),
        ),
        (
            "digest",
            Value::obj(vec![
                ("requests", Value::Num(digest_arrivals.len() as f64)),
                (
                    "direct",
                    Value::Str(format!("{:016x}", direct_report.digest)),
                ),
                (
                    "routed",
                    Value::Str(format!("{:016x}", routed_report.digest)),
                ),
                ("match", Value::Bool(digest_match)),
            ]),
        ),
        (
            "scaling",
            Value::obj(vec![
                ("one_backend_hz", Value::Num(one_hz)),
                ("three_backend_hz", Value::Num(three_hz)),
                ("speedup", Value::Num(speedup)),
                (
                    "runs",
                    Value::Arr(
                        scaling
                            .iter()
                            .map(|(shards, r)| {
                                Value::obj(vec![
                                    ("backends", Value::Num(*shards as f64)),
                                    ("report", report_json(r)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "knee",
            Value::obj(vec![
                ("tolerance", Value::Num(knee_tolerance)),
                // A NaN renders as JSON null: "no step held".
                ("knee_hz", Value::Num(knee_hz.unwrap_or(f64::NAN))),
                (
                    "points",
                    Value::Arr(
                        points
                            .iter()
                            .map(|p| {
                                Value::obj(vec![
                                    ("offered_hz", Value::Num(p.offered_hz)),
                                    ("goodput_hz", Value::Num(p.goodput_hz)),
                                    ("p99_ms", Value::Num(p.p99_ms)),
                                    ("overload_rate", Value::Num(p.overload_rate)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("diurnal", report_json(&diurnal)),
    ]);
    std::fs::write(&args.out, format!("{}\n", bench.render_pretty()))?;
    println!("wrote {}", args.out);

    if !digest_match {
        eprintln!("hems-load: router-vs-direct digest mismatch");
        return Ok(ExitCode::FAILURE);
    }
    if !args.smoke && speedup < 2.0 {
        eprintln!("hems-load: 3-backend speedup {speedup:.2}x below the 2x acceptance bar");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
