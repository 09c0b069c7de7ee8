//! `plan_hit` and `plan_miss`: traffic through `hems-router` in front of
//! two `hems-serve` shards with one solver thread each.
//!
//! A run computes the oracle, times `setup_reps` fresh tier start-ups,
//! warms the last tier, then measures an open-loop phase (latency) and
//! a closed-loop phase (capacity) between two reads of the tier's
//! `metrics` verb. A small fleet campaign planning through the same
//! tier gives `node_days_per_s`. A traced run adds the layer phase:
//! spans around direct calls into each layer's public functions, on the
//! requests the open-loop schedule sent.

use crate::fleet_day;
use crate::keys::{self, Oracle, Outcome, PlanKey, MIX};
use crate::replay::{self, Sample, Target, LANES};
use crate::spans::{median, quantile, share, Span, Spans};
use crate::telemetry::{self, Telemetry};
use crate::tier::{timed_start, Tier};
use crate::{peak_rss_mb, Ops, Options, Report, Scale, Workload};
use hems_load::{WorkloadConfig, Zipf};
use hems_obs::clock::monotonic_ns;
use hems_router::server::plan_key;
use hems_router::HashRing;
use hems_serve::cache::{PlanCache, SHARDS as CACHE_SHARDS};
use hems_serve::json;
use hems_serve::planner::{self, PlanJob};
use hems_serve::proto::{self, QueryKind, Request, ScenarioSpec};
use hems_sim::sweep::{run_scenarios_chunked, BATCH_LANES};
use hems_sim::WorkerPool;
use hems_units::XorShiftRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

/// Shards behind the router.
pub const SHARDS: usize = 2;

/// Open-loop/closed-loop rounds in a full-size run.
const ROUNDS: u64 = 8;

/// Request-id ranges, one per phase, so ids never collide.
const WARM_IDS: u64 = 1 << 40;
const LAYER_IDS: u64 = 2 << 40;

/// The line whose answer ends a timed start-up: one fixed cheap solve.
pub fn probe_line() -> String {
    PlanKey::new(QueryKind::OptimalPoint, ScenarioSpec::baseline(0.5)).line(0)
}

/// A workload's sizes.
struct Params {
    keyspace: usize,
    zipf: f64,
    /// Plan-cache entries per shard.
    cache_capacity: usize,
    rate_hz: f64,
    /// Warm-up requests drawn from the workload's own distribution;
    /// `None` asks every key once.
    warm: Option<usize>,
    setup_reps: usize,
    layer_sample: usize,
}

fn params(workload: Workload, scale: Scale) -> Params {
    match (workload, scale) {
        (Workload::PlanHit, Scale::Full) => Params {
            keyspace: 256,
            zipf: 1.0,
            cache_capacity: 512,
            rate_hz: 3000.0,
            warm: None,
            setup_reps: 31,
            layer_sample: 4000,
        },
        (Workload::PlanHit, Scale::Tiny) => Params {
            keyspace: 40,
            zipf: 1.0,
            cache_capacity: 64,
            rate_hz: 400.0,
            warm: None,
            setup_reps: 2,
            layer_sample: 100,
        },
        (_, Scale::Full) => Params {
            keyspace: 4096,
            zipf: 0.0,
            cache_capacity: 512,
            rate_hz: 300.0,
            warm: Some(1536),
            setup_reps: 31,
            layer_sample: 4000,
        },
        (_, Scale::Tiny) => Params {
            keyspace: 160,
            zipf: 0.0,
            cache_capacity: 16,
            rate_hz: 200.0,
            warm: Some(48),
            setup_reps: 2,
            layer_sample: 100,
        },
    }
}

/// Runs `plan_hit` or `plan_miss`.
///
/// # Errors
///
/// Set-up failures: an unanswerable key, a keyspace that would not fit
/// the caches on `plan_hit`, a tier that cannot start.
pub fn run(options: &Options) -> Result<Report, String> {
    let p = params(options.workload, options.scale);
    let hit = options.workload == Workload::PlanHit;
    let mut report = Report::default();
    let mut spans = Spans::new(options.trace);
    let mut ops = Ops::default();
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");

    // Inputs and their exact answers, before any timing.
    let keys = keys::keyspace(p.keyspace, options.seed);
    let mut oracle = Oracle::compute(&keys, LANES);
    oracle.require_all_answered()?;
    let open_s = options.seconds * 0.6;
    let closed_s = options.seconds - open_s;
    let schedule = WorkloadConfig {
        keyspace: p.keyspace,
        zipf_exponent: p.zipf,
        base_rate_hz: p.rate_hz,
        wave_amplitude: 0.5,
        waves: 2.0,
        duration: Duration::from_secs_f64(open_s),
        seed: options.seed,
        kind_override: None,
    }
    .arrivals();
    let zipf = Zipf::new(p.keyspace, p.zipf);
    if options.plant_wrong_answer {
        oracle.plant_wrong_answer(schedule.first().map_or(0, |a| a.key));
    }

    // Set-up: fresh tiers, each timed to its first answer; keep the last.
    let probe = probe_line();
    let mut setups = Vec::with_capacity(p.setup_reps);
    let mut kept = None;
    for _ in 0..p.setup_reps.max(1) {
        drop(kept.take());
        let (tier, seconds) = timed_start(|| Tier::routed(SHARDS, p.cache_capacity), &probe)
            .map_err(io("tier set-up"))?;
        setups.push(seconds);
        kept = Some(tier);
    }
    let tier = kept.ok_or("no tier was started")?;
    let ring = tier.ring().ok_or("a routed tier has a ring")?;
    report.set("setup_s", median(&setups));
    if hit {
        fits_in_caches(&keys, ring, p.cache_capacity)?;
    }

    // The fleet as a client of this tier, before the workload's traffic.
    let companion = fleet_day::companion(tier.addr(), options.scale, options.trace)?;
    ops.absorb(companion.ops);
    report.set("node_days_per_s", companion.node_days_per_s());

    // Warm-up: fill the caches (plan_hit) or reach the steady eviction
    // regime (plan_miss).
    let target = Target {
        addr: tier.addr(),
        keys: &keys,
        oracle: &oracle,
    };
    let warm_ranks: Vec<usize> = match p.warm {
        None => (0..p.keyspace).collect(),
        Some(n) => {
            let mut rng = XorShiftRng::seed_from_u64(options.seed ^ 0x7761_726d);
            (0..n).map(|_| zipf.sample(&mut rng)).collect()
        }
    };
    ops.absorb(replay::send_all(target, LANES, &warm_ranks, WARM_IDS).map_err(io("warm-up"))?);

    // The measured window.
    let rounds = match options.scale {
        Scale::Full => ROUNDS,
        Scale::Tiny => 2,
    };
    let halves = if options.trace { 2.0 } else { 1.0 };
    let before = telemetry::fetch(tier.addr()).map_err(io("metrics"))?;
    let measured = replay::rounds(
        target,
        &schedule,
        Duration::from_secs_f64(open_s),
        rounds,
        Duration::from_secs_f64(closed_s / rounds as f64 / halves),
        &zipf,
        options.seed,
        0,
        options.trace,
    )
    .map_err(io("measured window"))?;
    ops.absorb(measured.ops);
    let window = telemetry::fetch(tier.addr())
        .map_err(io("metrics"))?
        .since(&before);
    let latencies = measured.sorted_latencies_ns();
    report.set("latency_p50_ms", measured.latency_p50_ns() / 1e6);
    report.set("capacity_hz", measured.capacity_hz());

    let hits = window.counter_sum("serve.cache.hits");
    let misses = window.counter_sum("serve.cache.misses");
    let hit_share = share(hits, hits + misses);
    let invariants_hold = companion.sound() && (!hit || (hits > 0 && misses == 0));
    report.notes.push(format!(
        "{}: {} requests in the window, cache hit share {hit_share:.4}, {} ok / {} failed ({} wrong) overall",
        options.workload.name(),
        measured.ops.sent,
        ops.ok,
        ops.failed,
        ops.wrong,
    ));
    report.notes.push(format!(
        "open loop: p50 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms over {} requests at {} Hz mean",
        quantile(&latencies, 0.5) / 1e6,
        quantile(&latencies, 0.95) / 1e6,
        quantile(&latencies, 0.99) / 1e6,
        latencies.len(),
        p.rate_hz,
    ));

    if options.trace {
        for sample in &measured.samples {
            for span in sample.spans() {
                spans.record(span);
            }
        }
        let ranks: Vec<usize> = schedule
            .iter()
            .take(p.layer_sample)
            .map(|a| a.key)
            .collect();
        layer_spans(&keys, &oracle, &ranks, ring, LAYER_IDS, &mut spans)?;
        ops.absorb(sweep_chunk_spans(&keys, &oracle, &mut spans));
        load_layers(&mut report, &measured.samples);
        tier_layers(&mut report, &window);
        call_layers(&mut report, &spans);
        solve_layers(&mut report, &keys, &oracle);
        report.set(
            "trace.overhead_share",
            measured.capacity_hz() / measured.traced_capacity_hz().max(1e-9) - 1.0,
        );
        for closed in measured.traced {
            spans.absorb(closed.spans);
        }
        fleet_day::fleet_layers(&mut report, &companion, &companion, None);
        report.notes.push(crate::spans::write_trace(
            options.workload.name(),
            options.seed,
            &spans,
        ));
    }
    report.correct = invariants_hold && ops.failed == 0;
    report.ops = ops;
    drop(tier);
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// `plan_hit` must be all hits: every key has to fit its shard's cache,
/// whose LRU is split into [`CACHE_SHARDS`] sub-maps by the key's top
/// bits. Checked up front so an eviction can never masquerade as a
/// slower hit path.
fn fits_in_caches(keys: &[PlanKey], ring: &HashRing, cache_capacity: usize) -> Result<(), String> {
    let per_map = cache_capacity.div_ceil(CACHE_SHARDS);
    let mut load: HashMap<(u32, u64), usize> = HashMap::new();
    for key in keys {
        let cache_key = plan_key(key.kind, &key.spec)?;
        let shard = ring.home(cache_key).unwrap_or(0);
        *load.entry((shard, cache_key >> 61)).or_default() += 1;
    }
    match load.values().max() {
        Some(&most) if most > per_map => Err(format!(
            "plan_hit keyspace overflows a cache map ({most} keys > {per_map} slots)"
        )),
        _ => Ok(()),
    }
}

/// Times each layer's public entry point on the requests `ranks` name,
/// one span per call, all spans of a request sharing its id. Calls of a
/// few tens of nanoseconds are timed in batches of [`BATCH_CALLS`].
///
/// # Errors
///
/// A request line that no longer parses or builds.
pub fn layer_spans(
    keys: &[PlanKey],
    oracle: &Oracle,
    ranks: &[usize],
    ring: &HashRing,
    first_id: u64,
    spans: &mut Spans,
) -> Result<(), String> {
    const BATCH_CALLS: u32 = 32;
    let cache = PlanCache::new(keys.len() * 2);
    let mut results = Vec::with_capacity(keys.len());
    for (rank, key) in keys.iter().enumerate() {
        let job = PlanJob::build(key.kind, key.spec.clone())?;
        let rendered = oracle.expected(rank).unwrap_or("null").to_string();
        results.push(json::parse(&rendered).map_err(|e| e.to_string())?);
        cache.insert(job.key, rendered);
    }
    for (i, &rank) in ranks.iter().enumerate() {
        let id = first_id + i as u64;
        let line = keys[rank].line(id);
        let request_start = monotonic_ns();
        let request = spans
            .time(id, "serve.parse", "layer.request", || {
                Request::parse_line(&line)
            })
            .map_err(|(_, e)| e)?;
        let spec = request
            .scenario
            .clone()
            .ok_or("plan request without scenario")?;
        let kind = request.kind;
        let key = spans.time(id, "router.plan_key", "layer.request", || {
            plan_key(kind, &spec)
        })?;
        let start_ns = monotonic_ns();
        for _ in 0..BATCH_CALLS {
            black_box(ring.route(black_box(key), |_| true));
        }
        spans.record(Span {
            id,
            name: "router.ring_route",
            parent: "layer.request",
            start_ns,
            end_ns: monotonic_ns(),
            calls: BATCH_CALLS,
        });
        let (config, policy) =
            spans.time(id, "serve.spec_build", "layer.request", || spec.build())?;
        spans.time(id, "core.cachekey", "layer.request", || {
            black_box(spec.cache_key(kind, &config, &policy))
        });
        let owned = spec.clone();
        let job = spans.time(id, "serve.job_build", "layer.request", || {
            PlanJob::build(kind, owned)
        })?;
        let start_ns = monotonic_ns();
        for _ in 0..BATCH_CALLS {
            black_box(cache.get(black_box(job.key)));
        }
        spans.record(Span {
            id,
            name: "serve.cache_get",
            parent: "layer.request",
            start_ns,
            end_ns: monotonic_ns(),
            calls: BATCH_CALLS,
        });
        let result = results[rank].clone();
        spans.time(id, "serve.render", "layer.request", || {
            black_box(proto::ok_response(&request.id, true, result))
        });
        spans.record(Span {
            id,
            name: "layer.request",
            parent: "",
            start_ns: request_start,
            end_ns: monotonic_ns(),
            calls: 1,
        });
    }
    Ok(())
}

/// Runs up to four sweep chunks of the keyspace's `sweep_summary` keys
/// through `run_scenarios_chunked` — the serve batcher's sweep path —
/// timing each chunk and checking every answer against the oracle.
fn sweep_chunk_spans(keys: &[PlanKey], oracle: &Oracle, spans: &mut Spans) -> Ops {
    let ranks: Vec<usize> = (0..keys.len())
        .filter(|&r| keys[r].kind == QueryKind::SweepSummary)
        .take(4 * BATCH_LANES)
        .collect();
    let mut ops = Ops::default();
    let pool = WorkerPool::new(1);
    for (c, chunk) in ranks.chunks(BATCH_LANES).enumerate() {
        let scenarios: Vec<_> = chunk
            .iter()
            .enumerate()
            .filter_map(|(i, &r)| {
                let job = PlanJob::build(QueryKind::SweepSummary, keys[r].spec.clone()).ok()?;
                Some(planner::scenario_for(&job, i))
            })
            .collect();
        let start_ns = monotonic_ns();
        let results = run_scenarios_chunked(&scenarios, &pool, BATCH_LANES);
        spans.record(Span {
            id: c as u64,
            name: "sim.sweep.chunk",
            parent: "",
            start_ns,
            end_ns: monotonic_ns(),
            calls: 1,
        });
        for (&rank, result) in chunk.iter().zip(results) {
            let got = planner::sweep_answer(result).map(|v| v.render());
            let outcome = match (got, oracle.expected(rank)) {
                (Ok(got), Some(want)) if got == want => Outcome::Ok,
                _ => Outcome::Wrong,
            };
            outcome.tally(&mut ops);
        }
    }
    ops
}

/// `load.*`: the generator's own view of the open loop.
pub fn load_layers(report: &mut Report, samples: &[Sample]) {
    let mut lags: Vec<f64> = samples.iter().map(Sample::lag_ns).collect();
    lags.sort_by(f64::total_cmp);
    let mut latencies: Vec<f64> = samples
        .iter()
        .filter(|s| matches!(s.outcome, Outcome::Ok))
        .map(Sample::latency_ns)
        .collect();
    latencies.sort_by(f64::total_cmp);
    report.set("load.send_lag_p99_ms", quantile(&lags, 0.99) / 1e6);
    report.set("load.latency_p95_ms", quantile(&latencies, 0.95) / 1e6);
    report.set("load.latency_p99_ms", quantile(&latencies, 0.99) / 1e6);
}

/// Metrics read from the tier's own counters over the measured window.
pub fn tier_layers(report: &mut Report, window: &Telemetry) {
    let ms = |ns: f64| ns / 1e6;
    report.set(
        "router.latency_p50_ms",
        ms(window.histogram_merged("router.latency_ns").quantile(0.5)),
    );
    report.set(
        "router.retries",
        window.counter_sum("router.retries") as f64,
    );
    report.set("router.errors", window.counter_sum("router.errors") as f64);
    report.set(
        "router.ejections",
        window.counter_sum("router.ejections") as f64,
    );
    report.set(
        "serve.latency_p50_ms",
        ms(window.histogram_merged("serve.latency_ns").quantile(0.5)),
    );
    let hits = window.counter_sum("serve.cache.hits");
    let misses = window.counter_sum("serve.cache.misses");
    report.set("serve.cache.hit_share", share(hits, hits + misses));
    report.set(
        "serve.cache.evictions",
        window.counter_sum("serve.cache.evictions") as f64,
    );
    let batches = window.counter_sum("serve.batches");
    let jobs = window.counter_sum("serve.batched_jobs");
    let queued = window.counter_sum("serve.misses");
    report.set("serve.batch_jobs_mean", share(jobs, batches));
    report.set(
        "serve.dedup_share",
        share(queued.saturating_sub(jobs), queued),
    );
    report.set(
        "serve.overloaded",
        window.counter_sum("serve.overloaded") as f64,
    );
    report.set(
        "sim.pool.batch_p50_ms",
        ms(window.histogram_once("pool.batch_ns").quantile(0.5)),
    );
    report.set("sim.pool.panics", window.counter_once("pool.panics") as f64);
    for (name, hits, misses) in [
        (
            "core.lut.pv_hit_share",
            "core.lut.pv_hits",
            "core.lut.pv_misses",
        ),
        (
            "core.lut.cpu_hit_share",
            "core.lut.cpu_hits",
            "core.lut.cpu_misses",
        ),
    ] {
        let h = window.counter_once(hits);
        report.set(name, share(h, h + window.counter_once(misses)));
    }
}

/// Medians of the spans [`layer_spans`] and [`sweep_chunk_spans`] kept.
pub fn call_layers(report: &mut Report, spans: &Spans) {
    for (metric, span, scale) in [
        ("router.plan_key_us", "router.plan_key", 1e3),
        ("router.ring_route_ns", "router.ring_route", 1.0),
        ("serve.parse_us", "serve.parse", 1e3),
        ("serve.spec_build_us", "serve.spec_build", 1e3),
        ("core.cachekey_us", "core.cachekey", 1e3),
        ("serve.cache_get_us", "serve.cache_get", 1e3),
        ("serve.render_us", "serve.render", 1e3),
        ("serve.job_build_us", "serve.job_build", 1e3),
        ("sim.sweep.chunk_p50_ms", "sim.sweep.chunk", 1e6),
    ] {
        report.set(metric, spans.median_ns(span) / scale);
    }
}

/// `serve.solve_us.<kind>`: median `planner::answer` time per kind, from
/// the oracle's solves (0 for a kind the workload never asks).
pub fn solve_layers(report: &mut Report, keys: &[PlanKey], oracle: &Oracle) {
    for (kind, _) in MIX {
        let times: Vec<f64> = keys
            .iter()
            .zip(&oracle.solve_ns)
            .filter(|(k, _)| k.kind == kind)
            .map(|(_, &ns)| ns as f64)
            .collect();
        let metric = match kind {
            QueryKind::OptimalPoint => "serve.solve_us.optimal_point",
            QueryKind::Mep => "serve.solve_us.mep",
            QueryKind::Bypass => "serve.solve_us.bypass",
            QueryKind::Sprint => "serve.solve_us.sprint",
            _ => "serve.solve_us.sweep_summary",
        };
        report.set(metric, median(&times) / 1e3);
    }
}
