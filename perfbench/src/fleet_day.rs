//! `fleet_day`: a `hems-fleet` campaign planning through `ServePlans`
//! against a loopback `hems-serve`.
//!
//! Every plan call goes through [`TimedPlans`], a `PlanSource` wrapper
//! that times the call and checks the answer against the in-process
//! planner. The campaign's report must show no crash-consistency
//! violation and no unrecovered storm, and every campaign of one seed
//! must commit the same positions with the same sampled digest.
//!
//! A traced run adds two campaigns: the same one untraced (for the
//! tracing overhead and the step time) and a companion with one sampled
//! node instead of the default sixteen. The digest oracle has no public
//! call boundary, so `fleet.digest_s` is estimated as the difference of
//! the two step times.

use crate::keys::{self, Oracle};
use crate::replay::{self, Closed, Target};
use crate::serving;
use crate::spans::{median, median_of_window_medians, quantile, share, Span, Spans};
use crate::telemetry;
use crate::tier::{timed_start, Tier};
use crate::{peak_rss_mb, Ops, Options, Report, Scale};
use hems_fleet::{
    AnalyticPlans, Fleet, FleetConfig, FleetError, FleetReport, OperatingPoint, PlanSource,
    ServePlans,
};
use hems_load::{WorkloadConfig, Zipf};
use hems_obs::clock::monotonic_ns;
use hems_router::HashRing;
use hems_serve::Value;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Plan-cache entries of the loopback server.
const CACHE_CAPACITY: usize = 1024;
/// The weather seed of every campaign: the `hems-fleet` reference sky.
/// The sampled-digest oracle's cost follows the sixteen sampled nodes'
/// harvest, which varies by about ±20 % from sky to sky; drawing the sky
/// from the run's seed would bury a regression of that size. The run's
/// seed drives the capacity phase's request stream.
pub const REFERENCE_SKY: u64 = 7;
/// Request ids of the plan-tier phase, the layer phase and the two
/// phases on the cacheless server.
const TIER_IDS: u64 = 5 << 40;
const LAYER_IDS: u64 = 6 << 40;
const ROUND_TRIP_IDS: u64 = 7 << 40;
const CAPACITY_IDS: u64 = 8 << 40;
/// Mean open-loop rate of the plan-tier phase: busy enough that idle
/// virtual CPUs do not add their wake-up time to every request.
const TIER_RATE_HZ: f64 = 3000.0;

struct Params {
    setup_reps: usize,
    /// Open-loop and closed-loop seconds of the plan-tier phase, each.
    tier_s: f64,
    /// Seconds of each phase on the cacheless server.
    cold_s: f64,
    layer_sample: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            setup_reps: 31,
            tier_s: 4.0,
            cold_s: 3.0,
            layer_sample: 2000,
        },
        Scale::Tiny => Params {
            setup_reps: 2,
            tier_s: 0.2,
            cold_s: 0.2,
            layer_sample: 50,
        },
    }
}

/// The campaign every run measures: the reference sky over 12 000 nodes
/// for two days, sixteen of them digest-sampled (the `FleetConfig`
/// defaults), sized so node stepping and the digest oracle each take
/// seconds.
pub fn reference_fleet(scale: Scale) -> FleetConfig {
    match scale {
        Scale::Full => FleetConfig::new(REFERENCE_SKY, 12_000),
        Scale::Tiny => FleetConfig {
            days: 1,
            sampled: 2,
            ..FleetConfig::new(REFERENCE_SKY, 300)
        },
    }
}

/// The expected operating point per forecast bucket, from the pure
/// in-process planner.
type Expected = HashMap<u64, Option<OperatingPoint>>;

fn expected_points(buckets: u32) -> Result<Expected, String> {
    let mut analytic = AnalyticPlans::new();
    (1..=buckets)
        .map(|i| {
            let g = f64::from(i) / f64::from(buckets);
            let point = analytic.optimal_point(g).map_err(|e| e.to_string())?;
            Ok((g.to_bits(), point))
        })
        .collect()
}

/// A `PlanSource` that times every call into `ServePlans` and checks
/// its answer.
struct TimedPlans<'a> {
    inner: ServePlans,
    expected: &'a Expected,
    latencies_ns: Vec<f64>,
    plan_ns: u64,
    mismatches: u64,
    spans: Spans,
}

impl PlanSource for TimedPlans<'_> {
    fn optimal_point(&mut self, g_bucket: f64) -> Result<Option<OperatingPoint>, FleetError> {
        let start_ns = monotonic_ns();
        let answer = self.inner.optimal_point(g_bucket);
        let end_ns = monotonic_ns();
        self.plan_ns += end_ns.saturating_sub(start_ns);
        self.latencies_ns
            .push(end_ns.saturating_sub(start_ns) as f64);
        self.spans.record(Span {
            id: self.latencies_ns.len() as u64,
            name: "fleet.plan",
            parent: "fleet.run",
            start_ns,
            end_ns,
            calls: 1,
        });
        if let Ok(point) = &answer {
            if self.expected.get(&g_bucket.to_bits()) != Some(point) {
                self.mismatches += 1;
            }
        }
        answer
    }

    fn name(&self) -> &'static str {
        "serve"
    }
}

/// One timed campaign.
pub struct Campaign {
    /// Its shape.
    pub config: FleetConfig,
    /// What it produced.
    pub report: FleetReport,
    /// `Fleet::new` wall time, ns.
    pub new_ns: u64,
    /// `Fleet::run` wall time, ns.
    pub run_ns: u64,
    /// Time inside plan calls, ns.
    pub plan_ns: u64,
    /// Plan calls made.
    pub plan_calls: u64,
    /// Plan calls the server answered from cache.
    pub plan_cached: u64,
    /// Per-call plan latency, ns.
    pub plan_latencies_ns: Vec<f64>,
    /// Plan calls as operations; a wrong operating point fails one.
    pub ops: Ops,
    /// The campaign's spans (kept only when tracing).
    pub spans: Spans,
}

impl Campaign {
    /// Simulated node-days per wall second of `Fleet::run`.
    pub fn node_days_per_s(&self) -> f64 {
        f64::from(self.config.nodes) * f64::from(self.config.days)
            / (self.run_ns.max(1) as f64 / 1e9)
    }

    /// Run time outside plan calls: node stepping, the wheel, weather and
    /// the sampled-digest oracle, ns.
    pub fn step_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.plan_ns)
    }

    /// No crash-consistency violation, no unrecovered storm, no wrong plan.
    pub fn sound(&self) -> bool {
        self.report.violations == 0 && self.report.unrecovered() == 0 && self.ops.failed == 0
    }

    fn summary_num(&self, field: &str) -> f64 {
        self.report
            .summary
            .get(field)
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }

    /// The campaign's deterministic fingerprint: commits and the sampled
    /// commit-stream digest.
    pub fn fingerprint(&self) -> (u64, String) {
        let digest = self
            .report
            .summary
            .get("sampled_digest")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        (self.report.committed, digest)
    }
}

/// Runs `fleet` (built from `config` in `new_ns`) against the server at
/// `addr`.
fn campaign(
    fleet: Fleet,
    config: FleetConfig,
    new_ns: u64,
    addr: SocketAddr,
    expected: &Expected,
    trace: bool,
) -> Result<Campaign, String> {
    let mut plans = TimedPlans {
        inner: ServePlans::new(addr),
        expected,
        latencies_ns: Vec::new(),
        plan_ns: 0,
        mismatches: 0,
        spans: Spans::new(trace),
    };
    let start_ns = monotonic_ns();
    let report = fleet.run(&mut plans).map_err(|e| e.to_string())?;
    let end_ns = monotonic_ns();
    let plan_calls = plans.inner.requests();
    let mut spans = plans.spans;
    spans.record(Span {
        id: config.seed,
        name: "fleet.run",
        parent: "",
        start_ns,
        end_ns,
        calls: 1,
    });
    Ok(Campaign {
        config,
        report,
        new_ns,
        run_ns: end_ns.saturating_sub(start_ns),
        plan_ns: plans.plan_ns,
        plan_calls,
        plan_cached: plans.inner.cache_hits(),
        plan_latencies_ns: plans.latencies_ns,
        ops: Ops {
            sent: plan_calls,
            ok: plan_calls.saturating_sub(plans.mismatches),
            wrong: plans.mismatches,
            failed: plans.mismatches,
        },
        spans,
    })
}

fn build_and_run(
    config: FleetConfig,
    addr: SocketAddr,
    expected: &Expected,
    trace: bool,
) -> Result<Campaign, String> {
    let start_ns = monotonic_ns();
    let fleet = Fleet::new(config).map_err(|e| e.to_string())?;
    let new_ns = monotonic_ns().saturating_sub(start_ns);
    campaign(fleet, config, new_ns, addr, expected, trace)
}

/// The reference campaign planning through a serving workload's own
/// tier. Its plan calls are about one percent of its run time, so it is
/// a canary: a serving change should not move it.
///
/// # Errors
///
/// Fleet construction or plan-source failures.
pub fn companion(addr: SocketAddr, scale: Scale, trace: bool) -> Result<Campaign, String> {
    let config = reference_fleet(scale);
    let expected = expected_points(config.plan_buckets)?;
    build_and_run(config, addr, &expected, trace)
}

/// Runs `fleet_day`.
///
/// # Errors
///
/// Set-up failures or a campaign that could not run to the end.
pub fn run(options: &Options) -> Result<Report, String> {
    let p = params(options.scale);
    let io = |what: &'static str| move |e: std::io::Error| format!("{what}: {e}");
    let config = reference_fleet(options.scale);
    let mut report = Report::default();
    let mut ops = Ops::default();

    // Oracles: the planner's points per bucket, and the fleet's plan
    // queries (the answerable ones) for the plan-tier phase.
    let expected = expected_points(config.plan_buckets)?;
    let all_keys = keys::fleet_keys(config.plan_buckets);
    let answerable = Oracle::compute(&all_keys, 1);
    let cap_keys: Vec<_> = all_keys
        .iter()
        .enumerate()
        .filter(|(rank, _)| answerable.expected(*rank).is_some())
        .map(|(_, key)| key.clone())
        .collect();
    let mut cap_oracle = Oracle::compute(&cap_keys, 1);

    // Set-up: a fresh server timed to its first answer, then Fleet::new.
    let probe = serving::probe_line();
    let mut setups = Vec::with_capacity(p.setup_reps);
    let mut news = Vec::with_capacity(p.setup_reps);
    let mut kept = None;
    for _ in 0..p.setup_reps.max(1) {
        drop(kept.take());
        let (tier, tier_s) =
            timed_start(|| Tier::direct(CACHE_CAPACITY), &probe).map_err(io("server set-up"))?;
        let start_ns = monotonic_ns();
        let fleet = Fleet::new(config).map_err(|e| e.to_string())?;
        let new_ns = monotonic_ns().saturating_sub(start_ns);
        setups.push(tier_s + new_ns as f64 / 1e9);
        news.push(new_ns as f64);
        kept = Some((tier, fleet, new_ns));
    }
    let (tier, fleet, new_ns) = kept.ok_or("no server was started")?;
    report.set("setup_s", median(&setups));
    report.set("fleet.setup_ms", median(&news) / 1e6);
    let addr = tier.addr();

    // Campaigns: the first on the kept fleet, then repeats while the
    // budget allows (traced: the untraced twin and the one-sampled-node
    // companion).
    let before = telemetry::fetch(addr).map_err(io("metrics"))?;
    let budget_ns = (options.seconds * 1e9) as u64;
    let start_ns = monotonic_ns();
    let first = campaign(fleet, config, new_ns, addr, &expected, options.trace)?;
    let mut plain = Vec::new();
    let mut digestless = None;
    if options.trace {
        plain.push(build_and_run(config, addr, &expected, false)?);
        let companion = FleetConfig {
            sampled: 1,
            ..config
        };
        digestless = Some(build_and_run(companion, addr, &expected, false)?);
    } else {
        let last_ns = first.run_ns;
        while monotonic_ns().saturating_sub(start_ns) + last_ns < budget_ns {
            plain.push(build_and_run(config, addr, &expected, false)?);
        }
    }
    // The plan tier under the fleet's own queries, open-loop and
    // closed-loop slices interleaved like the serving workloads': every
    // answer is checked, and a traced run takes its `load.*` tails and
    // the tier's counters from it.
    let schedule = WorkloadConfig {
        keyspace: cap_keys.len(),
        zipf_exponent: 0.0,
        base_rate_hz: TIER_RATE_HZ,
        wave_amplitude: 0.5,
        waves: 2.0,
        duration: Duration::from_secs_f64(p.tier_s),
        seed: options.seed,
        kind_override: None,
    }
    .arrivals();
    if options.plant_wrong_answer {
        cap_oracle.plant_wrong_answer(schedule.first().map_or(0, |a| a.key));
    }
    let rounds = match options.scale {
        Scale::Full => 8,
        Scale::Tiny => 2,
    };
    let target = Target {
        addr,
        keys: &cap_keys,
        oracle: &cap_oracle,
    };
    let tier_phase = replay::rounds(
        target,
        &schedule,
        Duration::from_secs_f64(p.tier_s),
        rounds,
        Duration::from_secs_f64(p.tier_s / rounds as f64),
        &Zipf::new(cap_keys.len(), 0.0),
        options.seed,
        TIER_IDS,
        false,
    )
    .map_err(io("plan tier phase"))?;
    // The end-to-end latency and capacity: the fleet's plan queries on a
    // server without a plan cache, so every one is solved. Latency is one
    // connection sending one request at a time, capacity two connections
    // back to back. Cached, a round trip is ~40 µs, mostly the wake-up of
    // idle virtual CPUs, and spread past a quarter between runs.
    let cold = Tier::direct(0).map_err(io("cold server"))?;
    let cold_target = Target {
        addr: cold.addr(),
        ..target
    };
    let cold_phase = |lanes, ids| {
        replay::closed_loop(
            cold_target,
            lanes,
            Duration::from_secs_f64(p.cold_s),
            &Zipf::new(cap_keys.len(), 0.0),
            options.seed ^ ids,
            ids,
            false,
        )
        .map_err(io("cold phase"))
    };
    let round_trips = cold_phase(1, ROUND_TRIP_IDS)?;
    let solved = cold_phase(replay::LANES, CAPACITY_IDS)?;
    drop(cold);
    let window = telemetry::fetch(addr)
        .map_err(io("metrics"))?
        .since(&before);

    // Correctness: sound campaigns with one fingerprint per seed.
    let same_config: Vec<&Campaign> = std::iter::once(&first).chain(&plain).collect();
    let fingerprint = first.fingerprint();
    let repeatable = same_config.iter().all(|c| c.fingerprint() == fingerprint);
    let sound =
        same_config.iter().all(|c| c.sound()) && digestless.as_ref().is_none_or(Campaign::sound);
    for c in same_config.iter().copied().chain(digestless.as_ref()) {
        ops.absorb(c.ops);
    }
    ops.absorb(tier_phase.ops);
    ops.absorb(round_trips.ops);
    ops.absorb(solved.ops);
    report.correct = sound && repeatable && ops.failed == 0;
    report.notes.push(format!(
        "fleet_day: {} nodes x {} days, {} campaign(s), committed {} digest {}, violations {}, unrecovered {}, repeatable {repeatable}",
        config.nodes,
        config.days,
        same_config.len(),
        fingerprint.0,
        fingerprint.1,
        first.report.violations,
        first.report.unrecovered(),
    ));

    // End-to-end: untraced campaigns only (a traced run's first is traced).
    let timed: Vec<f64> = same_config
        .iter()
        .skip(usize::from(options.trace))
        .map(|c| c.run_ns as f64)
        .collect();
    let node_days = f64::from(config.nodes) * f64::from(config.days);
    report.set("node_days_per_s", node_days / (median(&timed) / 1e9));
    let mut latencies = first.plan_latencies_ns.clone();
    latencies.sort_by(f64::total_cmp);
    report.set("latency_p50_ms", round_trip_p50_ns(&round_trips) / 1e6);
    report.set("capacity_hz", solved.capacity_hz());
    report.notes.push(format!(
        "plan calls: p50 {:.4} ms, p95 {:.4} ms, p99 {:.4} ms over {} calls",
        quantile(&latencies, 0.5) / 1e6,
        quantile(&latencies, 0.95) / 1e6,
        quantile(&latencies, 0.99) / 1e6,
        latencies.len(),
    ));

    if options.trace {
        let untraced = plain.first().ok_or("untraced twin missing")?;
        let mut spans = Spans::new(true);
        serving::layer_spans(
            &cap_keys,
            &cap_oracle,
            &(0..p.layer_sample)
                .map(|i| i % cap_keys.len())
                .collect::<Vec<_>>(),
            &HashRing::new(serving::SHARDS),
            LAYER_IDS,
            &mut spans,
        )?;
        serving::load_layers(&mut report, &tier_phase.samples);
        serving::tier_layers(&mut report, &window);
        serving::call_layers(&mut report, &spans);
        serving::solve_layers(&mut report, &cap_keys, &cap_oracle);
        fleet_layers(&mut report, &first, untraced, digestless.as_ref());
        spans.absorb(first.spans);
        report.notes.push(crate::spans::write_trace(
            options.workload.name(),
            options.seed,
            &spans,
        ));
    }
    report.ops = ops;
    drop(tier);
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Median over quarter-second windows of the gaps between consecutive
/// answers of a one-connection closed loop: each request's round trip
/// plus the few microseconds the client spends between requests, ns.
fn round_trip_p50_ns(one_lane: &Closed) -> f64 {
    let mut gaps: Vec<(u64, f64)> = one_lane
        .ok_at_ns
        .windows(2)
        .map(|w| (w[1], w[1].saturating_sub(w[0]) as f64))
        .collect();
    median_of_window_medians(&mut gaps, 250_000_000)
}

/// `fleet.*` and `trace.overhead_share`, from a traced campaign, its
/// untraced twin, and (on `fleet_day`) the one-sampled-node companion.
/// Without a companion the digest estimate is 0.
pub fn fleet_layers(
    report: &mut Report,
    traced: &Campaign,
    untraced: &Campaign,
    digestless: Option<&Campaign>,
) {
    report
        .values
        .entry("fleet.setup_ms")
        .or_insert(traced.new_ns as f64 / 1e6);
    report.set("fleet.plan_calls", traced.plan_calls as f64);
    report.set("fleet.plan_ms", traced.plan_ns as f64 / 1e6);
    report.set(
        "fleet.plan_cached_share",
        share(traced.plan_cached, traced.plan_calls),
    );
    let step_s = untraced.step_ns() as f64 / 1e9;
    report.set("fleet.step_s", step_s);
    let digest_s = digestless.map_or(0.0, |d| step_s - d.step_ns() as f64 / 1e9);
    report.set("fleet.digest_s", digest_s);
    report.set(
        "fleet.digest_share",
        digest_s / (untraced.run_ns.max(1) as f64 / 1e9),
    );
    report.set(
        "fleet.ns_per_event",
        untraced.run_ns as f64 / untraced.report.events.max(1) as f64,
    );
    report.set("fleet.events", untraced.report.events as f64);
    report.set("fleet.node_steps", untraced.report.node_steps as f64);
    report.set("fleet.committed", untraced.report.committed as f64);
    report.set("fleet.rollbacks", untraced.summary_num("rollbacks"));
    if digestless.is_some() {
        report.set(
            "trace.overhead_share",
            traced.run_ns as f64 / untraced.run_ns.max(1) as f64 - 1.0,
        );
    }
}
