//! `hems-perfbench`: the repository benchmark.
//!
//! Three workloads, one command (see `README.md` in this directory):
//!
//! * `plan_hit` — Zipf traffic over a keyspace that fits the shards'
//!   plan caches, replayed open-loop through `hems-router` in front of
//!   two `hems-serve` shards. Every measured request is a cache hit.
//! * `plan_miss` — uniform traffic over a keyspace four times the tier's
//!   total cache capacity, so the solver, worker pool and sweep engine
//!   do the work.
//! * `fleet_day` — a `hems-fleet` campaign planning through `ServePlans`
//!   against a loopback `hems-serve`.
//!
//! Every answer is checked against an oracle computed before timing
//! starts, and every operation is counted as ok or failed. A traced run
//! (`--trace 1`) prints per-layer metrics instead of the end-to-end ones:
//! spans recorded by this crate around calls into each layer's public
//! functions, plus the counters each tier exposes through its `metrics`
//! verb.

#![forbid(unsafe_code)]

pub mod fleet_day;
pub mod keys;
pub mod replay;
pub mod serving;
pub mod spans;
pub mod telemetry;
pub mod tier;

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("capacity_hz", "Hz"),
    ("node_days_per_s", "node-day/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not pass through reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("load.send_lag_p99_ms", "ms"),
    ("load.latency_p95_ms", "ms"),
    ("load.latency_p99_ms", "ms"),
    ("router.latency_p50_ms", "ms"),
    ("router.plan_key_us", "us"),
    ("router.ring_route_ns", "ns"),
    ("router.retries", "count"),
    ("router.errors", "count"),
    ("router.ejections", "count"),
    ("serve.latency_p50_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.spec_build_us", "us"),
    ("core.cachekey_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.render_us", "us"),
    ("serve.job_build_us", "us"),
    ("serve.solve_us.optimal_point", "us"),
    ("serve.solve_us.mep", "us"),
    ("serve.solve_us.bypass", "us"),
    ("serve.solve_us.sprint", "us"),
    ("serve.solve_us.sweep_summary", "us"),
    ("serve.cache.hit_share", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.batch_jobs_mean", "jobs/batch"),
    ("serve.dedup_share", "ratio"),
    ("serve.overloaded", "count"),
    ("sim.pool.batch_p50_ms", "ms"),
    ("sim.sweep.chunk_p50_ms", "ms"),
    ("sim.pool.panics", "count"),
    ("core.lut.pv_hit_share", "ratio"),
    ("core.lut.cpu_hit_share", "ratio"),
    ("fleet.setup_ms", "ms"),
    ("fleet.plan_calls", "count"),
    ("fleet.plan_ms", "ms"),
    ("fleet.plan_cached_share", "ratio"),
    ("fleet.step_s", "s"),
    ("fleet.digest_s", "s"),
    ("fleet.digest_share", "ratio"),
    ("fleet.ns_per_event", "ns"),
    ("fleet.events", "count"),
    ("fleet.node_steps", "count"),
    ("fleet.committed", "count"),
    ("fleet.rollbacks", "count"),
    ("trace.overhead_share", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Routed cache hits.
    PlanHit,
    /// Routed cache misses: solver, pool and sweep engine.
    PlanMiss,
    /// A fleet campaign planning through a loopback server.
    FleetDay,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::PlanHit, Workload::PlanMiss, Workload::FleetDay];

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanHit => "plan_hit",
            Workload::PlanMiss => "plan_miss",
            Workload::FleetDay => "fleet_day",
        }
    }
}

/// How big a run is: `Full` for measurement, `Tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the numbers in `README.md` come from.
    Full,
    /// Seconds-scale sizes that exercise every code path.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// `true`: print per-layer metrics (and write spans) instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Run size.
    pub scale: Scale,
    /// Self-test hook: corrupt one expected answer in the oracle, which
    /// must then surface as failed operations.
    pub plant_wrong_answer: bool,
}

/// Operation accounting shared by every workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations sent.
    pub sent: u64,
    /// Operations answered correctly.
    pub ok: u64,
    /// Wrong answers (a subset of `failed`).
    pub wrong: u64,
    /// Errors, refusals, transport failures, timeouts and wrong answers.
    pub failed: u64,
}

impl Ops {
    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Ops) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.wrong += other.wrong;
        self.failed += other.failed;
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Every output matched its oracle and every workload invariant held.
    pub correct: bool,
    /// Operation accounting.
    pub ops: Ops,
    /// Measured values by metric name (both catalogs).
    pub values: BTreeMap<&'static str, f64>,
    /// Diagnostics printed to stderr (tails, sample counts, verdicts).
    pub notes: Vec<String>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The catalog a run prints.
    pub fn catalog(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Renders the result line: `correct`, `attempted`, `failed` and the
    /// catalog's metrics with their units.
    ///
    /// # Errors
    ///
    /// Names the first catalog metric the run did not measure, or that
    /// came out non-finite.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in Report::catalog(trace) {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.ops.sent.max(1),
            self.ops.failed,
            metrics.join(", ")
        ))
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives.
fn number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures (a tier that cannot bind, an oracle that cannot be
/// computed): the run measured nothing.
pub fn run(options: &Options) -> Result<Report, String> {
    match options.workload {
        Workload::PlanHit | Workload::PlanMiss => serving::run(options),
        Workload::FleetDay => fleet_day::run(options),
    }
}

/// Peak resident set size of this process, MB.
pub fn peak_rss_mb() -> f64 {
    hems_bench::harness::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}
