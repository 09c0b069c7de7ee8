//! The campaign engine: one process, one wheel, 100k+ nodes.
//!
//! Everything that happens to the fleet is an event on the
//! [`TimeWheel`]: node wakes (every `wake_s`, staggered), regional plan
//! waves (one per region at dawn, staggered across ten minutes so the
//! serve tier sees a request *wave*, not a request *wall*), storm
//! boundary checks, and day rollovers. Handling an event *lazily
//! advances* only the nodes it concerns: a node's state is valid at its
//! own `t`, and [`advance`](Fleet) walks it forward analytically —
//! piecewise-constant harvest per weather epoch, closed-form
//! time-to-brownout, O(1) whole-period execution batching, O(1)
//! charge-burst-die flicker batching. No thread-per-node, no per-node
//! `Simulation`, no fixed global timestep.
//!
//! ## Determinism
//!
//! Same `(seed, config)` ⇒ byte-identical report. The wheel pops ties in
//! push order; plans are pure functions of exact-binary forecast
//! buckets; the obs registry runs on a manual clock pinned to simulated
//! time; and every force-advance happens *before* its plan swap, so no
//! node segment ever spans a plan change.

use crate::error::FleetError;
use crate::node::{CommitDigest, NodeModel, NodeState};
use crate::plan::{quantize_forecast, OperatingPoint, PlanSource};
use crate::weather::WeatherField;
use crate::wheel::TimeWheel;
use hems_core::cachekey::KeyHasher;
use hems_intermittent::CheckpointPolicy;
use hems_obs::{HistogramSnapshot, ManualClock, Registry, Snapshot};
use hems_serve::Value;
use std::sync::Arc;

pub use crate::report::FleetReport;

/// Seconds per simulated day.
const DAY_S: u64 = 86_400;
/// Plan waves start at dawn (0.25 of the day)…
const DAWN_S: u64 = 21_600;
/// …staggered across this window, one region per second slot.
const WAVE_STAGGER_S: u64 = 600;
/// Storm exit checks wait this long after the sky clears, so recovering
/// nodes have recharged and committed again before we judge them.
const STORM_EXIT_MARGIN_S: u64 = 900;

/// Event payload encoding: kind in the top byte, id below.
const KIND_SHIFT: u32 = 56;
const PAYLOAD_MASK: u64 = (1u64 << KIND_SHIFT) - 1;
const KIND_WAKE: u64 = 0;
const KIND_PLAN_WAVE: u64 = 1;
const KIND_DAY: u64 = 2;
const KIND_STORM_ENTER: u64 = 3;
const KIND_STORM_EXIT: u64 = 4;

fn payload(kind: u64, id: u64) -> u64 {
    (kind << KIND_SHIFT) | (id & PAYLOAD_MASK)
}

/// A fleet campaign's shape. `Copy`, so configs embed cheaply in reports
/// and sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Master seed: reaches the weather, the storms, and nothing else —
    /// node behaviour is fully determined by physics and plans.
    pub seed: u64,
    /// Fleet size.
    pub nodes: u32,
    /// Simulated days.
    pub days: u32,
    /// Weather grid width (regions across).
    pub grid_w: u32,
    /// Weather grid height.
    pub grid_h: u32,
    /// Seconds per piecewise-constant weather epoch.
    pub epoch_s: u32,
    /// Seconds between a node's scheduled wakes (its maximum state lag).
    pub wake_s: u32,
    /// Seeded regional brownout storms per day.
    pub storms_per_day: u32,
    /// Checkpoint policy every node runs (OnLowVoltage is rejected —
    /// see [`crate::node::Schedule::new`]).
    pub policy: CheckpointPolicy,
    /// Nodes whose commit streams are digest-sampled for
    /// crash-consistency (evenly spread across the id space).
    pub sampled: u32,
    /// Exact-binary irradiance buckets the planner quantizes to.
    pub plan_buckets: u32,
}

impl FleetConfig {
    /// The reference campaign: `nodes` nodes, two days, a 32×32 region
    /// grid, 60 s weather epochs, 10-minute wakes, two storms a day.
    pub fn new(seed: u64, nodes: u32) -> FleetConfig {
        FleetConfig {
            seed,
            nodes,
            days: 2,
            grid_w: 32,
            grid_h: 32,
            epoch_s: 60,
            wake_s: 600,
            storms_per_day: 2,
            policy: CheckpointPolicy::EveryTask,
            sampled: 16,
            plan_buckets: 8,
        }
    }

    /// The CI smoke campaign: 1 000 nodes, one day.
    pub fn smoke(seed: u64) -> FleetConfig {
        FleetConfig {
            nodes: 1_000,
            days: 1,
            ..FleetConfig::new(seed, 1_000)
        }
    }

    /// Validates the shape.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] for empty fleets, zero days, degenerate
    /// grids or epochs, or a wake interval shorter than an epoch.
    pub fn validate(&self) -> Result<(), FleetError> {
        let bad = |what: &str| Err(FleetError::new("config", what.to_string()));
        if self.nodes == 0 {
            return bad("at least one node");
        }
        if self.days == 0 {
            return bad("at least one day");
        }
        if self.grid_w < 4 || self.grid_h < 4 {
            return bad("the weather grid needs at least 4x4 regions");
        }
        if self.epoch_s == 0 || !DAY_S.is_multiple_of(self.epoch_s as u64) {
            return bad("epoch_s must divide the day");
        }
        if self.wake_s < self.epoch_s {
            return bad("wake_s must be at least one epoch");
        }
        if self.plan_buckets == 0 || self.plan_buckets > 64 {
            return bad("plan_buckets in 1..=64");
        }
        if self.sampled == 0 {
            return bad("sample at least one node");
        }
        Ok(())
    }
}

/// Per-storm bookkeeping between its enter and exit checks.
#[derive(Debug, Clone, Copy, Default)]
struct StormCheck {
    committed_enter: u64,
    rollbacks_enter: u64,
    entered: bool,
}

/// The fleet simulator. Build with [`Fleet::new`], drive with
/// [`Fleet::run`] (which consumes it — one campaign per instance).
pub struct Fleet {
    config: FleetConfig,
    model: NodeModel,
    weather: WeatherField,
    nodes: Vec<NodeState>,
    /// Current operating point per region (`None` = idle).
    plans: Vec<Option<OperatingPoint>>,
    /// Sorted ids of digest-sampled nodes; parallel to `digests`.
    sampled_ids: Vec<u32>,
    digests: Vec<CommitDigest>,
    wheel: TimeWheel,
    clock: Arc<ManualClock>,
    registry: Registry,
    node_steps: u64,
    /// Day-boundary counter flush state (totals already flushed).
    flushed: [u64; 4],
    /// Obs snapshot at the previous day boundary — day lines report
    /// *that day's* per-node distributions via histogram diffs.
    day_base: Option<Snapshot>,
}

impl Fleet {
    /// Builds the fleet: shared model and weather, `nodes` compact node
    /// states (region `id % regions`), empty plans, sampled digests.
    ///
    /// # Errors
    ///
    /// Propagates config validation and node-model construction
    /// failures.
    pub fn new(config: FleetConfig) -> Result<Fleet, FleetError> {
        config.validate()?;
        let model = NodeModel::paper_reference(config.policy)?;
        let weather = WeatherField::new(
            config.seed,
            config.grid_w,
            config.grid_h,
            config.epoch_s as f64,
            config.days,
            config.storms_per_day,
        );
        let regions = weather.regions();
        let nodes: Vec<NodeState> = (0..config.nodes)
            .map(|id| NodeState::new(id % regions))
            .collect();
        let sampled = config.sampled.min(config.nodes) as u64;
        let mut sampled_ids: Vec<u32> = (0..sampled)
            .map(|i| (i * config.nodes as u64 / sampled) as u32)
            .collect();
        sampled_ids.dedup();
        let chain_len = model.schedule.chain_len();
        let digests = sampled_ids
            .iter()
            .map(|_| CommitDigest::new(chain_len))
            .collect();
        let clock = Arc::new(ManualClock::new(0));
        let registry = Registry::with_clock(clock.clone());
        Ok(Fleet {
            config,
            model,
            weather,
            nodes,
            plans: vec![None; regions as usize],
            sampled_ids,
            digests,
            wheel: TimeWheel::new(),
            clock,
            registry,
            node_steps: 0,
            flushed: [0; 4],
            day_base: None,
        })
    }

    /// Walks node `id` forward to absolute time `to` under the region's
    /// *current* plan.
    fn advance(&mut self, id: u32, to: f64) {
        let Some(node) = self.nodes.get_mut(id as usize) else {
            return;
        };
        let plan = self.plans.get(node.region as usize).copied().flatten();
        let digest = match self.sampled_ids.binary_search(&id) {
            Ok(k) => self.digests.get_mut(k),
            Err(_) => None,
        };
        self.node_steps += advance_node(node, &self.model, &self.weather, plan, to, digest);
    }

    /// Runs the campaign against `source` and produces the report.
    ///
    /// # Errors
    ///
    /// Propagates plan-source infrastructure failures and report
    /// rendering errors; simulated faults (storms, brownouts) are
    /// results, never errors.
    pub fn run(mut self, source: &mut dyn PlanSource) -> Result<FleetReport, FleetError> {
        let config = self.config;
        let horizon = config.days as u64 * DAY_S;
        let regions = self.weather.regions();

        // Seed the wheel: staggered first wakes, dawn plan waves, storm
        // boundary checks, day rollovers.
        for id in 0..config.nodes {
            self.wheel.push(
                id as u64 % config.wake_s as u64,
                payload(KIND_WAKE, id as u64),
            );
        }
        for day in 0..config.days as u64 {
            for region in 0..regions as u64 {
                let t = day * DAY_S + DAWN_S + region % WAVE_STAGGER_S;
                self.wheel.push(t, payload(KIND_PLAN_WAVE, region));
            }
        }
        let storms: Vec<crate::weather::Storm> = self.weather.storms().to_vec();
        let mut storm_checks = vec![StormCheck::default(); storms.len()];
        for (i, storm) in storms.iter().enumerate() {
            let enter = storm.start_epoch as u64 * config.epoch_s as u64;
            let exit = storm.end_epoch as u64 * config.epoch_s as u64 + STORM_EXIT_MARGIN_S;
            if exit < horizon {
                self.wheel.push(enter, payload(KIND_STORM_ENTER, i as u64));
                self.wheel.push(exit, payload(KIND_STORM_EXIT, i as u64));
            }
        }
        for day in 1..=config.days as u64 {
            self.wheel.push(day * DAY_S, payload(KIND_DAY, day - 1));
        }

        let policy_name = format!("{:?}", config.policy);
        let mut lines = vec![Value::obj(vec![
            ("event", Value::str("config")),
            ("seed", Value::Num(config.seed as f64)),
            ("nodes", Value::Num(config.nodes as f64)),
            ("days", Value::Num(config.days as f64)),
            ("regions", Value::Num(regions as f64)),
            ("epoch_s", Value::Num(config.epoch_s as f64)),
            ("wake_s", Value::Num(config.wake_s as f64)),
            ("storms", Value::Num(storms.len() as f64)),
            ("sampled", Value::Num(self.sampled_ids.len() as f64)),
            ("plan_buckets", Value::Num(config.plan_buckets as f64)),
            ("policy", Value::str(policy_name)),
        ])];

        let plan_requests = self.registry.counter("fleet.plan_requests");
        let plan_idle = self.registry.counter("fleet.plan_idle");
        let mut events = 0u64;
        let mut storms_recovered = 0u64;

        while let Some(event) = self.wheel.pop_next() {
            if event.tick > horizon {
                continue;
            }
            events += 1;
            let t = event.tick as f64;
            let kind = event.payload >> KIND_SHIFT;
            let id = event.payload & PAYLOAD_MASK;
            match kind {
                KIND_WAKE => {
                    self.advance(id as u32, t);
                    let next = event.tick + config.wake_s as u64;
                    if next <= horizon {
                        self.wheel.push(next, payload(KIND_WAKE, id));
                    }
                }
                KIND_PLAN_WAVE => {
                    let region = id as u32;
                    let day = (event.tick / DAY_S) as u32;
                    // Old plan applies up to the wave instant: advance
                    // the region's nodes *before* swapping.
                    let mut nid = region;
                    while nid < config.nodes {
                        self.advance(nid, t);
                        if let Some(node) = self.nodes.get_mut(nid as usize) {
                            node.plan_gen = day as u16 + 1;
                        }
                        nid += regions;
                    }
                    let forecast = self.weather.noon_forecast(region, day);
                    let bucket = quantize_forecast(forecast, config.plan_buckets);
                    let point = source.optimal_point(bucket)?;
                    plan_requests.add(1);
                    if point.is_none() {
                        plan_idle.add(1);
                    }
                    if let Some(slot) = self.plans.get_mut(region as usize) {
                        *slot = point;
                    }
                }
                KIND_STORM_ENTER => {
                    let (committed, rollbacks) = self.sampled_activity(t);
                    if let Some(check) = storm_checks.get_mut(id as usize) {
                        check.committed_enter = committed;
                        check.rollbacks_enter = rollbacks;
                        check.entered = true;
                    }
                }
                KIND_STORM_EXIT => {
                    let (committed, rollbacks) = self.sampled_activity(t);
                    let check = storm_checks.get(id as usize).copied().unwrap_or_default();
                    let clean = self.digests.iter().all(|d| !d.violated());
                    // "Alive" is commits *or* rollbacks: a node whose plan
                    // outdraws a dim sky bursts and rolls back without
                    // ever finishing its in-flight task (the Sisyphus
                    // regime) — it is executing, not dead. Only a cohort
                    // with neither signal sat frozen through the storm.
                    let active = check.entered
                        && (committed > check.committed_enter || rollbacks > check.rollbacks_enter);
                    let recovered = active && clean;
                    if recovered {
                        storms_recovered += 1;
                    }
                    let storm = storms.get(id as usize).copied();
                    let (x0, x1, y0, y1) = storm
                        .map(|s| (s.x0, s.x1, s.y0, s.y1))
                        .unwrap_or((0, 0, 0, 0));
                    lines.push(Value::obj(vec![
                        ("event", Value::str("storm")),
                        ("storm", Value::Num(id as f64)),
                        ("t_exit", Value::Num(t)),
                        ("x0", Value::Num(x0 as f64)),
                        ("x1", Value::Num(x1 as f64)),
                        ("y0", Value::Num(y0 as f64)),
                        ("y1", Value::Num(y1 as f64)),
                        (
                            "sampled_committed_delta",
                            Value::Num((committed - check.committed_enter) as f64),
                        ),
                        (
                            "sampled_rollback_delta",
                            Value::Num((rollbacks - check.rollbacks_enter) as f64),
                        ),
                        ("digests_clean", Value::Bool(clean)),
                        ("recovered", Value::Bool(recovered)),
                    ]));
                }
                KIND_DAY => {
                    for nid in 0..config.nodes {
                        self.advance(nid, t);
                    }
                    lines.push(self.day_line(id as u32, event.tick));
                }
                _ => {}
            }
        }

        // Final crash-consistency verdict: every sampled node's
        // accumulated digest must equal the digest of the contiguous
        // stream `0..committed` recomputed from scratch.
        let chain_len = self.model.schedule.chain_len();
        let mut digest_mix = KeyHasher::new();
        digest_mix.write_tag("fleet-digest");
        let mut violations = 0u64;
        for (k, id) in self.sampled_ids.iter().enumerate() {
            let Some(digest) = self.digests.get(k) else {
                continue;
            };
            let committed = self
                .nodes
                .get(*id as usize)
                .map(|n| n.committed)
                .unwrap_or(0);
            let ok = !digest.violated()
                && digest.finish() == CommitDigest::expected(chain_len, committed);
            if !ok {
                violations += 1;
            }
            digest_mix.write_u64(digest.finish());
        }

        let totals = self.totals();
        let storms_total = storms
            .iter()
            .filter(|s| {
                (s.end_epoch as u64 * config.epoch_s as u64 + STORM_EXIT_MARGIN_S) < horizon
            })
            .count() as u64;
        self.registry.counter("fleet.storms").add(storms_total);
        let obs = self.registry.snapshot();
        let summary = Value::obj(vec![
            ("event", Value::str("summary")),
            ("seed", Value::Num(config.seed as f64)),
            ("nodes", Value::Num(config.nodes as f64)),
            ("committed", Value::Num(totals.committed as f64)),
            (
                "goodput_permille",
                dist_value(obs.histogram("fleet.goodput_permille")),
            ),
            (
                "ontime_permille",
                dist_value(obs.histogram("fleet.ontime_permille")),
            ),
            (
                "checkpoint_permille",
                dist_value(obs.histogram("fleet.checkpoint_permille")),
            ),
            ("rollbacks", Value::Num(totals.rollbacks as f64)),
            ("storms", Value::Num(storms_total as f64)),
            ("storms_recovered", Value::Num(storms_recovered as f64)),
            ("violations", Value::Num(violations as f64)),
            (
                "sampled_digest",
                Value::str(format!("{:016x}", digest_mix.finish())),
            ),
            ("node_steps", Value::Num(self.node_steps as f64)),
            ("events", Value::Num(events as f64)),
            ("obs", obs.to_value()),
        ]);
        Ok(FleetReport {
            lines,
            summary,
            violations,
            storms: storms_total,
            storms_recovered,
            committed: totals.committed,
            node_steps: self.node_steps,
            events,
        })
    }

    /// Advances the sampled nodes to `t` and sums their committed
    /// positions and rollbacks — the storm checks' liveness probe.
    fn sampled_activity(&mut self, t: f64) -> (u64, u64) {
        let ids: Vec<u32> = self.sampled_ids.clone();
        for id in ids {
            self.advance(id, t);
        }
        self.sampled_ids
            .iter()
            .filter_map(|id| self.nodes.get(*id as usize))
            .fold((0u64, 0u64), |(c, r), n| {
                (c + n.committed, r + n.rollbacks as u64)
            })
    }

    /// Fleet-wide accumulator totals (nodes must already be advanced).
    fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for node in &self.nodes {
            t.committed += node.committed;
            t.useful += node.useful;
            t.wasted += node.wasted;
            t.checkpoint += node.checkpoint;
            t.rollbacks += node.rollbacks as u64;
        }
        t
    }

    /// Emits the day-boundary report line and flushes obs metrics.
    fn day_line(&mut self, day: u32, tick: u64) -> Value {
        // Pin the obs clock to simulated time so snapshot timestamps are
        // seed-reproducible.
        self.clock.set(tick.saturating_mul(1_000_000_000));
        let totals = self.totals();
        let schedule = &self.model.schedule;
        let goodput_h = self.registry.histogram("fleet.goodput_permille");
        let ontime_h = self.registry.histogram("fleet.ontime_permille");
        let checkpoint_h = self.registry.histogram("fleet.checkpoint_permille");
        let mut powered = 0u64;
        for node in &self.nodes {
            if node.powered() {
                powered += 1;
            }
            goodput_h.record((node.goodput(schedule) * 1000.0) as u64);
            let ontime = if node.t > 0.0 {
                (node.powered_s / node.t * 1000.0) as u64
            } else {
                0
            };
            ontime_h.record(ontime);
            let spent = node.useful + node.wasted + node.checkpoint;
            let chk = if spent > 0.0 {
                (node.checkpoint / spent * 1000.0) as u64
            } else {
                0
            };
            checkpoint_h.record(chk);
        }
        let planned = self.plans.iter().filter(|p| p.is_some()).count() as u64;
        self.registry
            .gauge("fleet.nodes_powered")
            .set(powered.min(i64::MAX as u64) as i64);
        self.registry
            .gauge("fleet.regions_planned")
            .set(planned.min(i64::MAX as u64) as i64);
        // Counters are flushed once per day from local totals — no
        // per-segment atomics anywhere in the hot path.
        let deltas = [
            ("fleet.committed", totals.committed),
            ("fleet.rollbacks", totals.rollbacks),
            ("fleet.useful_kcycles", (totals.useful / 1e3) as u64),
            ("fleet.checkpoint_kcycles", (totals.checkpoint / 1e3) as u64),
        ];
        for (i, (name, total)) in deltas.iter().enumerate() {
            let Some(prev) = self.flushed.get_mut(i) else {
                continue;
            };
            self.registry.counter(name).add(total.saturating_sub(*prev));
            *prev = *total;
        }
        // The day's per-node distributions: diff today's cumulative
        // histograms against the previous day boundary, so each line
        // carries exactly the samples recorded above — a fleet-wide
        // distribution instead of a sum that hides stragglers.
        let snap = self.registry.snapshot();
        let day_dist = |name: &str| -> Value {
            let cur = snap.histogram(name);
            match (cur, self.day_base.as_ref().and_then(|b| b.histogram(name))) {
                (Some(c), Some(b)) => dist_value(Some(&c.diff(b))),
                _ => dist_value(cur),
            }
        };
        let line = Value::obj(vec![
            ("event", Value::str("day")),
            ("day", Value::Num(day as f64)),
            ("committed", Value::Num(totals.committed as f64)),
            ("rollbacks", Value::Num(totals.rollbacks as f64)),
            ("goodput_permille", day_dist("fleet.goodput_permille")),
            ("ontime_permille", day_dist("fleet.ontime_permille")),
            ("checkpoint_permille", day_dist("fleet.checkpoint_permille")),
            ("powered_nodes", Value::Num(powered as f64)),
            ("planned_regions", Value::Num(planned as f64)),
        ]);
        self.day_base = Some(snap);
        line
    }
}

/// Renders a histogram as a distribution object: sample count, the
/// observed extremes, the mean, and interpolated p50/p95. Every field
/// is a pure function of the recorded samples, so report lines built
/// from these stay byte-reproducible per seed.
fn dist_value(hist: Option<&HistogramSnapshot>) -> Value {
    let (count, min, max, mean, p50, p95) = match hist {
        Some(h) => (
            h.count,
            h.min,
            h.max,
            h.mean(),
            h.quantile(0.50),
            h.quantile(0.95),
        ),
        None => (0, 0, 0, 0.0, 0.0, 0.0),
    };
    Value::obj(vec![
        ("count", Value::Num(count as f64)),
        ("min", Value::Num(min as f64)),
        ("max", Value::Num(max as f64)),
        ("mean", Value::Num(mean)),
        ("p50", Value::Num(p50)),
        ("p95", Value::Num(p95)),
    ])
}

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    committed: u64,
    useful: f64,
    wasted: f64,
    checkpoint: f64,
    rollbacks: u64,
}

/// Walks one node from `node.t` to `to`: per weather epoch, constant
/// harvest; per phase, closed-form charge / run / brownout. Returns the
/// number of analytic segments processed (the bench's node-steps).
fn advance_node(
    node: &mut NodeState,
    model: &NodeModel,
    weather: &WeatherField,
    plan: Option<OperatingPoint>,
    to: f64,
    mut digest: Option<&mut CommitDigest>,
) -> u64 {
    const EPS: f64 = 1e-9;
    let mut steps = 0u64;
    let e_on = model.e_on();
    let e_off = model.e_off();
    let e_max = model.e_max();
    let epoch_s = weather.epoch_s();
    let schedule = &model.schedule;
    while node.t + EPS < to {
        let epoch = (node.t / epoch_s) as u32;
        let seg_end = ((epoch as f64 + 1.0) * epoch_s).min(to);
        let g = weather.irradiance(node.region, epoch);
        let p_h = model.p_harvest_full * g;
        // Phases within the piecewise-constant segment.
        while node.t + EPS < seg_end {
            steps += 1;
            let rem = seg_end - node.t;
            if !node.powered() {
                if p_h <= 0.0 {
                    // Dark and dead: nothing can happen this segment.
                    node.t = seg_end;
                    break;
                }
                // Flicker fast path: browned out under a plan that
                // outdraws this sky — charge/burst/die cycles batch.
                if let Some(p) = plan {
                    if p.p_active_w > p_h && node.energy == e_off {
                        let t_charge = (e_on - e_off) / p_h;
                        let t_burst = (e_on - e_off) / (p.p_active_w - p_h);
                        let cycle = t_charge + t_burst;
                        let k = (rem / cycle) as u64;
                        if k >= 2 {
                            let budget = p.frequency_hz * t_burst;
                            match digest.as_deref_mut() {
                                Some(d) => {
                                    let mut cb = |pos: u64| d.push(pos);
                                    node.execute_burst_cycles(schedule, budget, k, Some(&mut cb));
                                }
                                None => node.execute_burst_cycles(schedule, budget, k, None),
                            }
                            node.powered_s += k as f64 * t_burst;
                            node.t += k as f64 * cycle;
                            node.energy = e_off;
                            continue;
                        }
                    }
                }
                let deficit = e_on - node.energy;
                if deficit > 0.0 {
                    let t_on = deficit / p_h;
                    if t_on >= rem {
                        node.energy += p_h * rem;
                        node.t = seg_end;
                        break;
                    }
                    node.t += t_on;
                    node.energy = e_on;
                }
                node.set_powered(true);
                continue;
            }
            // Powered. Idle nodes just float up toward the rail.
            let Some(p) = plan else {
                node.energy = (node.energy + p_h * rem).min(e_max);
                node.powered_s += rem;
                node.t = seg_end;
                break;
            };
            let net = p_h - p.p_active_w;
            let run_for = if net >= 0.0 {
                rem
            } else {
                ((node.energy - e_off) / -net).min(rem)
            };
            if run_for > 0.0 {
                let budget = p.frequency_hz * run_for;
                match digest.as_deref_mut() {
                    Some(d) => {
                        let mut cb = |pos: u64| d.push(pos);
                        node.execute(schedule, budget, Some(&mut cb));
                    }
                    None => node.execute(schedule, budget, None),
                }
                node.powered_s += run_for;
                node.energy = (node.energy + net * run_for).min(e_max);
                node.t += run_for;
            }
            if run_for < rem {
                // Browned out mid-segment.
                node.rollback(schedule);
                node.set_powered(false);
                node.energy = e_off;
            } else {
                break;
            }
        }
        // The phase loop stops within EPS of the boundary; snap to it so
        // the outer loop always advances a full segment.
        node.t = seg_end;
    }
    node.t = to.max(node.t);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AnalyticPlans;

    fn tiny_config(seed: u64) -> FleetConfig {
        // Small on purpose: sampled nodes stream every committed
        // position through a digest, which dominates debug-build time.
        FleetConfig {
            nodes: 24,
            days: 1,
            grid_w: 8,
            grid_h: 8,
            storms_per_day: 1,
            sampled: 2,
            ..FleetConfig::new(seed, 24)
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_shapes() {
        assert!(FleetConfig::new(1, 100).validate().is_ok());
        assert!(FleetConfig::smoke(1).validate().is_ok());
        let mut c = FleetConfig::new(1, 0);
        assert!(c.validate().is_err());
        c = FleetConfig::new(1, 10);
        c.epoch_s = 7; // does not divide the day
        assert!(c.validate().is_err());
        c = FleetConfig::new(1, 10);
        c.wake_s = 10;
        assert!(c.validate().is_err());
        c = FleetConfig::new(1, 10);
        c.policy = CheckpointPolicy::OnLowVoltage {
            threshold: hems_units::Volts::new(0.8),
        };
        // Rejected at Fleet::new (the schedule refuses the policy).
        assert!(Fleet::new(c).is_err());
    }

    #[test]
    fn tiny_campaign_commits_and_is_seed_reproducible() {
        let run = |seed: u64| {
            let fleet = Fleet::new(tiny_config(seed)).expect("fleet");
            let mut source = AnalyticPlans::new();
            fleet.run(&mut source).expect("campaign")
        };
        let a = run(11);
        assert!(a.committed > 0, "the fleet must do work");
        assert_eq!(a.violations, 0, "{}", a.summary.render());
        assert!(a.node_steps > 0 && a.events > 0);
        let text_a = a.render_lines().expect("render");
        let b = run(11);
        assert_eq!(
            text_a,
            b.render_lines().expect("render"),
            "same seed, same bytes"
        );
        let c = run(12);
        assert_ne!(
            text_a,
            c.render_lines().expect("render"),
            "the seed reaches the weather"
        );
    }

    #[test]
    fn day_and_night_shape_the_fleet() {
        let fleet = Fleet::new(tiny_config(5)).expect("fleet");
        let mut source = AnalyticPlans::new();
        let report = fleet.run(&mut source).expect("campaign");
        // The summary embeds an obs snapshot whose counters agree with
        // the headline totals.
        let obs = report.summary.get("obs").expect("obs in summary");
        let series = obs.get("series").expect("series");
        let committed = series
            .get("fleet.committed")
            .and_then(|s| s.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or(-1.0);
        assert_eq!(committed, report.committed as f64);
        // Midnight day boundary: nothing is powered in the dark.
        let day_line = report
            .lines
            .iter()
            .find(|l| l.get("event").and_then(Value::as_str) == Some("day"))
            .expect("day line");
        let powered = day_line
            .get("powered_nodes")
            .and_then(Value::as_f64)
            .unwrap_or(-1.0);
        assert!(powered >= 0.0);
    }

    #[test]
    fn storm_checks_progress_through_regional_blackouts() {
        let mut config = tiny_config(23);
        config.days = 2;
        config.storms_per_day = 2;
        let fleet = Fleet::new(config).expect("fleet");
        let mut source = AnalyticPlans::new();
        let report = fleet.run(&mut source).expect("campaign");
        assert!(
            report.storms > 0,
            "seeded storms must land inside the horizon"
        );
        assert_eq!(report.violations, 0);
        assert_eq!(
            report.unrecovered(),
            0,
            "fleet must progress through every storm: {}",
            report.summary.render()
        );
    }
}
