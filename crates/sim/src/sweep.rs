//! Scenario-sweep engine.
//!
//! Figure regeneration and design-space exploration both reduce to the
//! same shape of work: take the paper's system, vary a few axes
//! (light level × storage capacitance × regulator topology × control
//! policy), run the transient integrator for each combination, and keep a
//! compact per-scenario summary. Scenarios are completely independent —
//! each owns its config, controller and light profile, and the integrator
//! is deterministic and shares nothing — so a sweep needs only an exact
//! path and a fast one:
//!
//! * [`run_scenario`] — the **exact reference**: one scenario on the
//!   calling thread through the exact device models. Every other path is
//!   measured against it.
//! * [`run_scenarios_chunked`] — the **exact list engine**: a scenario
//!   list fanned across a caller-owned [`WorkerPool`] in chunks, returned
//!   in list order and bit-identical to mapping [`run_scenario`] over the
//!   list, for any pool size and chunk width.
//! * [`run_batch`] / [`run_scenarios_batch`] — the **fast path**: table
//!   driven device models stepped in lockstep, within a documented
//!   transient tolerance of the exact reference
//!   ([`batch_tolerance_violation`]).
//!
//! # The batch engine
//!
//! [`run_batch`] / [`run_scenarios_batch`] trade the exact per-step device
//! models for table-driven ones and step compatible scenarios in lockstep:
//! scenarios are grouped by identical (cell, processor, timestep,
//! duration), each group gets one [`PvLut`]/[`CpuLut`] pair, and groups are
//! cut into [`BATCH_LANES`]-wide chunks whose pre-step node voltages are
//! gathered into one cache-line-sized slab and evaluated through a single
//! [`PvLut::power_at_many`] call per step (structure-of-arrays across
//! lanes). Results carry the LUT-parity contract (device quantities within
//! ≤ 0.1 % per step) rather than bitwise equality with [`run_scenario`],
//! but are bitwise deterministic for any thread count because the batch
//! kernels are lane-for-lane bit-identical to their scalar forms — a
//! lane's arithmetic cannot depend on which lanes share its slab. Groups
//! whose tables cannot be built (a dark cell has no power table) fall back
//! to the exact scalar path, result-for-result identical to
//! [`run_scenario`].
//!
//! ```no_run
//! use hems_sim::{sweep, SystemConfig};
//! use hems_pv::Irradiance;
//! use hems_units::{Seconds, Volts};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut grid = sweep::SweepGrid::paper_baseline()?;
//! grid.irradiances = vec![Irradiance::FULL_SUN, Irradiance::HALF_SUN];
//! let results = sweep::run_batch(&grid, sweep::default_threads())?;
//! for r in &results {
//!     println!("{}: {:?}", r.label, r.summary.as_ref().map(|s| s.completed_jobs));
//! }
//! # Ok(())
//! # }
//! ```

use crate::{
    Controller, DutyCycleController, FixedVoltageController, LightProfile, SimError, Simulation,
    SimulationSummary, SystemConfig, WorkerPool,
};
use hems_cpu::CpuLut;
use hems_pv::{Irradiance, PvLut};
use hems_regulator::{AnyRegulator, Regulator, RegulatorKind};
use hems_storage::Capacitor;
use hems_units::{Farads, Seconds, Volts, Watts};
use std::sync::LazyLock;

/// Standing telemetry handles on the process-global registry (DESIGN.md
/// §12). Resolved once; recording is a couple of relaxed atomic ops and
/// a no-op when `hems_obs::set_enabled(false)`.
mod obs {
    use super::LazyLock;
    use hems_obs::{global, Counter};

    /// Scenarios executed (any entry point, exact or batch).
    pub(super) static SCENARIOS: LazyLock<Counter> =
        LazyLock::new(|| global().counter("sweep.scenarios"));
    /// Scenarios whose summary came back as an error.
    pub(super) static SCENARIO_ERRORS: LazyLock<Counter> =
        LazyLock::new(|| global().counter("sweep.scenario_errors"));
}

/// A control policy as *data*: controllers are stateful and single-run, so
/// the grid carries constructible descriptions and each scenario builds a
/// fresh controller from its policy.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepPolicy {
    /// Regulate to a fixed supply voltage at a fixed clock fraction.
    FixedVoltage {
        /// The supply setpoint.
        vdd: Volts,
        /// Fraction of the maximum clock at that supply, in `(0, 1]`.
        clock_fraction: f64,
    },
    /// Comparator-driven duty cycling between a run and a stop threshold.
    DutyCycle {
        /// Resume work when the node charges above this.
        v_run: Volts,
        /// Stop and recharge when the node sags below this.
        v_stop: Volts,
        /// Supply voltage while running.
        vdd: Volts,
    },
}

impl SweepPolicy {
    /// The paper-typical fixed-voltage policy (0.55 V, full speed).
    pub fn paper_fixed() -> SweepPolicy {
        SweepPolicy::FixedVoltage {
            vdd: Volts::new(0.55),
            clock_fraction: 1.0,
        }
    }

    /// The paper-typical duty-cycling policy.
    pub fn paper_duty_cycle() -> SweepPolicy {
        SweepPolicy::DutyCycle {
            v_run: Volts::new(1.0),
            v_stop: Volts::new(0.8),
            vdd: Volts::new(0.55),
        }
    }

    /// Builds a fresh controller implementing this policy.
    fn build(&self) -> Box<dyn Controller> {
        match *self {
            SweepPolicy::FixedVoltage {
                vdd,
                clock_fraction,
            } => Box::new(FixedVoltageController::with_clock_fraction(
                vdd,
                clock_fraction,
            )),
            SweepPolicy::DutyCycle { v_run, v_stop, vdd } => {
                Box::new(DutyCycleController::new(v_run, v_stop, vdd))
            }
        }
    }

    /// A short human-readable tag (used in result labels and bench JSON).
    pub fn label(&self) -> String {
        match self {
            SweepPolicy::FixedVoltage {
                vdd,
                clock_fraction,
            } => format!("fixed({vdd}@{:.0}%)", clock_fraction * 100.0),
            SweepPolicy::DutyCycle { v_run, v_stop, .. } => {
                format!("duty({v_stop}..{v_run})")
            }
        }
    }
}

/// The sweep's axes plus the per-run settings shared by every scenario.
///
/// [`SweepGrid::scenarios`] expands the four axes as a row-major cartesian
/// product — irradiance outermost, then capacitance, regulator, policy —
/// which fixes the scenario indices and therefore the result order.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Template configuration; each scenario clones and overrides it.
    pub base: SystemConfig,
    /// Light levels (each scenario runs under constant light).
    pub irradiances: Vec<Irradiance>,
    /// Storage capacitances substituted into the base capacitor.
    pub capacitances: Vec<Farads>,
    /// Regulator topologies.
    pub regulators: Vec<AnyRegulator>,
    /// Control policies.
    pub policies: Vec<SweepPolicy>,
    /// Initial solar-node voltage.
    pub v_initial: Volts,
    /// Simulated duration per scenario.
    pub duration: Seconds,
}

impl SweepGrid {
    /// The paper's Fig. 10 system swept over a small default grid: three
    /// light levels, the board capacitor, SC vs LDO, both stock policies.
    ///
    /// # Errors
    ///
    /// Never fails for the reference parameters.
    pub fn paper_baseline() -> Result<SweepGrid, SimError> {
        let base = SystemConfig::paper_sc_system()?;
        let c0 = base.capacitor.capacitance();
        Ok(SweepGrid {
            base,
            irradiances: vec![
                Irradiance::FULL_SUN,
                Irradiance::HALF_SUN,
                Irradiance::QUARTER_SUN,
            ],
            capacitances: vec![c0],
            regulators: vec![
                AnyRegulator::from(hems_regulator::ScRegulator::paper_65nm()),
                AnyRegulator::from(hems_regulator::Ldo::paper_65nm()),
            ],
            policies: vec![SweepPolicy::paper_fixed(), SweepPolicy::paper_duty_cycle()],
            v_initial: Volts::new(1.1),
            duration: Seconds::from_milli(100.0),
        })
    }

    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        self.irradiances.len()
            * self.capacitances.len()
            * self.regulators.len()
            * self.policies.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into its scenario list (row-major, deterministic).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when a capacitance cannot be realized under the
    /// base capacitor's voltage rating.
    pub fn scenarios(&self) -> Result<Vec<Scenario>, SimError> {
        let mut out = Vec::with_capacity(self.len());
        for &g in &self.irradiances {
            for &c in &self.capacitances {
                let mut capacitor = Capacitor::new(c, self.base.capacitor.v_rating())
                    .map_err(|e| SimError::component("sweep capacitor", e))?;
                if let Some(r_leak) = self.base.capacitor.leakage_resistance() {
                    capacitor = capacitor
                        .with_leakage(r_leak)
                        .map_err(|e| SimError::component("sweep capacitor", e))?;
                }
                for regulator in &self.regulators {
                    for policy in &self.policies {
                        let mut config = self.base.clone();
                        config.cell.set_irradiance(g);
                        config.capacitor = capacitor.clone();
                        config.regulator = regulator.clone();
                        let index = out.len();
                        out.push(Scenario {
                            index,
                            label: format!(
                                "g={g} C={c} reg={} {}",
                                regulator.kind(),
                                policy.label()
                            ),
                            config,
                            policy: policy.clone(),
                            v_initial: self.v_initial,
                            duration: self.duration,
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Expands the grid exactly once into a reusable handle.
    ///
    /// [`SweepGrid::scenarios`] re-pays the full cartesian-product
    /// expansion — config clones, label formatting, capacitor
    /// construction — on every call. Callers that run the same grid
    /// repeatedly (the bench harness, the sweep service's batch path)
    /// expand once and borrow [`ExpandedGrid::scenarios`] per run instead.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepGrid::scenarios`].
    pub fn expanded(&self) -> Result<ExpandedGrid, SimError> {
        Ok(ExpandedGrid {
            scenarios: self.scenarios()?,
        })
    }
}

/// A [`SweepGrid`] expanded exactly once: borrow the scenario list any
/// number of times without re-paying the expansion cost per run.
#[derive(Debug, Clone)]
pub struct ExpandedGrid {
    scenarios: Vec<Scenario>,
}

impl ExpandedGrid {
    /// The expanded scenarios, in grid (row-major) order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when the grid expanded to nothing.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// One expanded grid point: everything a worker needs, owned.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the grid's row-major expansion (= result position).
    pub index: usize,
    /// Human-readable description of the grid point.
    pub label: String,
    /// The fully substituted system configuration.
    pub config: SystemConfig,
    /// The control policy to instantiate.
    pub policy: SweepPolicy,
    /// Initial solar-node voltage.
    pub v_initial: Volts,
    /// Simulated duration.
    pub duration: Seconds,
}

/// Per-scenario outcome. Infeasible scenarios (e.g. an initial voltage
/// above a small capacitor's rating) carry the error text instead of
/// aborting the whole sweep; errors are rendered to `String` so outcomes
/// stay `Clone + PartialEq` for the determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The scenario's grid index.
    pub index: usize,
    /// The scenario's label.
    pub label: String,
    /// The light level it ran under.
    pub irradiance: Irradiance,
    /// Its storage capacitance.
    pub capacitance: Farads,
    /// Its regulator topology.
    pub regulator: RegulatorKind,
    /// The end-of-run summary, or the error that prevented the run.
    pub summary: Result<SimulationSummary, String>,
}

/// The exact reference: runs one scenario to completion on the current
/// thread through the exact device models.
pub fn run_scenario(scenario: &Scenario) -> ScenarioResult {
    let _span = hems_obs::span!("sweep.scenario_ns");
    obs::SCENARIOS.inc();
    let irradiance = scenario.config.cell.irradiance();
    let capacitance = scenario.config.capacitor.capacitance();
    let regulator = scenario.config.regulator.kind();
    let light = LightProfile::constant(irradiance);
    let summary = Simulation::new(scenario.config.clone(), light, scenario.v_initial)
        .map(|mut sim| {
            let mut controller = scenario.policy.build();
            sim.run(controller.as_mut(), scenario.duration)
        })
        .map_err(|e| e.to_string());
    if summary.is_err() {
        obs::SCENARIO_ERRORS.inc();
    }
    ScenarioResult {
        index: scenario.index,
        label: scenario.label.clone(),
        irradiance,
        capacitance,
        regulator,
        summary,
    }
}

/// The exact list engine: runs an explicit scenario list through a
/// caller-owned [`WorkerPool`], handing each worker a whole chunk of up to
/// `lanes` scenarios per job instead of one scenario per job — the per-job
/// queue round-trip is paid once per chunk. Scenarios run through
/// [`run_scenario`], so the result is bit-identical to mapping it over the
/// list for any pool size and any `lanes ≥ 1` (`0` is treated as `1`);
/// jobs return in submission order, which is chunk order, which is list
/// order.
pub fn run_scenarios_chunked(
    scenarios: &[Scenario],
    pool: &WorkerPool,
    lanes: usize,
) -> Vec<ScenarioResult> {
    let lanes = lanes.max(1);
    let jobs: Vec<_> = scenarios
        .chunks(lanes)
        .map(|chunk| {
            let chunk: Vec<Scenario> = chunk.to_vec();
            move || chunk.iter().map(run_scenario).collect::<Vec<_>>()
        })
        .collect();
    pool.run_jobs(jobs).into_iter().flatten().collect()
}

/// Lanes per batch chunk: 8 `f64` slots fill one 64-byte cache line, so a
/// chunk's gathered voltage slab and its power slab each live on a single
/// line through the per-step gather → batch-evaluate → scatter loop.
pub const BATCH_LANES: usize = 8;

/// Scenarios per worker below which spawning another batch worker costs
/// more than it recovers: spawn-plus-join of one worker measures in the
/// tens of microseconds on the bench host while even the shortest grid
/// scenarios integrate hundreds of timesteps (~0.5 ms), so a worker must
/// amortize its spawn over at least this many scenarios to come out ahead.
pub const MIN_SCENARIOS_PER_WORKER: usize = 2;

/// The batch engine's adaptive cutover: clamps a requested worker count
/// so every worker has at least [`MIN_SCENARIOS_PER_WORKER`] scenarios,
/// degrading to 1 — chunks run inline, no pool spawned — when the list is
/// too small to split profitably. This keeps a multi-thread batch request
/// from ever running slower than the inline batch at small scenario counts.
fn effective_threads(requested: usize, n: usize) -> usize {
    requested.max(1).min((n / MIN_SCENARIOS_PER_WORKER).max(1))
}

/// Expands the grid and runs it through the SoA batch engine — the
/// grid-level twin of [`run_scenarios_batch`].
///
/// # Errors
///
/// Propagates grid-expansion failures; individual scenario failures are
/// embedded in their [`ScenarioResult`].
pub fn run_batch(grid: &SweepGrid, threads: usize) -> Result<Vec<ScenarioResult>, SimError> {
    let scenarios = {
        let _span = hems_obs::span!("sweep.expand_ns");
        grid.scenarios()?
    };
    Ok(run_scenarios_batch(&scenarios, threads))
}

/// Runs an explicit scenario list through the batch engine: grouped device
/// tables, [`BATCH_LANES`]-wide lockstep chunks, one batch PV evaluation
/// per chunk-step (see the module docs for the full contract). Chunks are
/// dispatched across a [`WorkerPool`] when `threads > 1` survives the
/// adaptive cutover, inline otherwise; either way the merge scatters
/// results by list position, so the output is bitwise identical for any
/// thread count.
///
/// Results track [`run_scenario`] under the LUT-parity contract (≤ 0.1 %
/// per-step device error) rather than bitwise, within the transient
/// tolerance [`batch_tolerance_violation`] checks; groups whose tables
/// cannot be built (e.g. dark cells) fall back to the exact scalar path
/// and *are* bitwise identical to it.
pub fn run_scenarios_batch(scenarios: &[Scenario], threads: usize) -> Vec<ScenarioResult> {
    let n = scenarios.len();
    if n == 0 {
        return Vec::new();
    }

    // Group list positions by device compatibility: lanes stepped in
    // lockstep share one PV table (and its gathered voltage slab) and one
    // CPU table, which requires identical cell, processor, timestep and
    // duration. Order within a group follows list order, so chunk
    // composition is a pure function of the input list.
    struct Group {
        rep: usize,
        positions: Vec<usize>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for (pos, s) in scenarios.iter().enumerate() {
        let found = groups.iter_mut().find(|g| {
            scenarios.get(g.rep).is_some_and(|r| {
                r.config.cell == s.config.cell
                    && r.config.cpu == s.config.cpu
                    && r.config.dt == s.config.dt
                    && r.duration == s.duration
            })
        });
        match found {
            Some(g) => g.positions.push(pos),
            None => groups.push(Group {
                rep: pos,
                positions: vec![pos],
            }),
        }
    }

    // One table pair per group, built once and shared by every chunk the
    // group splits into. A cell whose power table cannot be built (a dark
    // cell has no maximum power point) sends its whole group down the
    // exact scalar path instead — correctness never depends on the table.
    type ChunkJob = Box<dyn FnOnce() -> Vec<(usize, ScenarioResult)> + Send>;
    let mut jobs: Vec<ChunkJob> = Vec::new();
    for group in groups {
        let Some(rep) = scenarios.get(group.rep) else {
            continue;
        };
        let tables = PvLut::build_default(rep.config.cell.clone())
            .ok()
            .map(|pv| (pv, CpuLut::build_default(rep.config.cpu.clone())));
        for chunk in group.positions.chunks(BATCH_LANES) {
            let work: Vec<(usize, Scenario)> = chunk
                .iter()
                .filter_map(|&pos| scenarios.get(pos).map(|s| (pos, s.clone())))
                .collect();
            match &tables {
                Some((pv, cpu)) => {
                    let (pv, cpu) = (pv.clone(), cpu.clone());
                    jobs.push(Box::new(move || run_lut_chunk(work, pv, cpu)));
                }
                None => jobs.push(Box::new(move || {
                    work.iter()
                        .map(|(pos, s)| (*pos, run_scenario(s)))
                        .collect()
                })),
            }
        }
    }

    let threads = effective_threads(threads, n);
    let run_span = hems_obs::span!("sweep.run_ns");
    let pairs: Vec<(usize, ScenarioResult)> = if threads == 1 {
        jobs.into_iter().flat_map(|job| job()).collect()
    } else {
        let pool = WorkerPool::new(threads);
        pool.run_jobs(jobs).into_iter().flatten().collect()
    };
    run_span.finish();

    let _merge_span = hems_obs::span!("sweep.merge_ns");
    let mut slots: Vec<Option<ScenarioResult>> = vec![None; n];
    for (position, result) in pairs {
        if let Some(slot) = slots.get_mut(position) {
            debug_assert!(slot.is_none(), "scenario {position} ran twice");
            *slot = Some(result);
        }
    }
    let results: Vec<ScenarioResult> = slots.into_iter().flatten().collect();
    debug_assert_eq!(
        results.len(),
        n,
        "every scenario position produced a result"
    );
    results
}

/// Steps one lane chunk in lockstep through shared device tables.
///
/// Per step: gather every live lane's pre-step node voltage into a
/// stack-resident slab, evaluate the whole slab through one
/// [`PvLut::power_at_many`] call, then advance each lane with its slab
/// value via [`Simulation::step_with_harvest`]. The CPU table is installed
/// into each lane so `resolve` reads frequency and power from the table's
/// O(1) uniform-grid kernels instead of re-deriving the closed forms.
///
/// Lanes that fail to construct report their error exactly like the
/// scalar path and drop out of lockstep before it starts. All lanes share
/// one (duration, dt) pair by group construction, so they retire together.
fn run_lut_chunk(
    work: Vec<(usize, Scenario)>,
    pv: PvLut,
    cpu: CpuLut,
) -> Vec<(usize, ScenarioResult)> {
    let _span = hems_obs::span!("sweep.batch_chunk_ns");
    struct Lane {
        pos: usize,
        index: usize,
        label: String,
        irradiance: Irradiance,
        capacitance: Farads,
        regulator: RegulatorKind,
        sim: Simulation,
        controller: Box<dyn Controller>,
    }
    debug_assert!(work.len() <= BATCH_LANES, "chunk wider than its slabs");
    debug_assert!(
        work.first().is_none_or(|(_, f)| work
            .iter()
            .all(|(_, s)| s.duration == f.duration && s.config.dt == f.config.dt)),
        "chunk mixes durations or timesteps"
    );
    let steps = work
        .first()
        .map(|(_, s)| (s.duration.seconds() / s.config.dt.seconds()).round() as u64)
        .unwrap_or(0);
    let mut out: Vec<(usize, ScenarioResult)> = Vec::with_capacity(work.len());
    let mut lanes: Vec<Lane> = Vec::with_capacity(work.len());
    for (pos, scenario) in work {
        obs::SCENARIOS.inc();
        let irradiance = scenario.config.cell.irradiance();
        let capacitance = scenario.config.capacitor.capacitance();
        let regulator = scenario.config.regulator.kind();
        let light = LightProfile::constant(irradiance);
        let built = Simulation::new(scenario.config.clone(), light, scenario.v_initial).and_then(
            |mut sim| {
                sim.install_cpu_lut(cpu.clone())?;
                Ok(sim)
            },
        );
        match built {
            Ok(sim) => lanes.push(Lane {
                pos,
                index: scenario.index,
                label: scenario.label,
                irradiance,
                capacitance,
                regulator,
                sim,
                controller: scenario.policy.build(),
            }),
            Err(e) => {
                obs::SCENARIO_ERRORS.inc();
                out.push((
                    pos,
                    ScenarioResult {
                        index: scenario.index,
                        label: scenario.label,
                        irradiance,
                        capacitance,
                        regulator,
                        summary: Err(e.to_string()),
                    },
                ));
            }
        }
    }
    let live = lanes.len();
    let mut volts = [0.0_f64; BATCH_LANES];
    let mut watts = [0.0_f64; BATCH_LANES];
    for _ in 0..steps {
        for (v, lane) in volts.iter_mut().zip(&lanes) {
            *v = lane.sim.v_solar().volts();
        }
        pv.power_at_many(&volts[..live], &mut watts[..live]);
        for (lane, &p) in lanes.iter_mut().zip(&watts) {
            lane.sim
                .step_with_harvest(lane.controller.as_mut(), Watts::new(p));
        }
    }
    for lane in lanes {
        out.push((
            lane.pos,
            ScenarioResult {
                index: lane.index,
                label: lane.label,
                irradiance: lane.irradiance,
                capacitance: lane.capacitance,
                regulator: lane.regulator,
                summary: Ok(lane.sim.summary()),
            },
        ));
    }
    out
}

/// Checks a batch sweep against the exact reference over the same list
/// and returns the first violation of the batch engine's transient
/// tolerance, or `None` when every result is within it.
///
/// The per-step LUT error (≤ 0.1 %) integrates over a run but must not
/// change the transient's shape, so per scenario, when both summaries are
/// `Ok`:
///
/// | Quantity                  | Bound                                     |
/// |---------------------------|-------------------------------------------|
/// | `ledger.harvested`        | within 2 % of exact (floor 1 nJ)          |
/// | `ledger.delivered_to_cpu` | within 2 % of exact (floor 1 nJ)          |
/// | `final_v_solar`           | within 10 mV of exact                     |
/// | `brownouts`               | within ±1 of exact                        |
///
/// The relative bounds divide by `max(|exact|, 1 nJ)`, so a near-zero
/// exact ledger is held to an absolute 20 pJ instead. Both sides must
/// agree on feasibility (two errors pass without comparing their text),
/// and the lists must match in length, index and label position by
/// position.
pub fn batch_tolerance_violation(
    exact: &[ScenarioResult],
    batch: &[ScenarioResult],
) -> Option<String> {
    const LEDGER_REL: f64 = 2e-2;
    const LEDGER_FLOOR_J: f64 = 1e-9;
    const FINAL_V_MV: f64 = 10.0;
    const BROWNOUT_SLACK: i64 = 1;
    if exact.len() != batch.len() {
        return Some(format!(
            "batch returned {} results, exact {}",
            batch.len(),
            exact.len()
        ));
    }
    let rel = |b: f64, e: f64| (b - e).abs() / e.abs().max(LEDGER_FLOOR_J);
    let verdict = |r: &Result<SimulationSummary, String>| {
        if r.is_ok() {
            "feasible"
        } else {
            "infeasible"
        }
    };
    for (e, b) in exact.iter().zip(batch) {
        let label = &e.label;
        if (e.index, label) != (b.index, &b.label) {
            return Some(format!(
                "batch result {} '{}' sits where exact has {} '{label}'",
                b.index, b.label, e.index
            ));
        }
        let (es, bs) = match (&e.summary, &b.summary) {
            (Ok(es), Ok(bs)) => (es, bs),
            (Err(_), Err(_)) => continue,
            (es, bs) => {
                return Some(format!(
                    "{label}: batch feasibility {} vs exact {}",
                    verdict(bs),
                    verdict(es)
                ))
            }
        };
        if rel(bs.ledger.harvested.joules(), es.ledger.harvested.joules()) > LEDGER_REL {
            return Some(format!(
                "{label}: batch harvested {} vs exact {}",
                bs.ledger.harvested, es.ledger.harvested
            ));
        }
        if rel(
            bs.ledger.delivered_to_cpu.joules(),
            es.ledger.delivered_to_cpu.joules(),
        ) > LEDGER_REL
        {
            return Some(format!(
                "{label}: batch delivered {} vs exact {}",
                bs.ledger.delivered_to_cpu, es.ledger.delivered_to_cpu
            ));
        }
        if (bs.final_v_solar - es.final_v_solar).abs() > Volts::from_milli(FINAL_V_MV) {
            return Some(format!(
                "{label}: batch final_v {} vs exact {}",
                bs.final_v_solar, es.final_v_solar
            ));
        }
        if (bs.brownouts as i64 - es.brownouts as i64).abs() > BROWNOUT_SLACK {
            return Some(format!(
                "{label}: batch brownouts {} vs exact {}",
                bs.brownouts, es.brownouts
            ));
        }
    }
    None
}

/// Environment variable overriding the worker-thread count used when no
/// explicit count is supplied ([`default_threads`], `threads = None` in
/// [`resolved_threads`]). Non-numeric or zero values are ignored.
pub const THREADS_ENV: &str = "HEMS_THREADS";

/// Resolves a worker-thread count: an explicit request wins, then a valid
/// [`THREADS_ENV`] (`HEMS_THREADS`) override, then the machine's available
/// parallelism (1 when it cannot be queried). Never returns 0.
pub fn resolved_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    // hems-lint: allow(taint, reason = "worker-thread count cannot alter report bytes: chunked-vs-exact parity and batch thread-count determinism are differential-tested")
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The default worker-thread count: `HEMS_THREADS` when set and valid,
/// otherwise the machine's available parallelism (1 when it cannot be
/// queried).
pub fn default_threads() -> usize {
    resolved_threads(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        let mut grid = SweepGrid::paper_baseline().unwrap();
        // Keep the test fast: short runs, two light levels.
        grid.irradiances = vec![Irradiance::FULL_SUN, Irradiance::QUARTER_SUN];
        grid.duration = Seconds::from_milli(20.0);
        grid
    }

    /// The exact reference over a whole grid, in grid order.
    fn exact(grid: &SweepGrid) -> Vec<ScenarioResult> {
        grid.scenarios().unwrap().iter().map(run_scenario).collect()
    }

    #[test]
    fn grid_expansion_is_row_major_and_sized() {
        let grid = small_grid();
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), grid.len());
        // 2 irradiances x 1 regulator x 2 capacitances x 2 policies.
        assert_eq!(grid.len(), 8);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
        }
        // Policy is the innermost axis: consecutive scenarios differ in
        // policy first.
        assert_ne!(scenarios[0].policy, scenarios[1].policy);
        assert_eq!(
            scenarios[0].config.regulator.kind(),
            scenarios[1].config.regulator.kind()
        );
    }

    #[test]
    fn exact_sweep_produces_plausible_summaries() {
        let results = exact(&small_grid());
        assert_eq!(results.len(), 8);
        for r in &results {
            let summary = r.summary.as_ref().expect("baseline grid is feasible");
            assert!(summary.ledger.total_time.is_positive(), "{}", r.label);
        }
        // Full sun delivers more CPU energy than quarter sun under the
        // same (first) regulator+policy.
        let full = results[0].summary.as_ref().unwrap();
        let quarter = results[4].summary.as_ref().unwrap();
        assert!(full.ledger.delivered_to_cpu > quarter.ledger.delivered_to_cpu);
    }

    #[test]
    fn chunked_is_bit_identical_to_exact_for_any_pool_and_lane_width() {
        let scenarios = small_grid().scenarios().unwrap();
        let reference: Vec<_> = scenarios.iter().map(run_scenario).collect();
        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            for lanes in [0, 1, 3, 8, 64] {
                assert_eq!(
                    reference,
                    run_scenarios_chunked(&scenarios, &pool, lanes),
                    "threads {threads}, lanes {lanes}"
                );
            }
            assert_eq!(
                reference[..1],
                run_scenarios_chunked(&scenarios[..1], &pool, 8)[..],
                "single scenario, threads {threads}"
            );
            assert!(run_scenarios_chunked(&[], &pool, 8).is_empty());
        }
    }

    #[test]
    fn infeasible_scenarios_carry_errors_not_aborts() {
        let mut grid = small_grid();
        // Initial voltage above the capacitor rating: Simulation::new fails.
        grid.v_initial = Volts::new(5.0);
        let results = exact(&grid);
        assert!(results.iter().all(|r| r.summary.is_err()));
        // And the chunked engine reports the identical errors.
        let scenarios = grid.scenarios().unwrap();
        let pool = WorkerPool::new(2);
        assert_eq!(results, run_scenarios_chunked(&scenarios, &pool, 3));
    }

    #[test]
    fn empty_axis_yields_empty_sweep() {
        let mut grid = small_grid();
        grid.policies.clear();
        assert!(grid.is_empty());
        assert!(run_batch(&grid, 4).unwrap().is_empty());
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped() {
        let mut grid = small_grid();
        grid.irradiances.truncate(1);
        grid.policies.truncate(1);
        grid.regulators.truncate(1); // 1 scenario
        let results = run_batch(&grid, 64).unwrap();
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn expanded_grid_matches_per_call_expansion() {
        let grid = small_grid();
        let once = grid.expanded().unwrap();
        let per_call = grid.scenarios().unwrap();
        assert_eq!(once.len(), per_call.len());
        assert!(!once.is_empty());
        for (a, b) in once.scenarios().iter().zip(&per_call) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.label, b.label);
            assert_eq!(a.config, b.config);
        }
    }

    #[test]
    fn batch_cutover_engages_below_the_amortization_floor() {
        assert_eq!(effective_threads(8, 0), 1);
        assert_eq!(effective_threads(8, 1), 1);
        assert_eq!(
            effective_threads(8, 3),
            1,
            "3 scenarios cannot amortize a spawn"
        );
        assert_eq!(
            effective_threads(8, 8),
            4,
            "clamped to n / MIN_SCENARIOS_PER_WORKER"
        );
        assert_eq!(
            effective_threads(2, 100),
            2,
            "ample work leaves the request alone"
        );
        assert_eq!(effective_threads(0, 100), 1, "zero is clamped up");
    }

    #[test]
    fn batch_is_bitwise_deterministic_across_thread_counts() {
        let grid = small_grid();
        let one = run_batch(&grid, 1).unwrap();
        assert_eq!(one.len(), grid.len());
        for threads in [2, 3, 8] {
            assert_eq!(one, run_batch(&grid, threads).unwrap(), "threads {threads}");
        }
        assert!(run_scenarios_batch(&[], 4).is_empty());
    }

    #[test]
    fn batch_tracks_the_exact_sweep_within_transient_tolerance() {
        let grid = small_grid();
        let reference = exact(&grid);
        let batch = run_batch(&grid, 1).unwrap();
        assert!(batch.iter().all(|r| r.summary.is_ok()));
        assert_eq!(batch_tolerance_violation(&reference, &batch), None);
    }

    #[test]
    fn tolerance_check_reports_the_first_violation() {
        let reference = exact(&small_grid());
        assert_eq!(batch_tolerance_violation(&reference, &reference), None);
        assert!(batch_tolerance_violation(&reference, &reference[1..])
            .is_some_and(|v| v.contains("results")));

        let mut skewed = reference.clone();
        if let Ok(s) = skewed[2].summary.as_mut() {
            s.ledger.harvested *= 1.05;
        }
        let violation = batch_tolerance_violation(&reference, &skewed).unwrap();
        assert!(violation.contains(&reference[2].label), "{violation}");
        assert!(violation.contains("harvested"), "{violation}");

        let mut late = reference.clone();
        if let Ok(s) = late[5].summary.as_mut() {
            s.final_v_solar += Volts::from_milli(11.0);
        }
        let violation = batch_tolerance_violation(&reference, &late).unwrap();
        assert!(violation.contains("final_v"), "{violation}");

        let mut infeasible = reference.clone();
        infeasible[0].summary = Err("dark".into());
        assert!(batch_tolerance_violation(&reference, &infeasible)
            .is_some_and(|v| v.contains("feasibility")));
    }

    #[test]
    fn batch_dark_groups_fall_back_to_the_exact_path() {
        let mut grid = small_grid();
        grid.irradiances = vec![Irradiance::DARK];
        let reference = exact(&grid);
        assert!(!reference.is_empty());
        for threads in [1, 4] {
            assert_eq!(
                reference,
                run_batch(&grid, threads).unwrap(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn batch_infeasible_scenarios_carry_errors_not_aborts() {
        let mut grid = small_grid();
        // Initial voltage above the capacitor rating: Simulation::new fails
        // inside the lane-construction loop, and the lane's error result is
        // byte-for-byte the scalar path's.
        grid.v_initial = Volts::new(5.0);
        let results = run_batch(&grid, 2).unwrap();
        assert!(results.iter().all(|r| r.summary.is_err()));
        assert_eq!(results, exact(&grid));
    }

    #[test]
    fn explicit_thread_request_beats_everything() {
        assert_eq!(resolved_threads(Some(3)), 3);
        assert_eq!(resolved_threads(Some(0)), 1, "zero is clamped up");
    }

    #[test]
    fn env_override_is_honoured_and_validated() {
        // Serialized in this one test: env mutation is process-global.
        std::env::set_var(THREADS_ENV, "5");
        assert_eq!(resolved_threads(None), 5);
        assert_eq!(default_threads(), 5);
        assert_eq!(resolved_threads(Some(2)), 2, "explicit request wins");
        std::env::set_var(THREADS_ENV, "0");
        assert!(resolved_threads(None) >= 1, "invalid values fall through");
        std::env::set_var(THREADS_ENV, "not a number");
        assert!(resolved_threads(None) >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(resolved_threads(None) >= 1);
    }
}
