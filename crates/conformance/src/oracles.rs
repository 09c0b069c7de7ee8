//! The differential oracles: independent implementations of one
//! contract, pitted against each other on seeded inputs.
//!
//! Each oracle takes a [`CaseInput`] and returns `Ok(None)` (agreement),
//! `Ok(Some(Divergence))` (the implementations disagree — this is
//! *data*, the shrinker's raw material), or `Err` (the harness itself
//! could not run, e.g. a loopback server failed to bind — never
//! attributed to the system under test).
//!
//! | Oracle          | Left side                  | Right side                     | Contract |
//! |-----------------|----------------------------|--------------------------------|----------|
//! | `solver_lut`    | exact `SolarCell`/`Microprocessor` solvers | `PvLut`/`CpuLut` solvers | ≤ 0.5 % rel, vdd ≤ 30 mV |
//! | `batch_kernels` | scalar device evaluations  | `_many` slab kernels + `sweep_betas` | bit-identical |
//! | `sweep_engines` | exact `run_scenario`       | chunked / batch engines        | bit-identical (batch: transient tolerance, DESIGN §13) |
//! | `serve_threads` | 1-thread serve             | 4-thread serve                 | byte-identical results |
//! | `serve_sharded` | bare serve                 | router over 1 / 3 shard(s)     | byte-identical results |
//! | `json_frames`   | codec on torn frames       | itself (round-trip)            | no panic; render idempotent |
//! | `fleet_runtime` | `NodeState` replay         | `IntermittentRuntime::run_observed` | same commit stream |
//! | `physics`       | transient simulator        | conservation laws              | invariants hold; runs reproduce |
//! | `controller_crossover` | closed-loop `HolisticController` | `BypassPolicy::for_topology` | same path outside the guard band; cycles rise with light |
//!
//! A hidden tenth oracle, `planted`, fails whenever a spec sits in the
//! dark band — the known divergence the shrinker self-test minimizes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hems_core::cachekey::KeyHasher;
use hems_core::{frontier, mep, operating_point, optimal_voltage};
use hems_core::{BypassPolicy, HolisticController, Mode};
use hems_core::{CpuEvalBatch, PvSource as _, PvSourceBatch, SprintPlan};
use hems_cpu::{CpuLut, Microprocessor};
use hems_fleet::{NodeState, Schedule};
use hems_intermittent::{CheckpointPolicy, CommitEvent, IntermittentRuntime, NvmModel, TaskChain};
use hems_pv::{Irradiance, PvLut, SolarCell};
use hems_regulator::Regulator as _;
use hems_router::RouterHandle;
use hems_serve::planner::{self, PlanJob};
use hems_serve::server::{serve, ServeConfig, ServerHandle};
use hems_serve::{json, Client, ClientError, QueryKind, Request, RetryPolicy, ScenarioSpec};
use hems_sim::sweep::{
    batch_tolerance_violation, run_scenario, run_scenarios_batch, run_scenarios_chunked,
};
use hems_sim::{
    ControlDecision, Controller, FixedVoltageController, LightProfile, PowerPath, Simulation,
    SystemConfig, SystemView, WorkerPool,
};
use hems_storage::Capacitor;
use hems_units::{Seconds, Volts, Watts, XorShiftRng};

use crate::case::CaseInput;
use crate::error::ConformanceError;

/// Two paths disagreed. Carried as data — not an error — so the
/// shrinker can re-run candidates and keep the freshest detail.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The oracle that observed the disagreement.
    pub oracle: OracleKind,
    /// Human-readable account: which quantity, both values.
    pub detail: String,
}

/// The oracle selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Exact solvers vs their LUT-backed counterparts.
    SolverLut,
    /// Scalar device evaluations vs `_many` batch kernels.
    BatchKernels,
    /// Exact per-scenario reference vs the chunked and batch sweep engines.
    SweepEngines,
    /// Single- vs multi-threaded serve answers, byte for byte.
    ServeThreads,
    /// Bare serve vs router-fronted shard sets (1 and 3 backends).
    ServeSharded,
    /// NDJSON codec under torn/spliced/bit-flipped frames.
    JsonFrames,
    /// Fleet node state machine vs the intermittent runtime.
    FleetRuntime,
    /// Conservation laws and reproducibility of the transient simulator.
    Physics,
    /// The closed-loop controller's power path against the §IV-B policy.
    ControllerCrossover,
    /// Self-test scaffolding: "fails" on any dark-band spec, so the
    /// shrinker has a known divergence to minimize.
    Planted,
}

impl OracleKind {
    /// The nine real oracles, in fuzzing order. `Planted` is excluded:
    /// it exists only for the shrinker self-test.
    pub fn all() -> [OracleKind; 9] {
        [
            OracleKind::SolverLut,
            OracleKind::BatchKernels,
            OracleKind::SweepEngines,
            OracleKind::ServeThreads,
            OracleKind::ServeSharded,
            OracleKind::JsonFrames,
            OracleKind::FleetRuntime,
            OracleKind::Physics,
            OracleKind::ControllerCrossover,
        ]
    }

    /// Stable wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::SolverLut => "solver_lut",
            OracleKind::BatchKernels => "batch_kernels",
            OracleKind::SweepEngines => "sweep_engines",
            OracleKind::ServeThreads => "serve_threads",
            OracleKind::ServeSharded => "serve_sharded",
            OracleKind::JsonFrames => "json_frames",
            OracleKind::FleetRuntime => "fleet_runtime",
            OracleKind::Physics => "physics",
            OracleKind::ControllerCrossover => "controller_crossover",
            OracleKind::Planted => "planted",
        }
    }

    /// Parses [`OracleKind::name`] back; `planted` included so its
    /// repro lines replay like any other.
    pub fn from_name(name: &str) -> Option<OracleKind> {
        Some(match name {
            "solver_lut" => OracleKind::SolverLut,
            "batch_kernels" => OracleKind::BatchKernels,
            "sweep_engines" => OracleKind::SweepEngines,
            "serve_threads" => OracleKind::ServeThreads,
            "serve_sharded" => OracleKind::ServeSharded,
            "json_frames" => OracleKind::JsonFrames,
            "fleet_runtime" => OracleKind::FleetRuntime,
            "physics" => OracleKind::Physics,
            "controller_crossover" => OracleKind::ControllerCrossover,
            "planted" => OracleKind::Planted,
            _ => return None,
        })
    }
}

impl std::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared, lazily-started infrastructure the oracles run against: one
/// worker pool for the chunked engine and two loopback serve processes
/// (1 worker thread vs 4) for the threading oracle. Reused across all
/// cases of a fuzz run so per-case cost stays at request level.
pub struct OracleCtx {
    pool: WorkerPool,
    single: Option<(ServerHandle, Client)>,
    pooled: Option<(ServerHandle, Client)>,
    sharded: Option<ShardedTiers>,
}

/// Router-fronted loopback tiers for the sharding oracle: the same
/// shard-aware backends behind a 1-slot and a 3-slot consistent-hash
/// router, with identity verification on so the handshake path is in
/// the fuzzed surface. Declaration order matters: routers drop (and
/// shut down) before the backends they front.
struct ShardedTiers {
    one_router: RouterHandle,
    three_router: RouterHandle,
    one_client: Client,
    three_client: Client,
    one_backends: Vec<ServerHandle>,
    three_backends: Vec<ServerHandle>,
}

fn start_tier(
    shards: usize,
) -> Result<(Vec<ServerHandle>, RouterHandle, Client), ConformanceError> {
    let mut backends = Vec::with_capacity(shards);
    for shard in 0..shards {
        let config = ServeConfig {
            threads: Some(1),
            cache_capacity: 512,
            max_queue: 256,
            shard_id: Some(shard as u64),
            ..ServeConfig::default()
        };
        backends.push(
            serve("127.0.0.1:0", config)
                .map_err(|e| ConformanceError::new("sharded loopback", e.to_string()))?,
        );
    }
    let router = hems_router::route(
        "127.0.0.1:0",
        hems_router::RouterConfig {
            backends: backends.iter().map(ServerHandle::addr).collect(),
            verify_shard_ids: true,
            ..hems_router::RouterConfig::default()
        },
    )
    .map_err(|e| ConformanceError::new("sharded loopback", e.to_string()))?;
    let client = Client::new(router.addr(), RetryPolicy::default());
    Ok((backends, router, client))
}

impl OracleCtx {
    /// A fresh context; servers start on first use.
    pub fn new() -> OracleCtx {
        OracleCtx {
            pool: WorkerPool::new(2),
            single: None,
            pooled: None,
            sharded: None,
        }
    }

    fn clients(&mut self) -> Result<(&mut Client, &mut Client), ConformanceError> {
        if self.single.is_none() {
            self.single = Some(start_server(1)?);
        }
        if self.pooled.is_none() {
            self.pooled = Some(start_server(4)?);
        }
        match (self.single.as_mut(), self.pooled.as_mut()) {
            (Some(a), Some(b)) => Ok((&mut a.1, &mut b.1)),
            _ => Err(ConformanceError::new(
                "serve loopback",
                "server startup raced shutdown",
            )),
        }
    }

    /// `(direct, routed-over-1, routed-over-3)` clients for the
    /// sharding oracle; the direct side reuses the single-thread serve.
    fn sharded_trio(
        &mut self,
    ) -> Result<(&mut Client, &mut Client, &mut Client), ConformanceError> {
        if self.single.is_none() {
            self.single = Some(start_server(1)?);
        }
        if self.sharded.is_none() {
            let (one_backends, one_router, one_client) = start_tier(1)?;
            let (three_backends, three_router, three_client) = start_tier(3)?;
            self.sharded = Some(ShardedTiers {
                one_router,
                three_router,
                one_client,
                three_client,
                one_backends,
                three_backends,
            });
        }
        match (self.single.as_mut(), self.sharded.as_mut()) {
            (Some(direct), Some(tiers)) => Ok((
                &mut direct.1,
                &mut tiers.one_client,
                &mut tiers.three_client,
            )),
            _ => Err(ConformanceError::new(
                "sharded loopback",
                "tier startup raced shutdown",
            )),
        }
    }
}

impl Default for OracleCtx {
    fn default() -> Self {
        OracleCtx::new()
    }
}

impl Drop for OracleCtx {
    fn drop(&mut self) {
        if let Some((mut handle, _)) = self.single.take() {
            handle.shutdown();
        }
        if let Some((mut handle, _)) = self.pooled.take() {
            handle.shutdown();
        }
        if let Some(mut tiers) = self.sharded.take() {
            tiers.one_router.shutdown();
            tiers.three_router.shutdown();
            for backend in &mut tiers.one_backends {
                backend.shutdown();
            }
            for backend in &mut tiers.three_backends {
                backend.shutdown();
            }
        }
    }
}

fn start_server(threads: usize) -> Result<(ServerHandle, Client), ConformanceError> {
    let config = ServeConfig {
        threads: Some(threads),
        cache_capacity: 512,
        max_queue: 256,
        ..ServeConfig::default()
    };
    let handle = serve("127.0.0.1:0", config)
        .map_err(|e| ConformanceError::new("serve loopback", e.to_string()))?;
    let client = Client::new(handle.addr(), RetryPolicy::default());
    Ok((handle, client))
}

/// Runs one oracle on one input.
///
/// # Errors
///
/// Only for harness failures (server startup, client attempt budget);
/// disagreements come back as `Ok(Some(_))`.
pub fn run(
    kind: OracleKind,
    input: &CaseInput,
    ctx: &mut OracleCtx,
) -> Result<Option<Divergence>, ConformanceError> {
    match kind {
        OracleKind::SolverLut => Ok(solver_lut(input)),
        OracleKind::BatchKernels => Ok(batch_kernels(input)),
        OracleKind::SweepEngines => Ok(sweep_engines(input, &ctx.pool)),
        OracleKind::ServeThreads => serve_threads(input, ctx),
        OracleKind::ServeSharded => serve_sharded(input, ctx),
        OracleKind::JsonFrames => Ok(json_frames(input)),
        OracleKind::FleetRuntime => Ok(fleet_runtime(input)),
        OracleKind::Physics => Ok(physics(input)),
        OracleKind::ControllerCrossover => Ok(controller_crossover(input)),
        OracleKind::Planted => Ok(planted(input)),
    }
}

fn diverged(oracle: OracleKind, detail: String) -> Option<Divergence> {
    Some(Divergence { oracle, detail })
}

/// Relative error with a floor on the denominator, as the LUT parity
/// suites define it.
fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

// ---------------------------------------------------------------------
// Oracle 1: exact solvers vs LUT-backed solvers
// ---------------------------------------------------------------------

/// Fuzz-wide LUT parity tolerance. The per-point device contract is
/// ≤ 0.1 %; optimizers sitting on that surface can amplify it near
/// plateaus and efficiency cliffs, so the end-to-end plan tolerance is
/// 0.5 % relative (30 mV on chosen voltages, which step in ~5 mV grid
/// increments anyway).
const PLAN_TOL: f64 = 5e-3;
/// Voltage agreement for chosen operating points, volts.
const VDD_TOL: f64 = 0.03;

fn solver_lut(input: &CaseInput) -> Option<Divergence> {
    let kind = OracleKind::SolverLut;
    for (si, spec) in input.specs.iter().enumerate() {
        let Ok((config, _)) = spec.build() else {
            continue; // invalid spec: nothing to differentiate
        };
        let cell = config.cell.clone();
        let cpu = config.cpu.clone();
        let Ok(pv_lut) = PvLut::build_default(cell.clone()) else {
            continue; // dark cell: no table to build, fallback paths own this
        };
        let cpu_lut = CpuLut::build_default(cpu.clone());
        let reg = &config.regulator;
        // Near the dark band the *feasibility* verdict itself may flip
        // between exact and LUT (both are within tolerance of the same
        // boundary); a one-sided error there is a documented skip.
        let boundary = spec.irradiance < 0.35;

        // Eqs. 1–4: the holistic regulated plan.
        match (
            optimal_voltage::optimal_regulated_plan(&cell, reg, &cpu),
            optimal_voltage::optimal_regulated_plan(&pv_lut, reg, &cpu_lut),
        ) {
            (Ok(a), Ok(b)) => {
                if (a.vdd - b.vdd).abs() > Volts::new(VDD_TOL) {
                    return diverged(
                        kind,
                        format!("spec {si} plan vdd: exact {} vs lut {}", a.vdd, b.vdd),
                    );
                }
                if rel_err(a.p_cpu.watts(), b.p_cpu.watts()) > PLAN_TOL {
                    return diverged(
                        kind,
                        format!("spec {si} plan p_cpu: exact {} vs lut {}", a.p_cpu, b.p_cpu),
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => {
                if !boundary {
                    return diverged(
                        kind,
                        format!(
                            "spec {si} plan feasibility: exact {} vs lut {}",
                            verdict(&a),
                            verdict(&b)
                        ),
                    );
                }
            }
        }

        // Fig. 5: the unregulated settling point.
        match (
            operating_point::unregulated_point(&cell, &cpu),
            operating_point::unregulated_point(&pv_lut, &cpu_lut),
        ) {
            (Ok(a), Ok(b)) => {
                if (a.vdd - b.vdd).abs() > Volts::new(VDD_TOL)
                    || rel_err(a.power.watts(), b.power.watts()) > PLAN_TOL
                {
                    return diverged(
                        kind,
                        format!(
                            "spec {si} unregulated point: exact ({}, {}) vs lut ({}, {})",
                            a.vdd, a.power, b.vdd, b.power
                        ),
                    );
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => {
                if !boundary {
                    return diverged(
                        kind,
                        format!(
                            "spec {si} unregulated feasibility: exact {} vs lut {}",
                            verdict(&a),
                            verdict(&b)
                        ),
                    );
                }
            }
        }

        // Eq. 5: the system MEP at the exact MPP rail. Both sides see
        // the identical rail, so feasibility must agree regardless of
        // light level.
        if let Ok(mpp) = cell.source_mpp() {
            match (
                mep::system_mep(&cpu, reg, mpp.voltage),
                mep::system_mep(&cpu_lut, reg, mpp.voltage),
            ) {
                (Ok(a), Ok(b)) => {
                    if (a.vdd - b.vdd).abs() > Volts::new(VDD_TOL)
                        || rel_err(a.energy_per_cycle.joules(), b.energy_per_cycle.joules())
                            > PLAN_TOL
                    {
                        return diverged(
                            kind,
                            format!(
                                "spec {si} mep: exact ({}, {}) vs lut ({}, {})",
                                a.vdd, a.energy_per_cycle, b.vdd, b.energy_per_cycle
                            ),
                        );
                    }
                }
                (Err(_), Err(_)) => {}
                (a, b) => {
                    return diverged(
                        kind,
                        format!(
                            "spec {si} mep feasibility: exact {} vs lut {}",
                            verdict(&a),
                            verdict(&b)
                        ),
                    );
                }
            }
        }

        // The sustainable frontier. The vdd grids are computed from the
        // same processor window on both sides, hence bit-identical;
        // points are matched by exact vdd bits, with at most two
        // boundary points allowed to appear on one side only (the
        // omitted-infeasible-point contract at the feasibility edge).
        let n = input.grid_n.max(2);
        match (
            frontier::sustainable_frontier(&cell, reg, &cpu, n),
            frontier::sustainable_frontier(&pv_lut, reg, &cpu_lut, n),
        ) {
            (Ok(a), Ok(b)) => {
                if let Some(detail) = frontier_diff(si, &a, &b) {
                    return diverged(kind, detail);
                }
            }
            (Err(_), Err(_)) => {}
            (a, b) => {
                if !boundary {
                    return diverged(
                        kind,
                        format!(
                            "spec {si} frontier feasibility: exact {} vs lut {}",
                            verdict(&a),
                            verdict(&b)
                        ),
                    );
                }
            }
        }
    }
    None
}

fn verdict<T, E>(r: &Result<T, E>) -> &'static str {
    match r {
        Ok(_) => "feasible",
        Err(_) => "infeasible",
    }
}

fn frontier_diff(
    si: usize,
    exact: &[frontier::FrontierPoint],
    lut: &[frontier::FrontierPoint],
) -> Option<String> {
    let mut unmatched = 0usize;
    let mut bi = lut.iter().peekable();
    for a in exact {
        // Both lists are ascending in vdd over the same grid; advance
        // the LUT cursor past grid points the exact side omitted.
        while bi
            .peek()
            .is_some_and(|b| b.vdd.volts().to_bits() < a.vdd.volts().to_bits())
        {
            bi.next();
            unmatched += 1;
        }
        match bi.peek() {
            Some(b) if b.vdd.volts().to_bits() == a.vdd.volts().to_bits() => {
                if rel_err(a.frequency.hertz(), b.frequency.hertz()) > 2.0 * PLAN_TOL
                    || rel_err(a.p_cpu.watts(), b.p_cpu.watts()) > 2.0 * PLAN_TOL
                {
                    return Some(format!(
                        "spec {si} frontier at {}: exact ({}, {}) vs lut ({}, {})",
                        a.vdd, a.frequency, a.p_cpu, b.frequency, b.p_cpu
                    ));
                }
                bi.next();
            }
            _ => unmatched += 1,
        }
    }
    unmatched += bi.count();
    if unmatched > 2 {
        return Some(format!(
            "spec {si} frontier membership: {unmatched} unmatched points \
             (exact {} vs lut {})",
            exact.len(),
            lut.len()
        ));
    }
    None
}

// ---------------------------------------------------------------------
// Oracle 2: scalar evaluations vs `_many` batch kernels
// ---------------------------------------------------------------------

fn batch_kernels(input: &CaseInput) -> Option<Divergence> {
    let kind = OracleKind::BatchKernels;
    let spec = input
        .specs
        .first()
        .cloned()
        .unwrap_or_else(|| ScenarioSpec::baseline(0.5));
    let g = spec.irradiance.clamp(0.0, 2.0);
    let Ok(irradiance) = Irradiance::new(g) else {
        return None; // clamp keeps this unreachable; stay total
    };
    let cell = SolarCell::kxob22(irradiance);
    let cpu = Microprocessor::paper_65nm();
    let cpu_lut = CpuLut::build_default(cpu.clone());

    // Evaluation slabs: unsorted (scalar-path parity) and sorted
    // (monotone-cursor fast-path parity), both seeded off the case.
    let n = input.grid_n * 4 + 5;
    let mut rng = XorShiftRng::seed_from_u64(input.light_seed);
    let volts: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1.7)).collect();
    let freqs: Vec<f64> = (0..n).map(|_| rng.range_f64(1e5, 1e9)).collect();
    let mut sorted = volts.clone();
    sorted.sort_unstable_by(f64::total_cmp);

    for slab in [&volts, &sorted] {
        if let Some(d) = pv_bits_diff("SolarCell", &cell, slab) {
            return diverged(kind, d);
        }
        if let Ok(pv_lut) = PvLut::build_default(cell.clone()) {
            if let Some(d) = pv_bits_diff("PvLut", &pv_lut, slab) {
                return diverged(kind, d);
            }
        }
        if let Some(d) = cpu_bits_diff("Microprocessor", &cpu, slab, &freqs) {
            return diverged(kind, d);
        }
        if let Some(d) = cpu_bits_diff("CpuLut", &cpu_lut, slab, &freqs) {
            return diverged(kind, d);
        }
    }

    // Sprint beta sweep: every lane of the lockstep SoA transient must
    // be bit-identical to running that beta alone.
    let beta_seed = input
        .script
        .first()
        .map(|s| s.clock_fraction * 0.9)
        .unwrap_or(0.2);
    let betas = [0.0, 0.15, beta_seed.clamp(0.0, 0.95)];
    let mut capacitor = Capacitor::paper_board();
    if capacitor.set_voltage(Volts::new(1.2)).is_err() {
        return None;
    }
    let duration = Seconds::from_milli(input.duration_ms.min(10.0));
    let p_nominal = Watts::from_milli(6.0);
    let dt = Seconds::from_micro(20.0);
    let swept = SprintPlan::sweep_betas(&betas, duration, p_nominal, &cell, &capacitor, dt);
    match swept {
        Ok(lanes) => {
            for (beta, lane) in betas.iter().zip(lanes.iter()) {
                let Ok(plan) = SprintPlan::new(*beta, duration, p_nominal) else {
                    return diverged(
                        kind,
                        format!("sweep_betas accepted beta {beta} but solo plan rejects it"),
                    );
                };
                let solo = plan.compare_against_constant(&cell, &capacitor, dt);
                let pairs = [
                    (
                        "e_solar_constant",
                        lane.e_solar_constant.joules(),
                        solo.e_solar_constant.joules(),
                    ),
                    (
                        "e_solar_sprint",
                        lane.e_solar_sprint.joules(),
                        solo.e_solar_sprint.joules(),
                    ),
                    (
                        "v_end_constant",
                        lane.v_end_constant.volts(),
                        solo.v_end_constant.volts(),
                    ),
                    (
                        "v_end_sprint",
                        lane.v_end_sprint.volts(),
                        solo.v_end_sprint.volts(),
                    ),
                ];
                for (name, swept_v, solo_v) in pairs {
                    if swept_v.to_bits() != solo_v.to_bits() {
                        return diverged(
                            kind,
                            format!(
                                "sweep_betas beta {beta} {name}: lane {swept_v} \
                                 vs solo {solo_v}"
                            ),
                        );
                    }
                }
            }
        }
        Err(e) => {
            return diverged(kind, format!("sweep_betas rejected valid betas: {e}"));
        }
    }
    None
}

fn pv_bits_diff(label: &str, src: &impl PvSourceBatch, volts: &[f64]) -> Option<String> {
    let mut out = vec![0.0; volts.len()];
    src.source_power_many(volts, &mut out);
    for (i, (v, got)) in volts.iter().zip(out.iter()).enumerate() {
        let want = src.source_power(Volts::new(*v)).watts();
        if want.to_bits() != got.to_bits() {
            return Some(format!(
                "{label}::source_power_many lane {i} (v={v}): batch {got} vs scalar {want}"
            ));
        }
    }
    None
}

fn cpu_bits_diff(
    label: &str,
    cpu: &impl CpuEvalBatch,
    vdds: &[f64],
    freqs: &[f64],
) -> Option<String> {
    let n = vdds.len();
    let mut fmax = vec![0.0; n];
    let mut leak = vec![0.0; n];
    let mut ecycle = vec![0.0; n];
    let mut ptotal = vec![0.0; n];
    cpu.fmax_many(vdds, &mut fmax);
    cpu.leak_many(vdds, &mut leak);
    cpu.ecycle_many(vdds, &mut ecycle);
    cpu.ptotal_many(vdds, freqs, &mut ptotal);
    for i in 0..n {
        let (Some(&v), Some(&f)) = (vdds.get(i), freqs.get(i)) else {
            break;
        };
        let vdd = Volts::new(v);
        let lanes = [
            ("fmax", fmax.get(i).copied(), cpu.fmax(vdd).hertz()),
            ("leak", leak.get(i).copied(), cpu.leak(vdd).watts()),
            ("ecycle", ecycle.get(i).copied(), cpu.ecycle(vdd).joules()),
            (
                "ptotal",
                ptotal.get(i).copied(),
                cpu.ptotal(vdd, hems_units::Hertz::new(f)).watts(),
            ),
        ];
        for (name, got, want) in lanes {
            let Some(got) = got else { break };
            if got.to_bits() != want.to_bits() {
                return Some(format!(
                    "{label}::{name}_many lane {i} (vdd={v}): batch {got} vs scalar {want}"
                ));
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Oracle 3: the sweep engines against the exact reference
// ---------------------------------------------------------------------

fn sweep_engines(input: &CaseInput, pool: &WorkerPool) -> Option<Divergence> {
    let kind = OracleKind::SweepEngines;
    let mut scenarios = Vec::new();
    for spec in &input.specs {
        let Ok(job) = PlanJob::build(QueryKind::SweepSummary, spec.clone()) else {
            continue;
        };
        scenarios.push(planner::scenario_for(&job, scenarios.len()));
    }
    if scenarios.is_empty() {
        return None;
    }

    let exact: Vec<_> = scenarios.iter().map(run_scenario).collect();
    let lanes = 1 + input.grid_n % 8;
    let chunked = run_scenarios_chunked(&scenarios, pool, lanes);
    if chunked != exact {
        return diverged(kind, first_result_diff("chunked", &exact, &chunked));
    }
    let batch_one = run_scenarios_batch(&scenarios, 1);
    let batch_many = run_scenarios_batch(&scenarios, input.threads);
    if batch_one != batch_many {
        return diverged(
            kind,
            first_result_diff("batch(threads)", &batch_one, &batch_many),
        );
    }
    batch_tolerance_violation(&exact, &batch_one).and_then(|detail| diverged(kind, detail))
}

fn first_result_diff(
    engine: &str,
    want: &[hems_sim::sweep::ScenarioResult],
    got: &[hems_sim::sweep::ScenarioResult],
) -> String {
    if want.len() != got.len() {
        return format!(
            "{engine} engine returned {} results, expected {}",
            got.len(),
            want.len()
        );
    }
    for (w, g) in want.iter().zip(got.iter()) {
        if w != g {
            return format!(
                "{engine} engine diverges at '{}' (index {})",
                w.label, w.index
            );
        }
    }
    format!("{engine} engine diverges (ordering)")
}

// ---------------------------------------------------------------------
// Oracle 4: serve threading transparency
// ---------------------------------------------------------------------

fn serve_threads(
    input: &CaseInput,
    ctx: &mut OracleCtx,
) -> Result<Option<Divergence>, ConformanceError> {
    let kind = OracleKind::ServeThreads;
    let (single, pooled) = ctx.clients()?;
    for (si, spec) in input.specs.iter().enumerate() {
        // The query kind is a pure function of the spec, so a repro
        // replays the identical request.
        let mut hasher = KeyHasher::new();
        hasher.write_tag("serve-oracle");
        hasher.write_f64(spec.irradiance);
        hasher.write_f64(spec.v_initial);
        let query = match hasher.finish() % 5 {
            0 => QueryKind::OptimalPoint,
            1 => QueryKind::Mep,
            2 => QueryKind::Bypass,
            3 => QueryKind::Sprint,
            _ => QueryKind::SweepSummary,
        };
        let a = single.plan(query, spec);
        let b = pooled.plan(query, spec);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                let left = a.result.render();
                let right = b.result.render();
                if left != right {
                    return Ok(diverged(
                        kind,
                        format!(
                            "spec {si} {}: 1-thread {} vs 4-thread {}",
                            query.as_wire(),
                            left,
                            right
                        ),
                    ));
                }
            }
            (Err(ClientError::Rejected(ma)), Err(ClientError::Rejected(mb))) => {
                if ma != mb {
                    return Ok(diverged(
                        kind,
                        format!(
                            "spec {si} {}: 1-thread rejects '{ma}' vs 4-thread '{mb}'",
                            query.as_wire()
                        ),
                    ));
                }
            }
            (Err(ClientError::Exhausted { attempts, last }), _)
            | (_, Err(ClientError::Exhausted { attempts, last })) => {
                // Attempt exhaustion is a harness/transport failure,
                // not a verdict about answer parity.
                return Err(ConformanceError::new(
                    "serve oracle",
                    format!("attempts exhausted ({attempts}): {last}"),
                ));
            }
            (a, b) => {
                return Ok(diverged(
                    kind,
                    format!(
                        "spec {si} {}: 1-thread {} vs 4-thread {}",
                        query.as_wire(),
                        plan_verdict(&a),
                        plan_verdict(&b)
                    ),
                ));
            }
        }
    }
    Ok(None)
}

// ---------------------------------------------------------------------
// Oracle 5: routing-tier transparency (bare serve vs sharded routers)
// ---------------------------------------------------------------------

fn serve_sharded(
    input: &CaseInput,
    ctx: &mut OracleCtx,
) -> Result<Option<Divergence>, ConformanceError> {
    let kind = OracleKind::ServeSharded;
    let (direct, routed_one, routed_three) = ctx.sharded_trio()?;
    for (si, spec) in input.specs.iter().enumerate() {
        // Same kind derivation as the threading oracle but under its
        // own tag, so the two oracles cover different (spec, query)
        // pairings for the same corpus.
        let mut hasher = KeyHasher::new();
        hasher.write_tag("sharded-oracle");
        hasher.write_f64(spec.irradiance);
        hasher.write_f64(spec.v_initial);
        let query = match hasher.finish() % 5 {
            0 => QueryKind::OptimalPoint,
            1 => QueryKind::Mep,
            2 => QueryKind::Bypass,
            3 => QueryKind::Sprint,
            _ => QueryKind::SweepSummary,
        };
        let a = direct.plan(query, spec);
        let b = routed_one.plan(query, spec);
        let c = routed_three.plan(query, spec);
        for (side, other) in [("router/1", &b), ("router/3", &c)] {
            match (&a, other) {
                (Ok(a), Ok(o)) => {
                    let left = a.result.render();
                    let right = o.result.render();
                    if left != right {
                        return Ok(diverged(
                            kind,
                            format!(
                                "spec {si} {}: direct {} vs {side} {}",
                                query.as_wire(),
                                left,
                                right
                            ),
                        ));
                    }
                }
                (Err(ClientError::Rejected(ma)), Err(ClientError::Rejected(mo))) => {
                    if ma != mo {
                        return Ok(diverged(
                            kind,
                            format!(
                                "spec {si} {}: direct rejects '{ma}' vs {side} '{mo}'",
                                query.as_wire()
                            ),
                        ));
                    }
                }
                (Err(ClientError::Exhausted { attempts, last }), _)
                | (_, Err(ClientError::Exhausted { attempts, last })) => {
                    return Err(ConformanceError::new(
                        "sharded oracle",
                        format!("attempts exhausted ({attempts}): {last}"),
                    ));
                }
                (a, o) => {
                    return Ok(diverged(
                        kind,
                        format!(
                            "spec {si} {}: direct {} vs {side} {}",
                            query.as_wire(),
                            plan_verdict(a),
                            plan_verdict(o)
                        ),
                    ));
                }
            }
        }
    }
    Ok(None)
}

fn plan_verdict(r: &Result<hems_serve::PlanAnswer, ClientError>) -> &'static str {
    match r {
        Ok(_) => "answered",
        Err(ClientError::Rejected(_)) => "rejected",
        Err(ClientError::Exhausted { .. }) => "exhausted",
    }
}

// ---------------------------------------------------------------------
// Oracle 5: NDJSON codec under torn frames
// ---------------------------------------------------------------------

fn json_frames(input: &CaseInput) -> Option<Divergence> {
    let kind = OracleKind::JsonFrames;
    for (fi, frame) in input.frames.iter().enumerate() {
        // The codec must never panic, whatever the bytes decode to.
        let parsed = catch_unwind(AssertUnwindSafe(|| json::parse(frame)));
        let Ok(parsed) = parsed else {
            return diverged(kind, format!("frame {fi} panicked the parser: {frame:?}"));
        };
        if let Ok(value) = parsed {
            // Render must be idempotent under one reparse (non-finite
            // numbers render as `null` and stay `null`).
            let rendered = value.render();
            match json::parse(&rendered) {
                Ok(again) => {
                    if again.render() != rendered {
                        return diverged(
                            kind,
                            format!(
                                "frame {fi} render not idempotent: {rendered:?} vs {:?}",
                                again.render()
                            ),
                        );
                    }
                }
                Err(e) => {
                    return diverged(
                        kind,
                        format!("frame {fi} rendered output does not reparse: {e} ({rendered:?})"),
                    );
                }
            }
        }
        // Frames that decode to a valid *request* must survive a full
        // protocol round-trip (finite payloads only: the wire contract
        // maps non-finite numbers to null by design).
        if let Ok(request) = Request::parse_line(frame) {
            if !request.scenario.as_ref().is_some_and(spec_is_finite) {
                continue;
            }
            let line =
                Request::render_line_with_id(&request.id, request.kind, request.scenario.as_ref());
            match Request::parse_line(&line) {
                Ok(again) => {
                    if again.kind != request.kind
                        || again.scenario != request.scenario
                        || again.id.render() != request.id.render()
                    {
                        return diverged(
                            kind,
                            format!("frame {fi} request round-trip drifted: {line:?}"),
                        );
                    }
                }
                Err((_, e)) => {
                    return diverged(
                        kind,
                        format!("frame {fi} re-rendered request does not parse: {e} ({line:?})"),
                    );
                }
            }
        }
    }
    None
}

fn spec_is_finite(spec: &ScenarioSpec) -> bool {
    spec.irradiance.is_finite()
        && spec.v_initial.is_finite()
        && spec.duration.is_finite()
        && spec.capacitance.is_none_or(f64::is_finite)
        && spec.deadline.is_none_or(f64::is_finite)
        && match spec.policy {
            hems_serve::proto::PolicySpec::Fixed {
                vdd,
                clock_fraction,
            } => vdd.is_finite() && clock_fraction.is_finite(),
            hems_serve::proto::PolicySpec::Duty { v_run, v_stop, vdd } => {
                v_run.is_finite() && v_stop.is_finite() && vdd.is_finite()
            }
        }
}

// ---------------------------------------------------------------------
// Oracle 6: fleet node machine vs intermittent runtime
// ---------------------------------------------------------------------

fn fleet_runtime(input: &CaseInput) -> Option<Divergence> {
    let kind = OracleKind::FleetRuntime;
    let duration_ms = input.duration_ms * 3.0; // room for real commits
    let windows: Vec<(Seconds, Seconds)> = input
        .outages
        .iter()
        .filter(|(start, end)| *start >= 0.0 && *end > *start)
        .map(|(start, end)| (Seconds::from_milli(*start), Seconds::from_milli(*end)))
        .collect();
    let policy = match input.policy_index % 3 {
        0 => CheckpointPolicy::EveryTask,
        1 => CheckpointPolicy::EveryNTasks(2),
        _ => CheckpointPolicy::ChainBoundary,
    };
    let chain = TaskChain::recognition_loop();
    let Ok(schedule) = Schedule::new(&chain, policy, &NvmModel::fram()) else {
        return None;
    };

    let make_sim = || -> Option<Simulation> {
        let config = SystemConfig::paper_sc_system().ok()?;
        let light = LightProfile::with_outages(
            LightProfile::constant(Irradiance::FULL_SUN),
            windows.clone(),
        );
        Simulation::new(config, light, Volts::new(1.1)).ok()
    };

    // Reference: the real runtime inside its own simulation.
    let mut sim = make_sim()?;
    let mut controller = FixedVoltageController::new(Volts::new(0.6));
    let mut runtime = IntermittentRuntime::new(chain.clone(), policy, NvmModel::fram());
    let mut events: Vec<CommitEvent> = Vec::new();
    let progress = runtime.run_observed(
        &mut sim,
        &mut controller,
        Seconds::from_milli(duration_ms),
        &mut |e| events.push(*e),
    );

    // Differential side: replay the identical per-dt budget/brownout
    // trace into the fleet's compact node machine.
    let mut trace_sim = make_sim()?;
    let mut trace_controller = FixedVoltageController::new(Volts::new(0.6));
    let dt = trace_sim.config().dt;
    let steps = (duration_ms * 1e-3 / dt.seconds()).round() as u64;
    let mut node = NodeState::new(0);
    let mut positions: Vec<u64> = Vec::new();
    let mut last_cycles = trace_sim.total_cycles().count();
    let mut last_brownouts = trace_sim.events().brownouts();
    for _ in 0..steps {
        trace_sim.step(&mut trace_controller);
        let now_cycles = trace_sim.total_cycles().count();
        let delta = now_cycles - last_cycles;
        last_cycles = now_cycles;
        let brownouts = trace_sim.events().brownouts();
        if brownouts > last_brownouts {
            node.rollback(&schedule);
        }
        last_brownouts = brownouts;
        if delta > 0.0 {
            let mut observe = |pos: u64| positions.push(pos);
            node.execute(&schedule, delta, Some(&mut observe));
        }
    }

    if node.committed != events.len() as u64 {
        return diverged(
            kind,
            format!(
                "{policy:?}: node committed {} vs runtime {}",
                node.committed,
                events.len()
            ),
        );
    }
    let len = chain.len() as u64;
    let replayed: Vec<CommitEvent> = positions
        .iter()
        .map(|pos| CommitEvent {
            at: Seconds::ZERO,
            iteration: pos / len.max(1),
            task: (pos % len.max(1)) as usize,
        })
        .collect();
    let (da, db) = (digest_events(&replayed), digest_events(&events));
    if da != db {
        return diverged(
            kind,
            format!("{policy:?}: commit digests {da:016x} vs {db:016x}"),
        );
    }
    if node.rollbacks as usize != progress.rollbacks {
        return diverged(
            kind,
            format!(
                "{policy:?}: node rollbacks {} vs runtime {}",
                node.rollbacks, progress.rollbacks
            ),
        );
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b.abs().max(1.0);
    let counters = [
        ("useful", node.useful, progress.useful_cycles.count()),
        (
            "checkpoint",
            node.checkpoint,
            progress.checkpoint_cycles.count(),
        ),
        ("wasted", node.wasted, progress.wasted_cycles.count()),
    ];
    for (name, a, b) in counters {
        if !close(a, b) {
            return diverged(kind, format!("{policy:?}: {name} cycles {a} vs {b}"));
        }
    }
    None
}

/// The chaos crate's commit-stream digest, restated: FNV over
/// `(iteration, task)` pairs in commit order.
pub fn digest_events(events: &[CommitEvent]) -> u64 {
    let mut hasher = KeyHasher::new();
    hasher.write_tag("commit-stream");
    for event in events {
        hasher.write_u64(event.iteration);
        hasher.write_u64(event.task as u64);
    }
    hasher.finish()
}

// ---------------------------------------------------------------------
// Oracle 7: physics invariants under adversarial control
// ---------------------------------------------------------------------

/// Replays a scripted decision sequence, cycling when it runs out — the
/// adversarial controller from the original `tests/property_fuzz.rs`.
struct ScriptedController {
    steps: Vec<ControlDecision>,
    at: usize,
}

impl Controller for ScriptedController {
    fn decide(&mut self, _view: &SystemView<'_>) -> ControlDecision {
        let n = self.steps.len().max(1);
        let decision = self
            .steps
            .get(self.at % n)
            .cloned()
            .unwrap_or(ControlDecision {
                path: PowerPath::Sleep,
                clock_fraction: 0.05,
            });
        self.at = self.at.wrapping_add(1);
        decision
    }
}

fn script_decisions(input: &CaseInput) -> Vec<ControlDecision> {
    input
        .script
        .iter()
        .map(|s| {
            let path = match s.kind % 3 {
                0 => PowerPath::Regulated {
                    vdd: Volts::new(s.vdd.clamp(0.01, 1.6)),
                },
                1 => PowerPath::Bypass,
                _ => PowerPath::Sleep,
            };
            ControlDecision {
                path,
                clock_fraction: s.clock_fraction.clamp(0.05, 1.0),
            }
        })
        .collect()
}

fn physics_light(seed: u64, duration_ms: f64) -> LightProfile {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let irr = |f: f64| Irradiance::new(f.clamp(0.0, 1.0)).unwrap_or(Irradiance::DARK);
    match rng.below_u32(3) {
        0 => LightProfile::constant(irr(rng.range_f64(0.0, 1.0))),
        1 => {
            let a = irr(rng.range_f64(0.0, 1.0));
            let b = irr(rng.range_f64(0.0, 1.0));
            let at = rng.range_f64(0.5, duration_ms.max(1.0));
            LightProfile::step(a, b, Seconds::from_milli(at))
        }
        _ => LightProfile::clouds(
            Irradiance::DARK,
            Irradiance::FULL_SUN,
            Seconds::from_milli(rng.range_f64(1.0, 40.0)),
            Seconds::new(1.0),
            rng.next_u64(),
        ),
    }
}

fn physics(input: &CaseInput) -> Option<Divergence> {
    let kind = OracleKind::Physics;
    let Ok(config) = SystemConfig::paper_sc_system() else {
        return None;
    };
    let rating = config.capacitor.v_rating();
    let capacitance = config.capacitor.capacitance();
    let v0 = Volts::new(input.v_initial.clamp(0.0, rating.volts()));
    let duration = Seconds::from_milli(input.duration_ms);
    let decisions = script_decisions(input);

    let run_once = || -> Option<hems_sim::SimulationSummary> {
        let light = physics_light(input.light_seed, input.duration_ms);
        let mut sim = Simulation::new(config.clone(), light, v0).ok()?;
        let mut controller = ScriptedController {
            steps: decisions.clone(),
            at: 0,
        };
        Some(sim.run(&mut controller, duration))
    };
    let summary = run_once()?;

    // Node voltage stays physical.
    if summary.final_v_solar < Volts::ZERO || summary.final_v_solar > rating {
        return diverged(
            kind,
            format!(
                "final_v_solar {} escapes [0, {rating}]",
                summary.final_v_solar
            ),
        );
    }
    // Ledger categories are non-negative and times add up.
    let l = &summary.ledger;
    let categories = [
        ("harvested", l.harvested.joules()),
        ("delivered_to_cpu", l.delivered_to_cpu.joules()),
        ("regulator_loss", l.regulator_loss.joules()),
        ("standby_loss", l.standby_loss.joules()),
    ];
    for (name, joules) in categories {
        if joules < 0.0 {
            return diverged(kind, format!("ledger.{name} is negative: {joules}"));
        }
    }
    let time_sum = l.active_time + l.sleep_time + l.brownout_time;
    if (time_sum - l.total_time).abs() > Seconds::from_micro(100.0) {
        return diverged(
            kind,
            format!("ledger times {time_sum} do not add to {}", l.total_time),
        );
    }
    // Energy conservation within integration error.
    let e0 = capacitance.stored_energy(v0);
    let e1 = capacitance.stored_energy(summary.final_v_solar);
    let lhs = l.harvested + (e0 - e1);
    let rhs = l.delivered_to_cpu + l.regulator_loss + l.standby_loss;
    let scale = rhs.joules().abs().max(e0.joules()).max(1e-9);
    if (lhs - rhs).abs().joules() / scale > 0.03 {
        return diverged(
            kind,
            format!("energy imbalance: harvested+storage {lhs} vs sinks {rhs}"),
        );
    }
    // The CPU can never consume more than arrived.
    if l.delivered_to_cpu > l.harvested + e0 {
        return diverged(
            kind,
            format!(
                "delivered {} exceeds harvested {} + stored {e0}",
                l.delivered_to_cpu, l.harvested
            ),
        );
    }
    // Bit-reproducibility: an identical second run must match exactly.
    let again = run_once()?;
    if again != summary {
        return diverged(
            kind,
            "identical runs produced different summaries".to_string(),
        );
    }
    None
}

// ---------------------------------------------------------------------
// Oracle 8: the closed-loop controller against the §IV-B crossover
// ---------------------------------------------------------------------

/// Half-width, in sun, of the band around the crossover where the
/// controller's steady-state path is not checked (DESIGN §16). Its entry
/// test reads the tracker's harvest estimate at the node's operating
/// voltage, not the MPP power, so the switch lands up to ~0.035 sun either
/// side of the crossover depending on the starting charge.
const CROSSOVER_GUARD: f64 = 0.05;
/// Simulated length of each run: bypass engages within ~2 ms.
const CROSSOVER_RUN_MS: f64 = 20.0;
/// Slack on "cycles do not fall as light rises" (DESIGN §7).
const MONOTONE_SLACK: f64 = 0.02;

/// Two seeded constant lights in [0.2, 0.5] sun on one seeded topology,
/// from one seeded starting charge. Outside the guard band the controller
/// must end each run on the path `should_bypass` names, and when both
/// lights share that path the brighter one must run at least as many
/// cycles, within the slack. Pairs that straddle the crossover are not
/// compared: the regulated loop takes longer than a case to converge.
fn controller_crossover(input: &CaseInput) -> Option<Divergence> {
    let kind = OracleKind::ControllerCrossover;
    let mut rng = XorShiftRng::seed_from_u64(input.light_seed);
    let config = match rng.below_u32(3) {
        0 => SystemConfig::paper_sc_system(),
        1 => SystemConfig::paper_buck_system(),
        _ => SystemConfig::paper_ldo_system(),
    }
    .ok()?;
    let name = config.regulator.kind();
    let policy = match BypassPolicy::for_topology(name) {
        Ok(policy) => *policy,
        Err(e) => return diverged(kind, format!("{name}: no bypass policy: {e}")),
    };
    let (a, b) = (rng.range_f64(0.2, 0.5), rng.range_f64(0.2, 0.5));
    let v0 = Volts::new(rng.range_f64(0.9, 1.3));
    let mut runs = Vec::with_capacity(2);
    for g in [a.min(b), a.max(b)] {
        let g = Irradiance::new(g).ok()?;
        let mut config = config.clone();
        config.cell.set_irradiance(g);
        let mut sim = Simulation::new(config, LightProfile::constant(g), v0).ok()?;
        let mut ctl = HolisticController::paper_default(Mode::MaxPerformance);
        let summary = sim.run(&mut ctl, Seconds::from_milli(CROSSOVER_RUN_MS));
        let guarded = policy
            .crossover()
            .is_some_and(|c| (g.fraction() - c.fraction()).abs() < CROSSOVER_GUARD);
        let expected = (!guarded).then(|| policy.should_bypass(g));
        if expected.is_some_and(|bypass| bypass != ctl.is_bypassed()) {
            return diverged(
                kind,
                format!(
                    "{name} at {g} from {v0}: controller bypassed={}, policy should_bypass={}",
                    ctl.is_bypassed(),
                    policy.should_bypass(g)
                ),
            );
        }
        runs.push((g, expected, summary.total_cycles.count()));
    }
    let [(g_dim, path_dim, dim), (g_bright, path_bright, bright)] = runs[..] else {
        return None;
    };
    if path_dim.is_some() && path_dim == path_bright && bright < dim * (1.0 - MONOTONE_SLACK) {
        return diverged(
            kind,
            format!("{name} from {v0}: {bright:.0} cycles at {g_bright} < {dim:.0} at {g_dim}"),
        );
    }
    None
}

// ---------------------------------------------------------------------
// The planted oracle (shrinker self-test scaffolding)
// ---------------------------------------------------------------------

fn planted(input: &CaseInput) -> Option<Divergence> {
    if input.has_dark_spec() {
        return diverged(
            OracleKind::Planted,
            "planted divergence: a spec sits in the dark band".to_string(),
        );
    }
    None
}
