//! Executes plan queries against the paper's solvers.
//!
//! One [`PlanJob`] is one cache miss: a fully materialized `(query kind,
//! SystemConfig, SweepPolicy, spec)` tuple whose [`answer`] runs on the
//! server's connection thread. Answers are JSON result objects (the `result`
//! field of an `ok` response); failures are rendered strings (the `error`
//! field of an `error` response).
//!
//! The mapping to the paper:
//!
//! | query           | solver                                             |
//! |-----------------|----------------------------------------------------|
//! | `optimal_point` | §IV eqs. 1–4 + joint rail/supply refinement        |
//! | `mep`           | §V eq. 5 system MEP at the cell's MPP rail         |
//! | `bypass`        | §IV-B per-level comparison, crossover per topology |
//! | `sprint`        | §VI-B eqs. 12–13 two-phase schedule vs constant    |
//! | `sweep_summary` | the transient integrator, summarized               |
//!
//! Every query runs the *exact* device models — the service's latency
//! budget is the plan cache, not the LUT fast path, so misses pay the
//! reference-quality solve and hits are free. The one thing a miss does
//! not solve is the bypass crossover: it is a constant of the regulator
//! topology, read from [`BypassPolicy::for_topology`]. Sweep jobs
//! additionally expose their scenario through [`scenario_for`] and render
//! an engine outcome with [`sweep_answer`], so a caller holding many of
//! them (the conformance oracles, the repository benchmark) can run the
//! list through the sweep engine's chunked entry
//! (`hems_sim::sweep::run_scenarios_chunked`) — same exact models,
//! byte-identical answers to the [`answer`] a miss runs.

use crate::json::Value;
use crate::proto::{effective_duration, QueryKind, ScenarioSpec};
use hems_core::PvSource;
use hems_core::{bypass::BypassPolicy, mep, operating_point, optimal_voltage, sprint::SprintPlan};
use hems_regulator::Regulator;
use hems_sim::sweep::{run_scenario, Scenario, SweepPolicy};
use hems_sim::SystemConfig;
use hems_units::Volts;

/// One cache miss, ready to execute on a worker.
#[derive(Debug, Clone)]
pub struct PlanJob {
    /// The canonical cache key of the request.
    pub key: u64,
    /// What is being asked.
    pub kind: QueryKind,
    /// The materialized system.
    pub config: SystemConfig,
    /// The materialized control policy.
    pub policy: SweepPolicy,
    /// The original spec (for run settings the config doesn't carry).
    pub spec: ScenarioSpec,
}

impl PlanJob {
    /// Builds a job from a parsed scenario spec.
    ///
    /// # Errors
    ///
    /// Returns a rendered message when the spec cannot be materialized
    /// (out-of-range light, unrealizable capacitance).
    pub fn build(kind: QueryKind, spec: ScenarioSpec) -> Result<PlanJob, String> {
        let (config, policy) = spec.build()?;
        let key = spec.cache_key(kind, &config, &policy);
        Ok(PlanJob {
            key,
            kind,
            config,
            policy,
            spec,
        })
    }
}

/// Executes one plan job. Infallible queries return `Ok`; infeasible
/// plans (darkness, unreachable windows) return the solver's message.
///
/// # Errors
///
/// Returns the rendered solver error for infeasible scenarios.
pub fn answer(job: &PlanJob) -> Result<Value, String> {
    match job.kind {
        QueryKind::OptimalPoint => optimal_point(job),
        QueryKind::Mep => holistic_mep(job),
        QueryKind::Bypass => bypass_decision(job),
        QueryKind::Sprint => sprint_plan(job),
        QueryKind::SweepSummary => sweep_summary(job),
        QueryKind::Stats | QueryKind::Metrics | QueryKind::Shutdown => {
            Err("service queries are answered inline, not planned".to_string())
        }
    }
}

fn optimal_point(job: &PlanJob) -> Result<Value, String> {
    let plan = optimal_voltage::optimal_joint_plan(
        &job.config.cell,
        &job.config.regulator,
        &job.config.cpu,
    )
    .map_err(|e| e.to_string())?;
    // The unregulated baseline contextualizes the gain (Fig. 6b's +31 %
    // power / +18 % speed claim); it can be infeasible where the plan is
    // not, so it is optional in the answer.
    let baseline = operating_point::unregulated_point(&job.config.cell, &job.config.cpu).ok();
    let mut fields = vec![
        ("v_solar", Value::Num(plan.v_solar.volts())),
        ("vdd", Value::Num(plan.vdd.volts())),
        ("frequency_hz", Value::Num(plan.frequency.hertz())),
        ("p_cpu_w", Value::Num(plan.p_cpu.watts())),
        ("p_in_w", Value::Num(plan.p_in.watts())),
        ("efficiency", Value::Num(plan.efficiency.ratio())),
        ("clock_fraction", Value::Num(plan.clock_fraction)),
    ];
    if let Some(u) = baseline {
        fields.push(("speedup_vs_unregulated", Value::Num(plan.speedup_vs(&u))));
        fields.push((
            "power_gain_vs_unregulated",
            Value::Num(plan.power_gain_vs(&u)),
        ));
    }
    Ok(Value::obj(fields))
}

fn holistic_mep(job: &PlanJob) -> Result<Value, String> {
    let mpp = job.config.cell.source_mpp().map_err(|e| e.to_string())?;
    let m = mep::system_mep(&job.config.cpu, &job.config.regulator, mpp.voltage)
        .map_err(|e| e.to_string())?;
    Ok(Value::obj(vec![
        ("vdd", Value::Num(m.vdd.volts())),
        (
            "energy_per_cycle_j",
            Value::Num(m.energy_per_cycle.joules()),
        ),
        ("v_in", Value::Num(m.v_in.volts())),
    ]))
}

fn bypass_decision(job: &PlanJob) -> Result<Value, String> {
    let g = job.config.cell.irradiance();
    let comparison = BypassPolicy::compare_at(
        job.config.cell.model(),
        &job.config.regulator,
        &job.config.cpu,
        g,
    );
    // The crossover is a constant of the topology, read from hems-core's
    // per-topology table. A topology without one (bypass always wins
    // behind the LDO) still answers with the per-level comparison, so
    // darkness, where both paths deliver zero, reads "do not bypass".
    let mut fields = vec![
        ("irradiance", Value::Num(g.fraction())),
        ("regulated_w", Value::Num(comparison.regulated.watts())),
        ("bypassed_w", Value::Num(comparison.bypassed.watts())),
        ("bypass_wins", Value::Bool(comparison.bypass_wins())),
    ];
    match BypassPolicy::for_topology(job.config.regulator.kind()) {
        Ok(policy @ BypassPolicy::Below { crossover, .. }) => {
            fields.push(("crossover", Value::Num(crossover.fraction())));
            fields.push(("should_bypass", Value::Bool(policy.should_bypass(g))));
        }
        _ => {
            fields.push(("crossover", Value::Null));
            fields.push(("should_bypass", Value::Bool(comparison.bypass_wins())));
        }
    }
    Ok(Value::obj(fields))
}

fn sprint_plan(job: &PlanJob) -> Result<Value, String> {
    let duration = effective_duration(&job.spec);
    // Nominal draw: what the optimal regulated plan pulls from the node.
    let plan = optimal_voltage::optimal_joint_plan(
        &job.config.cell,
        &job.config.regulator,
        &job.config.cpu,
    )
    .map_err(|e| e.to_string())?;
    let sprint = SprintPlan::paper_20_percent(duration, plan.p_in).map_err(|e| e.to_string())?;
    let mut capacitor = job.config.capacitor.clone();
    capacitor
        .set_voltage(Volts::new(job.spec.v_initial))
        .map_err(|e| e.to_string())?;
    let comparison = sprint.compare_against_constant(&job.config.cell, &capacitor, job.config.dt);
    Ok(Value::obj(vec![
        ("beta", Value::Num(sprint.beta)),
        ("duration_s", Value::Num(sprint.duration.seconds())),
        ("p_nominal_w", Value::Num(sprint.p_nominal.watts())),
        (
            "e_solar_constant_j",
            Value::Num(comparison.e_solar_constant.joules()),
        ),
        (
            "e_solar_sprint_j",
            Value::Num(comparison.e_solar_sprint.joules()),
        ),
        (
            "extra_energy_fraction",
            Value::Num(comparison.extra_energy_fraction()),
        ),
        (
            "v_end_constant",
            Value::Num(comparison.v_end_constant.volts()),
        ),
        ("v_end_sprint", Value::Num(comparison.v_end_sprint.volts())),
    ]))
}

/// Materializes the transient scenario a sweep-summary job describes —
/// shared by the single-miss path here and callers that run many jobs
/// through the chunked sweep engine. `index` is the scenario's position in whatever list the caller
/// assembles (0 for a solo run).
pub fn scenario_for(job: &PlanJob, index: usize) -> Scenario {
    Scenario {
        index,
        label: scenario_label(job),
        config: job.config.clone(),
        policy: job.policy.clone(),
        v_initial: Volts::new(job.spec.v_initial),
        duration: effective_duration(&job.spec),
    }
}

fn sweep_summary(job: &PlanJob) -> Result<Value, String> {
    sweep_answer(run_scenario(&scenario_for(job, 0)))
}

/// Renders a sweep engine outcome into the `sweep_summary` answer object.
///
/// # Errors
///
/// Returns the scenario's own rendered error when the run was infeasible.
pub fn sweep_answer(result: hems_sim::sweep::ScenarioResult) -> Result<Value, String> {
    let summary = result.summary?;
    Ok(Value::obj(vec![
        ("label", Value::str(result.label)),
        ("completed_jobs", Value::Num(summary.completed_jobs as f64)),
        ("brownouts", Value::Num(summary.brownouts as f64)),
        ("total_cycles", Value::Num(summary.total_cycles.count())),
        ("final_v_solar", Value::Num(summary.final_v_solar.volts())),
        ("harvested_j", Value::Num(summary.ledger.harvested.joules())),
        (
            "delivered_to_cpu_j",
            Value::Num(summary.ledger.delivered_to_cpu.joules()),
        ),
        (
            "regulator_loss_j",
            Value::Num(summary.ledger.regulator_loss.joules()),
        ),
        ("duty_cycle", Value::Num(summary.ledger.duty_cycle())),
        (
            "mean_delivered_w",
            Value::Num(summary.ledger.mean_delivered_power().watts()),
        ),
    ]))
}

fn scenario_label(job: &PlanJob) -> String {
    format!(
        "g={} C={} reg={} {}",
        job.config.cell.irradiance(),
        job.config.capacitor.capacitance(),
        job.config.regulator.kind(),
        job.policy.label()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{PolicySpec, RegulatorChoice};
    use hems_regulator::{AnyRegulator, BuckRegulator, Ldo, ScRegulator};

    fn job(kind: QueryKind, g: f64) -> PlanJob {
        PlanJob::build(kind, ScenarioSpec::baseline(g)).unwrap()
    }

    #[test]
    fn optimal_point_matches_the_direct_solver() {
        let job = job(QueryKind::OptimalPoint, 1.0);
        let result = answer(&job).unwrap();
        let direct = optimal_voltage::optimal_joint_plan(
            &job.config.cell,
            &job.config.regulator,
            &job.config.cpu,
        )
        .unwrap();
        assert_eq!(
            result.get("vdd").and_then(Value::as_f64),
            Some(direct.vdd.volts())
        );
        assert_eq!(
            result.get("frequency_hz").and_then(Value::as_f64),
            Some(direct.frequency.hertz())
        );
    }

    #[test]
    fn mep_sits_inside_the_processor_window() {
        let result = answer(&job(QueryKind::Mep, 0.5)).unwrap();
        let vdd = result.get("vdd").and_then(Value::as_f64).unwrap();
        assert!((0.2..=1.2).contains(&vdd), "vdd = {vdd}");
        assert!(
            result
                .get("energy_per_cycle_j")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn bypass_flips_between_bright_and_dim() {
        let bright = answer(&job(QueryKind::Bypass, 1.0)).unwrap();
        assert_eq!(
            bright.get("should_bypass").and_then(Value::as_bool),
            Some(false)
        );
        let dim = answer(&job(QueryKind::Bypass, 0.1)).unwrap();
        assert_eq!(
            dim.get("should_bypass").and_then(Value::as_bool),
            Some(true)
        );
    }

    const TOPOLOGIES: [RegulatorChoice; 3] = [
        RegulatorChoice::Sc,
        RegulatorChoice::Ldo,
        RegulatorChoice::Buck,
    ];

    #[test]
    fn the_regulator_is_a_complete_crossover_key() {
        // `bypass` answers read the crossover `BypassPolicy::for_topology`
        // calibrated on the paper's cell, CPU and regulator of one
        // topology. That is only this job's crossover if the job runs on
        // exactly those models and no other spec field reaches them.
        let inputs = |spec: &ScenarioSpec| {
            let (config, _) = spec.build().unwrap();
            let (model, regulator, cpu) = (config.cell.model(), config.regulator, config.cpu);
            assert_eq!(model, &hems_pv::SolarCellModel::kxob22(), "{spec:?}");
            assert_eq!(cpu, hems_cpu::Microprocessor::paper_65nm(), "{spec:?}");
            format!("{model:?} {regulator:?} {cpu:?}")
        };
        let perturbations: [fn(&mut ScenarioSpec); 6] = [
            |s| s.irradiance = 0.05,
            |s| s.capacitance = Some(2e-6),
            |s| {
                s.policy = PolicySpec::Duty {
                    v_run: 1.0,
                    v_stop: 0.8,
                    vdd: 0.5,
                }
            },
            |s| s.v_initial = 0.7,
            |s| s.duration = 0.5,
            |s| s.deadline = Some(0.01),
        ];
        let paper_regulators = [
            AnyRegulator::from(ScRegulator::paper_65nm()),
            AnyRegulator::from(Ldo::paper_65nm()),
            AnyRegulator::from(BuckRegulator::paper_65nm()),
        ];
        let mut per_topology = Vec::new();
        for (regulator, paper) in TOPOLOGIES.into_iter().zip(paper_regulators) {
            let base = ScenarioSpec {
                regulator,
                ..ScenarioSpec::baseline(1.0)
            };
            assert_eq!(base.build().unwrap().0.regulator, paper, "{regulator:?}");
            for perturb in perturbations {
                let mut spec = base.clone();
                perturb(&mut spec);
                assert_ne!(spec, base);
                assert_eq!(inputs(&spec), inputs(&base), "{spec:?}");
            }
            per_topology.push(inputs(&base));
        }
        per_topology.sort();
        per_topology.dedup();
        assert_eq!(per_topology.len(), 3, "each topology calibrates its own");
        // Bypass wins everywhere behind a linear regulator: there is no
        // crossover, and the answer says so.
        let mut ldo = ScenarioSpec::baseline(0.5);
        ldo.regulator = RegulatorChoice::Ldo;
        let ldo = answer(&PlanJob::build(QueryKind::Bypass, ldo).unwrap()).unwrap();
        assert_eq!(ldo.get("crossover"), Some(&Value::Null));
    }

    #[test]
    fn sprint_answers_with_a_comparison() {
        let mut spec = ScenarioSpec::baseline(0.25);
        spec.deadline = Some(0.02);
        let job = PlanJob::build(QueryKind::Sprint, spec).unwrap();
        let result = answer(&job).unwrap();
        assert_eq!(result.get("beta").and_then(Value::as_f64), Some(0.2));
        assert!(
            result
                .get("e_solar_sprint_j")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn sweep_summary_reports_the_transient() {
        let result = answer(&job(QueryKind::SweepSummary, 1.0)).unwrap();
        assert!(result.get("harvested_j").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(result.get("total_cycles").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn batched_sweep_answers_are_byte_identical_to_solo_ones() {
        // Conformance and the repository benchmark run lists of sweep jobs
        // through the sweep engine's chunked entry; both paths use the
        // exact models, so the rendered answers must agree byte-for-byte.
        let jobs: Vec<PlanJob> = [1.0, 0.5, 0.25]
            .into_iter()
            .map(|g| job(QueryKind::SweepSummary, g))
            .collect();
        let scenarios: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| scenario_for(j, i))
            .collect();
        let pool = hems_sim::WorkerPool::new(2);
        let batched = hems_sim::sweep::run_scenarios_chunked(&scenarios, &pool, scenarios.len());
        for (j, result) in jobs.iter().zip(batched) {
            let solo = answer(j).unwrap().render();
            let via_batch = sweep_answer(result).unwrap().render();
            assert_eq!(solo, via_batch);
        }
    }

    #[test]
    fn dark_scenarios_answer_with_errors_not_panics() {
        for kind in [QueryKind::OptimalPoint, QueryKind::Mep, QueryKind::Sprint] {
            let job = job(kind, 0.0);
            assert!(answer(&job).is_err(), "{kind:?} in darkness");
        }
    }

    #[test]
    fn equal_jobs_have_equal_keys_and_answers() {
        let a = job(QueryKind::Mep, 0.5);
        let b = job(QueryKind::Mep, 0.5);
        assert_eq!(a.key, b.key);
        assert_eq!(answer(&a).unwrap().render(), answer(&b).unwrap().render());
    }
}
