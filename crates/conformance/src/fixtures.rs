//! The golden-fixture plane: canonical solver outputs captured as
//! NDJSON, committed, and diffed **bit-for-bit**.
//!
//! Every fixture is a list of lines, each line one rendered JSON value
//! (the same renderer the serve wire uses, so `f64`s round-trip
//! exactly). [`capture_all`] recomputes them from the current code;
//! [`diff`] compares against the committed text and, on mismatch,
//! produces a *field-level* report — the JSON path, both values, both
//! bit patterns, and the ulp distance — instead of "bytes differ".
//! Intentional changes are re-captured with the binary's `--bless`.

use std::fs;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use hems_core::cachekey::KeyHasher;
use hems_core::frontier;
use hems_cpu::Microprocessor;
use hems_fleet::{AnalyticPlans, Fleet, FleetConfig};
use hems_intermittent::{CheckpointPolicy, NvmModel, TaskChain};
use hems_pv::{Irradiance, SolarCell};
use hems_regulator::ScRegulator;
use hems_serve::planner::{self, PlanJob};
use hems_serve::proto::RegulatorChoice;
use hems_serve::server::{serve, ServeConfig};
use hems_serve::wire;
use hems_serve::{json, QueryKind, Request, ScenarioSpec, Value};
use hems_sim::sweep::{run_scenario, run_scenarios_batch};
use hems_sim::{FixedVoltageController, LightProfile, Simulation, SystemConfig};
use hems_units::{Seconds, Volts};

use crate::error::ConformanceError;
use crate::oracles::digest_events;

/// One named golden: a list of NDJSON lines.
#[derive(Debug, Clone, PartialEq)]
pub struct Fixture {
    /// File stem under the goldens directory (`<name>.ndjson`).
    pub name: &'static str,
    /// The captured lines, in order.
    pub lines: Vec<String>,
}

impl Fixture {
    /// The committed byte form: lines joined with `\n`, trailing
    /// newline included.
    pub fn text(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }
}

/// The goldens directory committed with this crate, resolved at
/// compile time so captures land in the repo regardless of the
/// caller's working directory.
pub fn default_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/goldens"))
}

/// The light grid the solver fixtures sweep: full sun down to deep
/// overcast, bracketing every regime the paper's figures cover.
const LIGHT_GRID: [f64; 4] = [1.0, 0.5, 0.25, 0.1];

fn regulator_grid() -> [RegulatorChoice; 3] {
    [
        RegulatorChoice::Sc,
        RegulatorChoice::Ldo,
        RegulatorChoice::Buck,
    ]
}

/// Wire name for a regulator choice (the proto keeps its own mapping
/// private).
fn regulator_name(choice: RegulatorChoice) -> &'static str {
    match choice {
        RegulatorChoice::Sc => "sc",
        RegulatorChoice::Ldo => "ldo",
        RegulatorChoice::Buck => "buck",
    }
}

/// Captures every fixture from the current code.
///
/// # Errors
///
/// Propagates loopback-server and campaign failures; pure-solver
/// captures are total.
pub fn capture_all() -> Result<Vec<Fixture>, ConformanceError> {
    Ok(vec![
        plan_fixture("optimal_point", QueryKind::OptimalPoint),
        plan_fixture("mep", QueryKind::Mep),
        plan_fixture("bypass", QueryKind::Bypass),
        sprint_fixture(),
        frontier_fixture()?,
        sweep_fixture("sweep_serial", false),
        sweep_fixture("sweep_batch", true),
        serve_fixture()?,
        commit_stream_fixture()?,
        cache_keys_fixture(),
        proto_lines_fixture(),
        fleet_digest_fixture()?,
    ])
}

/// The fixed spec set the planner fixtures query.
fn plan_specs(kind: QueryKind) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for g in LIGHT_GRID {
        for choice in regulator_grid() {
            let mut spec = ScenarioSpec::baseline(g);
            spec.regulator = choice;
            if kind == QueryKind::Sprint {
                spec.deadline = Some(0.02);
            }
            specs.push(spec);
        }
    }
    specs
}

fn plan_line(kind: QueryKind, spec: &ScenarioSpec) -> String {
    let head = vec![
        ("query", Value::str(kind.as_wire())),
        ("irradiance", Value::Num(spec.irradiance)),
        ("regulator", Value::str(regulator_name(spec.regulator))),
    ];
    let mut fields = head;
    match PlanJob::build(kind, spec.clone()) {
        Ok(job) => match planner::answer(&job) {
            Ok(result) => {
                fields.push(("status", Value::str("ok")));
                fields.push(("result", result));
            }
            Err(message) => {
                fields.push(("status", Value::str("error")));
                fields.push(("error", Value::str(message)));
            }
        },
        Err(message) => {
            fields.push(("status", Value::str("rejected")));
            fields.push(("error", Value::str(message)));
        }
    }
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .render()
}

fn plan_fixture(name: &'static str, kind: QueryKind) -> Fixture {
    let lines = plan_specs(kind)
        .iter()
        .map(|spec| plan_line(kind, spec))
        .collect();
    Fixture { name, lines }
}

fn sprint_fixture() -> Fixture {
    let mut lines = Vec::new();
    for g in [0.5, 0.25] {
        for deadline in [0.01, 0.02] {
            let mut spec = ScenarioSpec::baseline(g);
            spec.deadline = Some(deadline);
            lines.push(plan_line(QueryKind::Sprint, &spec));
        }
    }
    Fixture {
        name: "sprint",
        lines,
    }
}

fn frontier_fixture() -> Result<Fixture, ConformanceError> {
    let cell = SolarCell::kxob22(Irradiance::HALF_SUN);
    let regulator = ScRegulator::paper_65nm();
    let cpu = Microprocessor::paper_65nm();
    let points = frontier::sustainable_frontier(&cell, &regulator, &cpu, 33)
        .map_err(|e| ConformanceError::new("frontier capture", e.to_string()))?;
    let lines = points
        .iter()
        .map(|p| {
            Value::obj(vec![
                ("vdd", Value::Num(p.vdd.volts())),
                ("frequency_hz", Value::Num(p.frequency.hertz())),
                ("clock_fraction", Value::Num(p.clock_fraction)),
                ("p_cpu_w", Value::Num(p.p_cpu.watts())),
                (
                    "energy_per_cycle_j",
                    Value::Num(p.energy_per_cycle.joules()),
                ),
            ])
            .render()
        })
        .collect();
    Ok(Fixture {
        name: "frontier",
        lines,
    })
}

/// The transient sweep scenarios both sweep fixtures share.
fn sweep_specs() -> Vec<ScenarioSpec> {
    let mut specs = vec![
        ScenarioSpec::baseline(1.0),
        ScenarioSpec::baseline(0.25),
        ScenarioSpec::baseline(0.1),
    ];
    if let Some(spec) = specs.get_mut(2) {
        spec.regulator = RegulatorChoice::Buck;
    }
    let mut duty = ScenarioSpec::baseline(0.5);
    duty.policy = hems_serve::proto::PolicySpec::Duty {
        v_run: 1.1,
        v_stop: 0.7,
        vdd: 0.55,
    };
    specs.push(duty);
    specs
}

fn sweep_fixture(name: &'static str, batch: bool) -> Fixture {
    let mut scenarios = Vec::new();
    for spec in sweep_specs() {
        if let Ok(job) = PlanJob::build(QueryKind::SweepSummary, spec) {
            scenarios.push(planner::scenario_for(&job, scenarios.len()));
        }
    }
    let results = if batch {
        run_scenarios_batch(&scenarios, 2)
    } else {
        scenarios.iter().map(run_scenario).collect()
    };
    let lines = results
        .into_iter()
        .map(|result| {
            let label = result.label.clone();
            match planner::sweep_answer(result) {
                Ok(answer) => Value::obj(vec![
                    ("label", Value::str(label)),
                    ("status", Value::str("ok")),
                    ("result", answer),
                ])
                .render(),
                Err(message) => Value::obj(vec![
                    ("label", Value::str(label)),
                    ("status", Value::str("error")),
                    ("error", Value::str(message)),
                ])
                .render(),
            }
        })
        .collect();
    Fixture { name, lines }
}

/// Raw response lines from a loopback server for a fixed request
/// sequence — captures the whole wire stack (proto render, planner,
/// cache `cached` flags on a fresh server, error rendering) byte for
/// byte.
fn serve_fixture() -> Result<Fixture, ConformanceError> {
    let infra = |e: String| ConformanceError::new("serve fixture", e);
    let config = ServeConfig {
        threads: Some(2),
        cache_capacity: 64,
        max_queue: 64,
        ..ServeConfig::default()
    };
    let mut handle = serve("127.0.0.1:0", config).map_err(|e| infra(e.to_string()))?;
    let exchange = || -> Result<Vec<String>, ConformanceError> {
        let stream = TcpStream::connect(handle.addr()).map_err(|e| infra(e.to_string()))?;
        let mut conn = BufReader::new(stream);
        let mut requests = Vec::new();
        for (i, kind) in [
            QueryKind::OptimalPoint,
            QueryKind::Mep,
            QueryKind::Bypass,
            QueryKind::SweepSummary,
        ]
        .iter()
        .enumerate()
        {
            let spec = ScenarioSpec::baseline(LIGHT_GRID.get(i).copied().unwrap_or(1.0));
            requests.push(Request::render_line_with_id(
                &Value::str(format!("fx-{i}")),
                *kind,
                Some(&spec),
            ));
        }
        let mut sprint = ScenarioSpec::baseline(0.5);
        sprint.deadline = Some(0.02);
        requests.push(Request::render_line_with_id(
            &Value::str("fx-sprint"),
            QueryKind::Sprint,
            Some(&sprint),
        ));
        // A repeat of the first request: answered from cache, so the
        // fixture pins the `cached` flag's determinism too.
        if let Some(first) = requests.first().cloned() {
            requests.push(first);
        }
        // A malformed request: the error rendering is part of the wire
        // contract.
        requests.push("{\"id\":\"fx-bad\",\"query\":\"optimal_point\"}".to_string());
        requests
            .iter()
            .map(|request| {
                wire::exchange(&mut conn, request, 1 << 20).map_err(|e| infra(e.to_string()))
            })
            .collect()
    };
    let lines = exchange();
    handle.shutdown();
    Ok(Fixture {
        name: "serve_responses",
        lines: lines?,
    })
}

/// The fleet differential recipe's commit streams, one line per
/// checkpoint policy: counts, digests, and cycle accounting from the
/// compact node machine replaying a real simulation trace.
fn commit_stream_fixture() -> Result<Fixture, ConformanceError> {
    use hems_fleet::{NodeState, Schedule};
    let infra = |e: String| ConformanceError::new("commit stream fixture", e);
    let make_sim = || -> Result<Simulation, ConformanceError> {
        let config = SystemConfig::paper_sc_system().map_err(|e| infra(e.to_string()))?;
        let light = LightProfile::with_outages(
            LightProfile::constant(Irradiance::FULL_SUN),
            vec![
                (Seconds::from_milli(6.0), Seconds::from_milli(14.0)),
                (Seconds::from_milli(30.0), Seconds::from_milli(38.0)),
            ],
        );
        Simulation::new(config, light, Volts::new(1.1)).map_err(|e| infra(e.to_string()))
    };
    let mut sim = make_sim()?;
    let mut controller = FixedVoltageController::new(Volts::new(0.6));
    let dt = sim.config().dt;
    let steps = (60.0e-3 / dt.seconds()).round() as u64;
    let mut trace = Vec::with_capacity(steps as usize);
    let mut last_cycles = sim.total_cycles().count();
    let mut last_brownouts = sim.events().brownouts();
    for _ in 0..steps {
        sim.step(&mut controller);
        let now = sim.total_cycles().count();
        let delta = now - last_cycles;
        last_cycles = now;
        let brownouts = sim.events().brownouts();
        let browned = brownouts > last_brownouts;
        last_brownouts = brownouts;
        trace.push((delta, browned));
    }

    let chain = TaskChain::recognition_loop();
    let mut lines = Vec::new();
    for policy in [
        CheckpointPolicy::EveryTask,
        CheckpointPolicy::EveryNTasks(2),
        CheckpointPolicy::ChainBoundary,
    ] {
        let schedule =
            Schedule::new(&chain, policy, &NvmModel::fram()).map_err(|e| infra(e.to_string()))?;
        let mut node = NodeState::new(0);
        let mut positions: Vec<u64> = Vec::new();
        for &(delta, browned) in &trace {
            if browned {
                node.rollback(&schedule);
            }
            if delta > 0.0 {
                let mut observe = |pos: u64| positions.push(pos);
                node.execute(&schedule, delta, Some(&mut observe));
            }
        }
        let len = (chain.len() as u64).max(1);
        let events: Vec<hems_intermittent::CommitEvent> = positions
            .iter()
            .map(|pos| hems_intermittent::CommitEvent {
                at: Seconds::ZERO,
                iteration: pos / len,
                task: (pos % len) as usize,
            })
            .collect();
        lines.push(
            Value::obj(vec![
                ("policy", Value::str(format!("{policy:?}"))),
                ("commits", Value::Num(node.committed as f64)),
                ("rollbacks", Value::Num(node.rollbacks as f64)),
                (
                    "digest",
                    Value::str(format!("{:016x}", digest_events(&events))),
                ),
                ("useful_cycles", Value::Num(node.useful)),
                ("checkpoint_cycles", Value::Num(node.checkpoint)),
                ("wasted_cycles", Value::Num(node.wasted)),
            ])
            .render(),
        );
    }
    Ok(Fixture {
        name: "commit_stream",
        lines,
    })
}

/// Canonical cache keys for the fixed spec/kind grid: any drift here
/// silently invalidates every warm cache in the serve tier, so it is
/// pinned bit-for-bit.
fn cache_keys_fixture() -> Fixture {
    let mut lines = Vec::new();
    for kind in [
        QueryKind::OptimalPoint,
        QueryKind::Mep,
        QueryKind::Bypass,
        QueryKind::SweepSummary,
    ] {
        for spec in plan_specs(kind) {
            if let Ok((config, policy)) = spec.build() {
                let key = spec.cache_key(kind, &config, &policy);
                lines.push(
                    Value::obj(vec![
                        ("query", Value::str(kind.as_wire())),
                        ("irradiance", Value::Num(spec.irradiance)),
                        ("regulator", Value::str(regulator_name(spec.regulator))),
                        ("key", Value::str(format!("{key:016x}"))),
                    ])
                    .render(),
                );
            }
        }
    }
    Fixture {
        name: "cache_keys",
        lines,
    }
}

/// The raw request wire format for the fixed spec set.
fn proto_lines_fixture() -> Fixture {
    let mut lines = Vec::new();
    for (i, kind) in [
        QueryKind::OptimalPoint,
        QueryKind::Mep,
        QueryKind::Bypass,
        QueryKind::Sprint,
        QueryKind::SweepSummary,
    ]
    .iter()
    .enumerate()
    {
        let mut spec = ScenarioSpec::baseline(0.5);
        if *kind == QueryKind::Sprint {
            spec.deadline = Some(0.02);
        }
        lines.push(Request::render_line(i as i64, *kind, Some(&spec)));
    }
    lines.push(Request::render_line(99, QueryKind::Stats, None));
    Fixture {
        name: "proto_lines",
        lines,
    }
}

/// A small fleet campaign's report, pinned by FNV digest plus line
/// count (the full report is thousands of lines; the digest covers
/// every byte of it).
fn fleet_digest_fixture() -> Result<Fixture, ConformanceError> {
    let infra = |e: String| ConformanceError::new("fleet fixture", e);
    let mut lines = Vec::new();
    for seed in [41u64, 42u64] {
        let mut config = FleetConfig::new(seed, 24);
        config.days = 1;
        config.grid_w = 8;
        config.grid_h = 8;
        config.storms_per_day = 1;
        config.sampled = 2;
        let fleet = Fleet::new(config).map_err(|e| infra(e.to_string()))?;
        let mut source = AnalyticPlans::new();
        let report = fleet.run(&mut source).map_err(|e| infra(e.to_string()))?;
        let rendered = report.render_lines().map_err(|e| infra(e.to_string()))?;
        let mut hasher = KeyHasher::new();
        hasher.write_tag("fleet-report");
        hasher.write_bytes(rendered.as_bytes());
        lines.push(
            Value::obj(vec![
                ("seed", Value::Num(seed as f64)),
                ("nodes", Value::Num(24.0)),
                ("report_lines", Value::Num(rendered.lines().count() as f64)),
                ("digest", Value::str(format!("{:016x}", hasher.finish()))),
            ])
            .render(),
        );
    }
    Ok(Fixture {
        name: "fleet_digest",
        lines,
    })
}

// ---------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------

/// Compares a fixture's current text against its committed golden.
/// `None` means bit-for-bit identical; `Some` carries the field-level
/// report.
pub fn diff(name: &str, golden: &str, current: &str) -> Option<String> {
    if golden == current {
        return None;
    }
    let mut report = format!("fixture '{name}' diverges from its golden:\n");
    let golden_lines: Vec<&str> = golden.lines().collect();
    let current_lines: Vec<&str> = current.lines().collect();
    if golden_lines.len() != current_lines.len() {
        report.push_str(&format!(
            "  line count: golden {} vs current {}\n",
            golden_lines.len(),
            current_lines.len()
        ));
    }
    let mut reported = 0usize;
    for (i, (g, c)) in golden_lines.iter().zip(current_lines.iter()).enumerate() {
        if g == c {
            continue;
        }
        if reported >= 8 {
            report.push_str("  … further differing lines elided\n");
            break;
        }
        reported += 1;
        match (json::parse(g), json::parse(c)) {
            (Ok(gv), Ok(cv)) => {
                let mut diffs = Vec::new();
                value_diffs(&format!("line {}", i + 1), &gv, &cv, &mut diffs);
                if diffs.is_empty() {
                    // Semantically equal but byte-different (e.g. key
                    // order): still a conformance break.
                    report.push_str(&format!(
                        "  line {}: byte-level drift with equal values\n    golden:  {g}\n    current: {c}\n",
                        i + 1
                    ));
                } else {
                    for d in diffs.iter().take(8) {
                        report.push_str(&format!("  {d}\n"));
                    }
                }
            }
            _ => {
                report.push_str(&format!(
                    "  line {}: unparseable side\n    golden:  {g}\n    current: {c}\n",
                    i + 1
                ));
            }
        }
    }
    Some(report)
}

/// Walks two JSON values in parallel, recording every leaf difference
/// with its path; numbers get bit patterns and ulp distance.
fn value_diffs(path: &str, golden: &Value, current: &Value, out: &mut Vec<String>) {
    match (golden, current) {
        (Value::Obj(g), Value::Obj(c)) => {
            for (key, gv) in g {
                match c.iter().find(|(k, _)| k == key) {
                    Some((_, cv)) => value_diffs(&format!("{path}.{key}"), gv, cv, out),
                    None => out.push(format!("{path}.{key}: missing from current")),
                }
            }
            for (key, _) in c {
                if !g.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}.{key}: not in golden"));
                }
            }
        }
        (Value::Arr(g), Value::Arr(c)) => {
            if g.len() != c.len() {
                out.push(format!(
                    "{path}: array length golden {} vs current {}",
                    g.len(),
                    c.len()
                ));
            }
            for (i, (gv, cv)) in g.iter().zip(c.iter()).enumerate() {
                value_diffs(&format!("{path}[{i}]"), gv, cv, out);
            }
        }
        (Value::Num(g), Value::Num(c)) => {
            if g.to_bits() != c.to_bits() {
                out.push(format!(
                    "{path}: golden {g} (0x{:016x}) vs current {c} (0x{:016x}), {} ulp apart",
                    g.to_bits(),
                    c.to_bits(),
                    ulp_distance(*g, *c)
                ));
            }
        }
        (g, c) => {
            if g != c {
                out.push(format!(
                    "{path}: golden {} vs current {}",
                    g.render(),
                    c.render()
                ));
            }
        }
    }
}

/// Distance between two floats in units-in-the-last-place, via the
/// monotone total-order mapping of the bit patterns (saturates at
/// `u64::MAX` across a sign change of distant values).
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    let key = |x: f64| -> i128 {
        let bits = x.to_bits() as i64 as i128;
        if bits < 0 {
            (i64::MIN as i128) - bits
        } else {
            bits
        }
    };
    let d = key(a) - key(b);
    u64::try_from(d.abs()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Check / bless
// ---------------------------------------------------------------------

/// Diffs every fixture against the goldens in `dir`. Returns the list
/// of mismatch reports (empty = all fixtures bit-for-bit identical)
/// plus the number of fixtures checked.
///
/// # Errors
///
/// Propagates capture failures; a missing or unreadable golden file is
/// a *mismatch report*, not an error, so `--check` can enumerate every
/// stale fixture in one run.
pub fn check_dir(dir: &Path) -> Result<(usize, Vec<String>), ConformanceError> {
    let fixtures = capture_all()?;
    let mut reports = Vec::new();
    for fixture in &fixtures {
        let path = dir.join(format!("{}.ndjson", fixture.name));
        match fs::read_to_string(&path) {
            Ok(golden) => {
                if let Some(report) = diff(fixture.name, &golden, &fixture.text()) {
                    reports.push(report);
                }
            }
            Err(e) => reports.push(format!(
                "fixture '{}': golden {} unreadable ({e}) — run --bless",
                fixture.name,
                path.display()
            )),
        }
    }
    Ok((fixtures.len(), reports))
}

/// Recaptures every fixture into `dir`, overwriting the goldens.
/// Returns the number of files written.
///
/// # Errors
///
/// Propagates capture and filesystem failures.
pub fn bless_dir(dir: &Path) -> Result<usize, ConformanceError> {
    let fixtures = capture_all()?;
    fs::create_dir_all(dir)
        .map_err(|e| ConformanceError::new("bless", format!("mkdir {}: {e}", dir.display())))?;
    for fixture in &fixtures {
        let path = dir.join(format!("{}.ndjson", fixture.name));
        fs::write(&path, fixture.text()).map_err(|e| {
            ConformanceError::new("bless", format!("write {}: {e}", path.display()))
        })?;
    }
    Ok(fixtures.len())
}
