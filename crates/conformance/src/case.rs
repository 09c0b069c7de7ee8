//! Seeded case generation: one `u64` seed → one fully-specified fuzz
//! input covering every oracle's domain.
//!
//! A [`CaseInput`] is a *value* — `Clone + PartialEq`, no hidden state —
//! so the shrinker can propose simplified variants and compare them, and
//! a repro line can rebuild the exact input from `(seed, shrink steps)`.
//! Generation is a pure function of the seed through
//! [`hems_units::XorShiftRng`]; nothing here reads a clock or the
//! environment.

use hems_serve::proto::{PolicySpec, RegulatorChoice};
use hems_serve::{QueryKind, Request, ScenarioSpec, Value};
use hems_units::XorShiftRng;

/// One scripted controller decision (the adversarial-controller fuzz
/// from the original `tests/property_fuzz.rs`, now seed-driven).
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptStep {
    /// Power path selector: `0` regulated, `1` bypass, `2` sleep.
    pub kind: u8,
    /// Requested supply voltage for the regulated path, volts.
    pub vdd: f64,
    /// Requested clock fraction in `(0, 1]`.
    pub clock_fraction: f64,
}

/// A complete differential-fuzz input. Each oracle reads the fields it
/// needs and ignores the rest, so one generator (and one shrinker)
/// serves all of them.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseInput {
    /// Planning scenarios (1–3): drive the solver, sweep, and serve
    /// oracles.
    pub specs: Vec<ScenarioSpec>,
    /// Frontier sample count / slab sizing knob, `≥ 2`.
    pub grid_n: usize,
    /// Transient duration for the physics and fleet oracles, ms.
    pub duration_ms: f64,
    /// Light outage windows `(start_ms, end_ms)` with `end > start ≥ 0`,
    /// for the fleet differential oracle.
    pub outages: Vec<(f64, f64)>,
    /// NDJSON frames (well-formed, torn, spliced, bit-flipped) for the
    /// codec oracle.
    pub frames: Vec<String>,
    /// Scripted controller decisions for the physics oracle.
    pub script: Vec<ScriptStep>,
    /// Worker-thread count for the multi-threaded engines, `≥ 1`.
    pub threads: usize,
    /// Checkpoint-policy selector for the fleet oracle (mod 3).
    pub policy_index: usize,
    /// Initial solar-node voltage for the physics oracle, volts.
    pub v_initial: f64,
    /// Sub-seed for light profiles and evaluation slabs.
    pub light_seed: u64,
}

/// Specs below this light fraction count as *dark-band*: exact-vs-LUT
/// feasibility may legitimately flip there, and the planted self-test
/// oracle treats them as its "known divergence".
pub const DARK_BAND: f64 = 0.05;

impl CaseInput {
    /// Generates the input for one case seed. Pure and total: every
    /// `u64` yields a valid input.
    pub fn generate(seed: u64) -> CaseInput {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let n_specs = 1 + rng.below_u32(3) as usize;
        let mut specs = Vec::with_capacity(n_specs);
        for _ in 0..n_specs {
            specs.push(generate_spec(&mut rng));
        }
        let grid_n = 2 + rng.below_u32(15) as usize;
        let duration_ms = rng.range_f64(4.0, 20.0);
        let n_outages = rng.below_u32(3) as usize;
        let mut outages = Vec::with_capacity(n_outages);
        for _ in 0..n_outages {
            let start = rng.range_f64(0.0, duration_ms * 0.6);
            let len = rng.range_f64(duration_ms * 0.08, duration_ms * 0.4);
            outages.push((start, start + len));
        }
        let frames = generate_frames(&mut rng, &specs);
        let n_steps = 1 + rng.below_u32(5) as usize;
        let mut script = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            script.push(ScriptStep {
                kind: rng.below_u32(3) as u8,
                vdd: rng.range_f64(0.01, 1.6),
                clock_fraction: rng.range_f64(0.05, 1.0),
            });
        }
        let threads = 2 + rng.below_u32(3) as usize;
        let policy_index = rng.below_u32(3) as usize;
        let v_initial = rng.range_f64(0.55, 1.45);
        let light_seed = rng.next_u64();
        CaseInput {
            specs,
            grid_n,
            duration_ms,
            outages,
            frames,
            script,
            threads,
            policy_index,
            v_initial,
            light_seed,
        }
    }

    /// `true` when any planning scenario sits in the dark band where
    /// exact-vs-LUT feasibility can flip.
    pub fn has_dark_spec(&self) -> bool {
        self.specs.iter().any(|s| s.irradiance < DARK_BAND)
    }
}

/// One random planning scenario. Roughly one in eight lands in the dark
/// band to keep the dark-cell fallback paths (LUT build failure, batch
/// group fallback, serve error answers) under continuous test.
fn generate_spec(rng: &mut XorShiftRng) -> ScenarioSpec {
    let irradiance = if rng.below_u32(8) == 0 {
        rng.range_f64(1e-4, DARK_BAND * 0.8)
    } else {
        rng.range_f64(DARK_BAND, 1.2)
    };
    let mut spec = ScenarioSpec::baseline(irradiance);
    if rng.below_u32(2) == 0 {
        spec.capacitance = Some(rng.range_f64(2e-6, 1e-4));
    }
    spec.regulator = match rng.below_u32(3) {
        0 => RegulatorChoice::Sc,
        1 => RegulatorChoice::Ldo,
        _ => RegulatorChoice::Buck,
    };
    spec.policy = if rng.below_u32(2) == 0 {
        PolicySpec::Fixed {
            vdd: rng.range_f64(0.3, 1.1),
            clock_fraction: rng.range_f64(0.05, 1.0),
        }
    } else {
        PolicySpec::Duty {
            v_run: rng.range_f64(0.9, 1.25),
            v_stop: rng.range_f64(0.55, 0.85),
            vdd: rng.range_f64(0.3, 0.8),
        }
    };
    spec.v_initial = rng.range_f64(0.7, 1.3);
    spec.duration = rng.range_f64(0.002, 0.006);
    if rng.below_u32(3) == 0 {
        spec.deadline = Some(rng.range_f64(0.002, 0.01));
    }
    spec
}

/// NDJSON frames for the codec oracle: well-formed request lines run
/// through the chaos-proxy fault model (tears at arbitrary byte
/// positions, splices of a different frame's tail, single bit flips) —
/// the exact mutations the serve torn-frame fuzz used, now seeded here.
fn generate_frames(rng: &mut XorShiftRng, specs: &[ScenarioSpec]) -> Vec<String> {
    let n = 2 + rng.below_u32(5) as usize;
    let mut frames = Vec::with_capacity(n);
    for _ in 0..n {
        let spec = specs
            .get(rng.below_u32(specs.len().max(1) as u32) as usize)
            .cloned()
            .unwrap_or_else(|| ScenarioSpec::baseline(0.5));
        let kind = match rng.below_u32(5) {
            0 => QueryKind::OptimalPoint,
            1 => QueryKind::Mep,
            2 => QueryKind::Bypass,
            3 => QueryKind::Sprint,
            _ => QueryKind::SweepSummary,
        };
        let line = Request::render_line_with_id(
            &Value::Num(rng.below_u32(1000) as f64),
            kind,
            Some(&spec),
        );
        frames.push(mutate_frame(rng, &line));
    }
    frames
}

/// Applies zero or more of: tear, tail splice, single bit flip.
/// Lossy-decodes back to a string, as the wire reader would.
fn mutate_frame(rng: &mut XorShiftRng, line: &str) -> String {
    let bytes = line.as_bytes();
    if bytes.is_empty() || rng.below_u32(4) == 0 {
        return line.to_string(); // one in four frames arrives intact
    }
    let cut = rng.below_u32(bytes.len() as u32) as usize;
    let mut mutated = bytes.get(..cut).unwrap_or_default().to_vec();
    if rng.below_u32(2) == 0 {
        let tail = rng.below_u32(bytes.len() as u32) as usize;
        mutated.extend_from_slice(bytes.get(tail..).unwrap_or_default());
    }
    if !mutated.is_empty() && rng.below_u32(2) == 0 {
        let flip = rng.below_u32(mutated.len() as u32) as usize;
        if let Some(b) = mutated.get_mut(flip) {
            *b ^= (1 + rng.below_u32(255)) as u8;
        }
    }
    String::from_utf8_lossy(&mutated).into_owned()
}
