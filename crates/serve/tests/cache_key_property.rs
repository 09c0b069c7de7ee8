//! Property test: `ScenarioSpec::cache_key` is a plan query's identity.
//!
//! Across seeded random specs (vendored xorshift, no new deps):
//!
//! * **stable** — a spec and its clone key equal;
//! * **sensitive** — changing the query kind or any one spec field that
//!   reaches an answer changes the key;
//! * **complete** — every config a spec builds is the paper's Fig. 10
//!   system except in the three quantities the key reads back from it
//!   (cell irradiance, capacitance, regulator topology). A future spec
//!   field that reaches the config without reaching the key fails here.

use hems_regulator::{AnyRegulator, Regulator};
use hems_serve::proto::{PolicySpec, QueryKind, RegulatorChoice, ScenarioSpec};
use hems_sim::SystemConfig;
use hems_storage::Capacitor;
use hems_units::XorShiftRng;

const PLAN_KINDS: [QueryKind; 5] = [
    QueryKind::OptimalPoint,
    QueryKind::Mep,
    QueryKind::Bypass,
    QueryKind::Sprint,
    QueryKind::SweepSummary,
];

const REGULATORS: [RegulatorChoice; 3] = [
    RegulatorChoice::Sc,
    RegulatorChoice::Ldo,
    RegulatorChoice::Buck,
];

fn key(kind: QueryKind, spec: &ScenarioSpec) -> u64 {
    let (config, policy) = spec.build().expect("generated specs build");
    spec.cache_key(kind, &config, &policy)
}

fn pick<T: Copy>(rng: &mut XorShiftRng, items: &[T]) -> T {
    items[rng.below_u32(items.len() as u32) as usize]
}

/// A different positive value: `value` scaled up by at least 1e-9.
fn nudge(rng: &mut XorShiftRng, value: f64) -> f64 {
    value * (1.0 + rng.range_f64(1e-9, 0.5))
}

fn random_spec(rng: &mut XorShiftRng) -> ScenarioSpec {
    let policy = if rng.below_u32(2) == 0 {
        PolicySpec::Fixed {
            vdd: rng.range_f64(0.4, 1.0),
            clock_fraction: rng.range_f64(0.1, 1.0),
        }
    } else {
        PolicySpec::Duty {
            v_run: rng.range_f64(0.9, 1.3),
            v_stop: rng.range_f64(0.5, 0.9),
            vdd: rng.range_f64(0.4, 1.0),
        }
    };
    ScenarioSpec {
        irradiance: rng.range_f64(0.0, 1.3),
        capacitance: (rng.below_u32(2) == 0).then(|| rng.range_f64(1e-6, 1e-3)),
        regulator: pick(rng, &REGULATORS),
        policy,
        v_initial: rng.range_f64(0.5, 1.4),
        duration: rng.range_f64(0.01, 0.1),
        deadline: (rng.below_u32(2) == 0).then(|| rng.range_f64(0.005, 0.05)),
    }
}

/// Every single-field change a spec can take, each to a value that
/// builds. `which` selects one; the names label assertion failures.
const PERTURBATIONS: [&str; 11] = [
    "irradiance",
    "capacitance",
    "regulator",
    "policy variant",
    "policy vdd",
    "policy clock_fraction or v_run",
    "policy clock_fraction or v_stop",
    "v_initial",
    "duration",
    "deadline presence",
    "deadline value",
];

fn perturb(spec: &ScenarioSpec, which: usize, rng: &mut XorShiftRng) -> ScenarioSpec {
    let mut out = spec.clone();
    match which {
        0 => out.irradiance = nudge(rng, spec.irradiance.max(1e-3)),
        1 => {
            out.capacitance = Some(nudge(
                rng,
                spec.capacitance
                    .unwrap_or(Capacitor::paper_board().capacitance().farads()),
            ))
        }
        2 => {
            while out.regulator == spec.regulator {
                out.regulator = pick(rng, &REGULATORS);
            }
        }
        3 => {
            out.policy = match spec.policy {
                PolicySpec::Fixed { vdd, .. } => PolicySpec::Duty {
                    v_run: 1.0,
                    v_stop: 0.8,
                    vdd,
                },
                PolicySpec::Duty { vdd, .. } => PolicySpec::Fixed {
                    vdd,
                    clock_fraction: 1.0,
                },
            }
        }
        4..=6 => match &mut out.policy {
            PolicySpec::Fixed {
                vdd,
                clock_fraction,
            } => {
                let field = if which == 4 { vdd } else { clock_fraction };
                *field = nudge(rng, *field);
            }
            PolicySpec::Duty { v_run, v_stop, vdd } => {
                let field = [vdd, v_run, v_stop].into_iter().nth(which - 4).expect("3");
                *field = nudge(rng, *field);
            }
        },
        7 => out.v_initial = nudge(rng, spec.v_initial),
        8 => out.duration = nudge(rng, spec.duration),
        9 => out.deadline = spec.deadline.xor(Some(0.02)),
        _ => out.deadline = Some(nudge(rng, spec.deadline.unwrap_or(0.02))),
    }
    out
}

/// The config a spec must build from the three keyed quantities alone:
/// the paper's system with the cell at the built irradiance, the board
/// capacitor resized to the built capacitance and the paper regulator of
/// the built topology.
fn fig10_system(config: &SystemConfig) -> SystemConfig {
    let mut expect = SystemConfig::paper_sc_system().expect("paper system");
    expect.cell.set_irradiance(config.cell.irradiance());
    let board = Capacitor::paper_board();
    expect.capacitor =
        Capacitor::new(config.capacitor.capacitance(), board.v_rating()).expect("valid capacitor");
    if let Some(r_leak) = board.leakage_resistance() {
        expect.capacitor = expect.capacitor.with_leakage(r_leak).expect("valid leak");
    }
    let kind = config.regulator.kind();
    expect.regulator = AnyRegulator::paper_lineup()
        .into_iter()
        .find(|r| r.kind() == kind)
        .expect("a paper topology");
    expect
}

#[test]
fn keys_are_stable_sensitive_and_complete() {
    let mut rng = XorShiftRng::seed_from_u64(0x5eed_cafe);
    for round in 0..300 {
        let spec = random_spec(&mut rng);
        let kind = pick(&mut rng, &PLAN_KINDS);
        let k = key(kind, &spec);
        assert_eq!(k, key(kind, &spec.clone()), "round {round}: clone");

        let (config, _) = spec.build().expect("generated specs build");
        assert_eq!(config, fig10_system(&config), "round {round}: {spec:?}");

        let mut other_kind = kind;
        while other_kind == kind {
            other_kind = pick(&mut rng, &PLAN_KINDS);
        }
        assert_ne!(k, key(other_kind, &spec), "round {round}: query kind");

        for (which, name) in PERTURBATIONS.iter().enumerate() {
            let changed = perturb(&spec, which, &mut rng);
            assert_ne!(changed, spec, "round {round}: {name} must change the spec");
            assert_ne!(
                k,
                key(kind, &changed),
                "round {round}: {name} must reach the key"
            );
        }
    }
}

#[test]
fn zero_light_signs_key_apart() {
    // A sweep label renders `g=-0% sun` for -0.0, so a cached +0.0 answer
    // must never serve a -0.0 request.
    let positive = ScenarioSpec::baseline(0.0);
    let negative = ScenarioSpec {
        irradiance: -0.0,
        ..positive.clone()
    };
    for kind in PLAN_KINDS {
        assert_ne!(key(kind, &positive), key(kind, &negative), "{kind:?}");
    }
}

#[test]
fn an_omitted_capacitance_keys_as_the_board_capacitor() {
    let omitted = ScenarioSpec::baseline(0.5);
    let board = ScenarioSpec {
        capacitance: Some(Capacitor::paper_board().capacitance().farads()),
        ..omitted.clone()
    };
    assert_eq!(key(QueryKind::Mep, &omitted), key(QueryKind::Mep, &board));
}

#[test]
fn policy_variants_and_fields_distinguish() {
    let fixed = ScenarioSpec::baseline(0.5);
    let duty = ScenarioSpec {
        policy: PolicySpec::Duty {
            v_run: 1.0,
            v_stop: 0.8,
            vdd: 0.55,
        },
        ..fixed.clone()
    };
    let slower = ScenarioSpec {
        policy: PolicySpec::Fixed {
            vdd: 0.55,
            clock_fraction: 0.5,
        },
        ..fixed.clone()
    };
    let kind = QueryKind::SweepSummary;
    assert_ne!(key(kind, &fixed), key(kind, &duty));
    assert_ne!(key(kind, &fixed), key(kind, &slower));
}
