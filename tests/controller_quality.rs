//! Regression pins on the holistic controller's closed-loop quality:
//! it must stay within a few percent of a light-omniscient oracle, its
//! throughput must not fall as the light rises through the low-light
//! bypass crossover, and its brownout rate below a fifth of a sun is
//! bounded (DESIGN.md section 7).
//!
//! These guards exist because controller regressions are silent — every
//! behavioural test can pass while the loop quietly limit-cycles away 25 %
//! of the throughput (which is exactly what happened during development;
//! see DESIGN.md section 7).

use hems_repro::core::{optimal_voltage, HolisticController, Mode};
use hems_repro::cpu::Microprocessor;
use hems_repro::pv::{Irradiance, SolarCell};
use hems_repro::regulator::{Regulator, ScRegulator};
use hems_repro::sim::{Controller, FixedVoltageController, LightProfile, Simulation, SystemConfig};
use hems_repro::units::{Seconds, Volts};

/// Runs a controller on `config` for `secs` of constant light; returns
/// executed megacycles and brownouts.
fn run_on(
    mut config: SystemConfig,
    g: Irradiance,
    secs: f64,
    ctl: &mut dyn Controller,
) -> (f64, usize) {
    config.cell = SolarCell::kxob22(g);
    let mut sim =
        Simulation::new(config, LightProfile::constant(g), Volts::new(1.1)).expect("valid sim");
    let cycles = sim.run(ctl, Seconds::new(secs)).total_cycles.count() / 1e6;
    (cycles, sim.events().brownouts())
}

/// Runs a controller on the SC system for 2 s of constant light; returns
/// executed megacycles.
fn run(g: Irradiance, ctl: &mut dyn Controller) -> f64 {
    let config = SystemConfig::paper_sc_system().expect("valid config");
    run_on(config, g, 2.0, ctl).0
}

fn oracle_fraction(g: Irradiance) -> f64 {
    let cell = SolarCell::kxob22(g);
    let cpu = Microprocessor::paper_65nm();
    let sc = ScRegulator::paper_65nm();
    let plan = optimal_voltage::optimal_regulated_plan(&cell, &sc, &cpu).expect("feasible");
    let mut oracle = FixedVoltageController::with_clock_fraction(
        plan.vdd,
        (plan.clock_fraction * 0.99).clamp(1e-3, 1.0),
    );
    let oracle_cycles = run(g, &mut oracle);
    let mut holistic = HolisticController::paper_default(Mode::MaxPerformance);
    let holistic_cycles = run(g, &mut holistic);
    holistic_cycles / oracle_cycles
}

#[test]
fn holistic_is_near_oracle_at_full_sun() {
    let fraction = oracle_fraction(Irradiance::FULL_SUN);
    assert!(
        fraction > 0.93,
        "holistic achieved only {:.1}% of the full-sun oracle",
        fraction * 100.0
    );
}

#[test]
fn holistic_is_near_oracle_at_half_sun() {
    // This case crosses the SC ratio cliff; it pins the ratio-aware
    // target floor and the recalibration machinery.
    let fraction = oracle_fraction(Irradiance::HALF_SUN);
    assert!(
        fraction > 0.90,
        "holistic achieved only {:.1}% of the half-sun oracle",
        fraction * 100.0
    );
}

/// The paper's system on each of its three regulator topologies.
fn systems() -> [SystemConfig; 3] {
    [
        SystemConfig::paper_sc_system(),
        SystemConfig::paper_buck_system(),
        SystemConfig::paper_ldo_system(),
    ]
    .map(|config| config.expect("valid config"))
}

/// Length of each low-light grid run: long enough to settle into bypass
/// and take one light probe, short enough for a debug build.
const GRID_SECS: f64 = 1.0;

/// Runs the holistic controller at each light on one system.
fn holistic_grid(system: &SystemConfig, lights: &[f64]) -> Vec<(f64, usize)> {
    lights
        .iter()
        .map(|&g| {
            let g = Irradiance::new(g).expect("valid light");
            let mut ctl = HolisticController::paper_default(Mode::MaxPerformance);
            run_on(system.clone(), g, GRID_SECS, &mut ctl)
        })
        .collect()
}

#[test]
fn throughput_does_not_fall_as_light_rises_through_the_crossover() {
    // The controller bypasses below its regulator's crossover and regulates
    // above it; a threshold in the wrong place shows as a light step that
    // loses throughput. DESIGN §7 states the 2 % slack.
    const LIGHTS: [f64; 8] = [0.20, 0.25, 0.28, 0.30, 0.35, 0.40, 0.45, 0.50];
    for system in systems() {
        let name = system.regulator.kind();
        let grid = holistic_grid(&system, &LIGHTS);
        for (i, pair) in grid.windows(2).enumerate() {
            let ((dim, _), (bright, _)) = (pair[0], pair[1]);
            assert!(
                bright >= dim * 0.98,
                "{name}: {bright:.2} Mcycles at {} sun < {dim:.2} at {} sun",
                LIGHTS[i + 1],
                LIGHTS[i]
            );
        }
    }
}

#[test]
fn below_a_fifth_of_a_sun_brownouts_are_bounded() {
    // Below ~0.2 sun even the bypassed cell cannot hold the core up at the
    // tracker's operating point: the loop browns out and recovers about
    // 75 times a second at 0.10 sun and 95 at 0.15 sun on every topology.
    // This pins that rate (DESIGN §7) until a staged low-light mode
    // replaces it.
    const LIGHTS: [f64; 2] = [0.10, 0.15];
    for system in systems() {
        let name = system.regulator.kind();
        for (g, (cycles, brownouts)) in LIGHTS.iter().zip(holistic_grid(&system, &LIGHTS)) {
            let per_second = brownouts as f64 / GRID_SECS;
            assert!(
                per_second <= 100.0,
                "{name}: {per_second} brownouts/s at {g} sun"
            );
            assert!(cycles > 0.0, "{name}: no progress at {g} sun");
        }
    }
}
