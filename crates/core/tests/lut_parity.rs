//! Cross-path parity: every solver fed the LUT device models must agree
//! with the same solver fed the exact models to ≤ 0.1 % — the contract
//! that makes the LUTs a drop-in fast path for every solver.
//!
//! The sweeps mirror the paper's figures: Fig. 6 (operating points vs
//! light level), Fig. 7a (regulated-vs-bypass), Fig. 7b (system MEP), and
//! the sustainable frontier used by the frontier explorer.

use hems_core::{frontier, mep, operating_point, optimal_voltage};
use hems_cpu::{CpuLut, Microprocessor};
use hems_pv::{Irradiance, PvLut, SolarCell};
use hems_regulator::{BuckRegulator, Ldo, Regulator, ScRegulator};

const TOL: f64 = 1e-3; // 0.1 % relative

fn close(fast: f64, exact: f64, what: &str) {
    let denom = exact.abs().max(1e-12);
    assert!(
        (fast - exact).abs() / denom <= TOL,
        "{what}: fast {fast:e} vs exact {exact:e} ({:.3e} rel)",
        (fast - exact).abs() / denom
    );
}

fn light_levels() -> Vec<Irradiance> {
    [1.0, 0.75, 0.5, 0.25, 0.1]
        .into_iter()
        .map(|g| Irradiance::new(g).unwrap())
        .collect()
}

fn regulators() -> Vec<Box<dyn Regulator>> {
    vec![
        Box::new(ScRegulator::paper_65nm()),
        Box::new(BuckRegulator::paper_65nm()),
        Box::new(Ldo::paper_65nm()),
    ]
}

#[test]
fn regulated_plan_parity_across_fig6_sweep() {
    let cpu = Microprocessor::paper_65nm();
    let cpu_lut = CpuLut::build_default(cpu.clone());
    for g in light_levels() {
        let cell = SolarCell::kxob22(g);
        let pv_lut = PvLut::build_default(cell.clone()).unwrap();
        for reg in regulators() {
            let exact = optimal_voltage::optimal_regulated_plan(&cell, reg.as_ref(), &cpu);
            let fast = optimal_voltage::optimal_regulated_plan(&pv_lut, reg.as_ref(), &cpu_lut);
            match (exact, fast) {
                (Ok(e), Ok(f)) => {
                    let tag = format!("{} plan at {g}", reg.kind());
                    close(f.p_cpu.watts(), e.p_cpu.watts(), &format!("{tag}: p_cpu"));
                    close(
                        f.frequency.hertz(),
                        e.frequency.hertz(),
                        &format!("{tag}: frequency"),
                    );
                    // The optimum can sit on a flat plateau; voltages agree
                    // loosely, the delivered power is the real contract.
                    assert!(
                        (f.vdd.volts() - e.vdd.volts()).abs() < 0.02,
                        "{tag}: vdd {} vs {}",
                        f.vdd,
                        e.vdd
                    );
                }
                (Err(_), Err(_)) => {} // both infeasible: agreement
                (e, f) => panic!("{} at {g}: exact {e:?} vs fast {f:?}", reg.kind()),
            }
        }
    }
}

#[test]
fn unregulated_point_parity_across_light() {
    let cpu = Microprocessor::paper_65nm();
    let cpu_lut = CpuLut::build_default(cpu.clone());
    for g in light_levels() {
        let cell = SolarCell::kxob22(g);
        let pv_lut = PvLut::build_default(cell.clone()).unwrap();
        let exact = operating_point::unregulated_point(&cell, &cpu);
        let fast = operating_point::unregulated_point(&pv_lut, &cpu_lut);
        match (exact, fast) {
            (Ok(e), Ok(f)) => {
                close(f.power.watts(), e.power.watts(), &format!("power at {g}"));
                close(
                    f.frequency.hertz(),
                    e.frequency.hertz(),
                    &format!("frequency at {g}"),
                );
                assert!((f.vdd.volts() - e.vdd.volts()).abs() < 2e-3);
            }
            (Err(_), Err(_)) => {}
            (e, f) => panic!("at {g}: exact {e:?} vs fast {f:?}"),
        }
    }
}

#[test]
fn system_mep_parity_fig7b() {
    let cpu = Microprocessor::paper_65nm();
    let cpu_lut = CpuLut::build_default(cpu.clone());
    let rail = hems_units::Volts::new(1.1);
    for reg in regulators() {
        let exact = mep::system_mep(&cpu, reg.as_ref(), rail).unwrap();
        let fast = mep::system_mep(&cpu_lut, reg.as_ref(), rail).unwrap();
        let tag = format!("{} MEP", reg.kind());
        close(
            fast.energy_per_cycle.joules(),
            exact.energy_per_cycle.joules(),
            &format!("{tag}: energy"),
        );
        assert!(
            (fast.vdd.volts() - exact.vdd.volts()).abs() < 5e-3,
            "{tag}: vdd {} vs {}",
            fast.vdd,
            exact.vdd
        );
    }
}

#[test]
fn sustainable_frontier_parity() {
    let cpu = Microprocessor::paper_65nm();
    let cpu_lut = CpuLut::build_default(cpu.clone());
    let sc = ScRegulator::paper_65nm();
    let cell = SolarCell::kxob22(Irradiance::HALF_SUN);
    let pv_lut = PvLut::build_default(cell.clone()).unwrap();
    let exact = frontier::sustainable_frontier(&cell, &sc, &cpu, 33).unwrap();
    let fast = frontier::sustainable_frontier(&pv_lut, &sc, &cpu_lut, 33).unwrap();
    assert_eq!(exact.len(), fast.len(), "same points survive on both paths");
    for (e, f) in exact.iter().zip(&fast) {
        assert_eq!(e.vdd, f.vdd);
        close(
            f.frequency.hertz(),
            e.frequency.hertz(),
            &format!("frontier frequency at {}", e.vdd),
        );
    }
}

#[test]
fn frontier_may_return_fewer_points_than_requested() {
    // The omitted-point contract: dim light through an SC regulator leaves
    // high-voltage grid points unsustainable, so the result is shorter
    // than `n` — and every surviving point is genuinely sustainable and in
    // increasing-voltage order.
    let cpu = Microprocessor::paper_65nm();
    let sc = ScRegulator::paper_65nm();
    let cell = SolarCell::kxob22(Irradiance::new(0.3).unwrap());
    let n = 33;
    let points = frontier::sustainable_frontier(&cell, &sc, &cpu, n).unwrap();
    assert!(
        !points.is_empty() && points.len() < n,
        "expected a partial frontier, got {}/{n} points",
        points.len()
    );
    for pair in points.windows(2) {
        assert!(pair[0].vdd < pair[1].vdd, "order preserved after omission");
    }
    for p in &points {
        assert!(p.frequency.is_positive());
    }
}
