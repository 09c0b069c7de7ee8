//! Figure-level aggregation helpers.
//!
//! These functions assemble exactly the comparisons the paper's evaluation
//! figures plot, so the `hems paper` generator (and EXPERIMENTS.md) can
//! print them as rows without re-deriving the physics.

use crate::{mep, optimal_voltage, CoreError, MepComparison, RegulatedPlan, UnregulatedPoint};
use hems_cpu::Microprocessor;
use hems_pv::{Irradiance, SolarCell};
use hems_regulator::{AnyRegulator, Regulator, RegulatorKind};

/// Fig. 6: the unregulated point vs each regulator's optimal plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Analysis {
    /// The light level analysed.
    pub irradiance: Irradiance,
    /// The unregulated baseline (Fig. 6a intersection).
    pub unregulated: UnregulatedPoint,
    /// Each regulator's optimal plan with its gains (Fig. 6b).
    pub plans: Vec<(RegulatorKind, RegulatedPlan)>,
}

impl Fig6Analysis {
    /// The plan for a given regulator kind, if present.
    pub fn plan(&self, kind: RegulatorKind) -> Option<&RegulatedPlan> {
        self.plans.iter().find(|(k, _)| *k == kind).map(|(_, p)| p)
    }
}

/// Computes Fig. 6 for the paper's regulator lineup at one light level.
///
/// # Errors
///
/// Propagates infeasibility of the unregulated baseline (e.g. darkness);
/// individual regulators that are infeasible are skipped.
pub fn fig6(cell: &SolarCell, cpu: &Microprocessor) -> Result<Fig6Analysis, CoreError> {
    let unregulated = optimal_voltage::unregulated_baseline(cell, cpu)?;
    let mut plans = Vec::new();
    for regulator in AnyRegulator::paper_lineup() {
        if regulator.kind() == RegulatorKind::Bypass {
            continue;
        }
        if let Ok(plan) = optimal_voltage::optimal_regulated_plan(cell, &regulator, cpu) {
            plans.push((regulator.kind(), plan));
        }
    }
    Ok(Fig6Analysis {
        irradiance: cell.irradiance(),
        unregulated,
        plans,
    })
}

/// Fig. 7b / Fig. 11a: conventional-vs-holistic MEP for each regulator.
pub fn fig7b(cpu: &Microprocessor, v_in: hems_units::Volts) -> Vec<(RegulatorKind, MepComparison)> {
    AnyRegulator::paper_lineup()
        .into_iter()
        .filter(|r| r.kind() != RegulatorKind::Bypass)
        .filter_map(|r| mep::compare_meps(cpu, &r, v_in).ok().map(|c| (r.kind(), c)))
        .collect()
}

/// The headline in-text numbers of Sections I and VIII, derived from the
/// other analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadlineNumbers {
    /// Extra power extracted by the holistic SC plan vs unregulated
    /// (paper: ~31 %).
    pub sc_power_gain: f64,
    /// Speedup of the holistic SC plan vs unregulated (paper: ~18 %).
    pub sc_speedup: f64,
    /// Energy saved at the holistic MEP vs the conventional MEP
    /// (paper: up to ~31 %).
    pub mep_savings: f64,
    /// Upward shift of the MEP voltage (paper: up to ~0.1 V).
    pub mep_shift_volts: f64,
}

/// Derives the headline numbers at full sun with the SC regulator.
///
/// # Errors
///
/// Propagates infeasibility from the underlying analyses.
pub fn headline_numbers(cpu: &Microprocessor) -> Result<HeadlineNumbers, CoreError> {
    let cell = SolarCell::kxob22(Irradiance::FULL_SUN);
    let fig6 = fig6(&cell, cpu)?;
    let sc_plan = fig6
        .plan(RegulatorKind::SwitchedCapacitor)
        .ok_or_else(|| CoreError::infeasible("headline numbers", "no SC plan"))?;
    let sc = hems_regulator::ScRegulator::paper_65nm();
    let mpp_v = cell
        .mpp()
        .map_err(|e| CoreError::component("solar cell", e))?
        .voltage;
    let mep_cmp = mep::compare_meps(cpu, &sc, mpp_v)?;
    Ok(HeadlineNumbers {
        sc_power_gain: sc_plan.power_gain_vs(&fig6.unregulated) - 1.0,
        sc_speedup: sc_plan.speedup_vs(&fig6.unregulated) - 1.0,
        mep_savings: mep_cmp.energy_savings(),
        mep_shift_volts: mep_cmp.voltage_shift().volts(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_contains_the_three_regulators() {
        let cell = SolarCell::kxob22(Irradiance::FULL_SUN);
        let cpu = Microprocessor::paper_65nm();
        let analysis = fig6(&cell, &cpu).unwrap();
        assert_eq!(analysis.plans.len(), 3);
        assert!(analysis.plan(RegulatorKind::SwitchedCapacitor).is_some());
        assert!(analysis.plan(RegulatorKind::Buck).is_some());
        assert!(analysis.plan(RegulatorKind::Ldo).is_some());
        assert!(analysis.plan(RegulatorKind::Bypass).is_none());
    }

    #[test]
    fn fig7b_shows_sc_and_buck_shifting() {
        let cpu = Microprocessor::paper_65nm();
        let rows = fig7b(&cpu, hems_units::Volts::new(1.1));
        assert!(rows.len() >= 2);
        for (kind, cmp) in &rows {
            if matches!(kind, RegulatorKind::SwitchedCapacitor | RegulatorKind::Buck) {
                assert!(
                    cmp.voltage_shift().volts() > 0.02,
                    "{kind}: shift {}",
                    cmp.voltage_shift()
                );
            }
        }
    }
}
