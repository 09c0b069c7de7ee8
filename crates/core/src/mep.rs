//! The holistic minimum-energy point (paper Section V, eq. 5).
//!
//! The conventional MEP minimizes the processor's own energy per cycle,
//! `E_cyc(V) = E_dyn(V) + E_leak(V)`. In a fully integrated system the
//! energy is drawn *through the regulator*, whose efficiency is itself a
//! function of the output voltage and load, so the correct objective is
//!
//! ```text
//! E_sys(V) = E_cyc(V) / η(V_in → V, P_cpu(V))
//! ```
//!
//! Because `η` collapses at low output voltage and light load (fixed
//! converter losses dominate the shrinking CPU power), the system MEP sits
//! *above* the conventional MEP — by ≈ 0.1 V in the paper — and running at
//! the conventional point wastes up to ≈ 31 % energy (Fig. 7b, Fig. 11a).

use crate::{CoreError, CpuEval};
use hems_cpu::MepPoint;
use hems_regulator::Regulator;
use hems_units::{solve, Joules, Volts};

/// The system-level MEP through one regulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemMep {
    /// The minimizing supply voltage.
    pub vdd: Volts,
    /// System energy per cycle there (CPU energy / regulator efficiency).
    pub energy_per_cycle: Joules,
    /// The rail (solar-node) voltage assumed for the regulator.
    pub v_in: Volts,
}

/// Conventional-vs-holistic MEP comparison (Fig. 7b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MepComparison {
    /// The conventional (CPU-only) MEP.
    pub conventional: MepPoint,
    /// The holistic (system) MEP through the regulator.
    pub holistic: SystemMep,
    /// System energy per cycle if one (wrongly) runs at the conventional
    /// MEP voltage through the regulator.
    pub system_energy_at_conventional: Joules,
}

impl MepComparison {
    /// How far the holistic MEP shifted above the conventional one.
    pub fn voltage_shift(&self) -> Volts {
        self.holistic.vdd - self.conventional.vdd
    }

    /// Fraction of energy saved by operating at the holistic MEP instead
    /// of the conventional MEP (both measured at the system level).
    pub fn energy_savings(&self) -> f64 {
        1.0 - self.holistic.energy_per_cycle / self.system_energy_at_conventional
    }
}

/// System energy per cycle at `vdd` (max-speed convention), or `None`
/// where the CPU or the regulator cannot operate.
///
/// Generic over [`CpuEval`]: pass the exact processor for the reference
/// answer or a `CpuLut` for the fast path.
pub fn system_energy_per_cycle(
    cpu: &impl CpuEval,
    regulator: &dyn Regulator,
    v_in: Volts,
    vdd: Volts,
) -> Option<Joules> {
    let p_cpu = cpu.pmax(vdd)?;
    let e_cyc = cpu.ecycle(vdd);
    if !e_cyc.joules().is_finite() {
        return None;
    }
    let eta = regulator.efficiency(v_in, vdd, p_cpu).ok()?;
    if eta.ratio() <= 0.0 {
        return None;
    }
    Some(Joules::new(e_cyc.joules() / eta.ratio()))
}

/// Finds the holistic MEP of eq. 5 over the processor window, with the
/// rail held at `v_in` (normally the cell's MPP voltage).
///
/// # Errors
///
/// Returns [`CoreError::Infeasible`] when no voltage in the window is
/// servable through the regulator, and propagates solver failures.
pub fn system_mep(
    cpu: &impl CpuEval,
    regulator: &dyn Regulator,
    v_in: Volts,
) -> Result<SystemMep, CoreError> {
    let (v, e) = solve::minimize(
        |v| match system_energy_per_cycle(cpu, regulator, v_in, Volts::new(v)) {
            Some(e) => e.joules(),
            None => f64::NAN,
        },
        cpu.processor().v_min().volts(),
        cpu.processor().v_max().volts(),
        // 128 grid points step ~5 mV across the processor window — still
        // several samples per SC ratio-cliff basin (those are tens of mV
        // wide), at half the scan cost of the previous 256.
        128,
    )
    .map_err(|err| match err {
        hems_units::SolveError::NonFiniteObjective { .. } => CoreError::infeasible(
            "system mep",
            format!("no supply voltage is servable from rail {v_in}"),
        ),
        other => CoreError::from(other),
    })?;
    Ok(SystemMep {
        vdd: Volts::new(v),
        energy_per_cycle: Joules::new(e),
        v_in,
    })
}

/// Computes the full conventional-vs-holistic comparison of Fig. 7b.
///
/// # Errors
///
/// Propagates failures of either MEP search, and returns
/// [`CoreError::Infeasible`] when the conventional MEP voltage is not even
/// servable through the regulator.
pub fn compare_meps(
    cpu: &impl CpuEval,
    regulator: &dyn Regulator,
    v_in: Volts,
) -> Result<MepComparison, CoreError> {
    let conventional = cpu
        .processor()
        .conventional_mep()
        .map_err(|e| CoreError::component("processor", e))?;
    let holistic = system_mep(cpu, regulator, v_in)?;
    let system_energy_at_conventional =
        system_energy_per_cycle(cpu, regulator, v_in, conventional.vdd).ok_or_else(|| {
            CoreError::infeasible(
                "mep comparison",
                format!(
                    "conventional MEP voltage {} not servable from rail {v_in}",
                    conventional.vdd
                ),
            )
        })?;
    Ok(MepComparison {
        conventional,
        holistic,
        system_energy_at_conventional,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_cpu::Microprocessor;
    use hems_regulator::{BuckRegulator, Ldo, ScRegulator};

    fn rail() -> Volts {
        // Full-sun MPP voltage of the paper's cell, ~1.1 V.
        Volts::new(1.1)
    }

    #[test]
    fn holistic_mep_shifts_upward_with_sc_regulator() {
        // Paper Fig. 7b: "The minimum energy voltage is shifted higher than
        // conventional method with SC and buck regulator cases by up to
        // 0.1V".
        let cpu = Microprocessor::paper_65nm();
        let sc = ScRegulator::paper_65nm();
        let cmp = compare_meps(&cpu, &sc, rail()).unwrap();
        let shift = cmp.voltage_shift();
        assert!(
            shift > Volts::from_milli(30.0) && shift <= Volts::from_milli(120.0),
            "shift {} (paper: up to 0.1 V)",
            shift
        );
    }

    #[test]
    fn sc_savings_match_fig7b_band() {
        // Paper: "up to 31% energy reduction compared with using
        // conventional MEP".
        let cpu = Microprocessor::paper_65nm();
        let sc = ScRegulator::paper_65nm();
        let cmp = compare_meps(&cpu, &sc, rail()).unwrap();
        let savings = cmp.energy_savings();
        assert!(
            (0.15..0.40).contains(&savings),
            "savings {:.1}% (paper: up to 31%)",
            savings * 100.0
        );
    }

    #[test]
    fn buck_also_shifts_but_ldo_barely_moves() {
        let cpu = Microprocessor::paper_65nm();
        let buck_cmp = compare_meps(&cpu, &BuckRegulator::paper_65nm(), rail()).unwrap();
        assert!(buck_cmp.voltage_shift() > Volts::from_milli(20.0));
        // The LDO's efficiency is linear in V, which nearly cancels in the
        // optimization: the MEP moves only slightly ("LDO does not bring
        // any efficiency improvement").
        let ldo_cmp = compare_meps(&cpu, &Ldo::paper_65nm(), rail()).unwrap();
        assert!(
            ldo_cmp.voltage_shift().abs() < buck_cmp.voltage_shift(),
            "LDO shift {} vs buck {}",
            ldo_cmp.voltage_shift(),
            buck_cmp.voltage_shift()
        );
    }

    #[test]
    fn system_energy_exceeds_cpu_energy() {
        let cpu = Microprocessor::paper_65nm();
        let sc = ScRegulator::paper_65nm();
        for v in [0.5, 0.6, 0.8] {
            let vdd = Volts::new(v);
            let sys = system_energy_per_cycle(&cpu, &sc, rail(), vdd).unwrap();
            let raw = cpu.energy_per_cycle(vdd);
            assert!(sys > raw, "at {vdd}: sys {sys:?} <= raw {raw:?}");
        }
    }

    #[test]
    fn unservable_points_are_none() {
        let cpu = Microprocessor::paper_65nm();
        let buck = BuckRegulator::paper_65nm();
        // The buck cannot regulate above 0.8 V.
        assert!(system_energy_per_cycle(&cpu, &buck, rail(), Volts::new(0.9)).is_none());
        // Or below the CPU window.
        assert!(system_energy_per_cycle(&cpu, &buck, rail(), Volts::new(0.2)).is_none());
    }

    #[test]
    fn holistic_mep_is_a_true_minimum() {
        let cpu = Microprocessor::paper_65nm();
        let sc = ScRegulator::paper_65nm();
        let mep = system_mep(&cpu, &sc, rail()).unwrap();
        for dv in [-0.05, 0.05, 0.15] {
            let v = mep.vdd + Volts::new(dv);
            if let Some(e) = system_energy_per_cycle(&cpu, &sc, rail(), v) {
                assert!(e + Joules::new(1e-18) >= mep.energy_per_cycle);
            }
        }
    }

    #[test]
    fn rail_too_low_is_infeasible() {
        let cpu = Microprocessor::paper_65nm();
        let buck = BuckRegulator::paper_65nm();
        // Rail below the buck's minimum output: nothing servable.
        assert!(system_mep(&cpu, &buck, Volts::new(0.2)).is_err());
    }
}
