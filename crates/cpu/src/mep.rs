use crate::{FrequencyModel, PowerModel};
use hems_units::Joules;
use hems_units::Volts;

/// Decomposition of the energy consumed per clock cycle at one supply
/// voltage — the quantities plotted in the paper's Figs. 7b and 11a.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Supply voltage of this sample.
    pub vdd: Volts,
    /// Dynamic (switching) energy per cycle, `C_eff V²`.
    pub dynamic: Joules,
    /// Leakage energy per cycle, `P_leak / f` — grows toward low voltage as
    /// the clock slows faster than leakage falls.
    pub leakage: Joules,
}

impl EnergyBreakdown {
    /// Total energy per cycle.
    pub fn total(&self) -> Joules {
        self.dynamic + self.leakage
    }
}

/// A minimum-energy point: the supply voltage minimizing energy per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MepPoint {
    /// The minimizing supply voltage.
    pub vdd: Volts,
    /// The energy per cycle achieved there.
    pub energy_per_cycle: Joules,
}

/// Computes the per-cycle energy breakdown at `vdd` (at maximum clock for
/// that voltage, the standard MEP convention).
///
/// Returns `None` at or below the threshold voltage where the clock is zero
/// and energy per cycle is unbounded.
pub fn energy_breakdown(
    freq: &FrequencyModel,
    power: &PowerModel,
    vdd: Volts,
) -> Option<EnergyBreakdown> {
    let f = freq.max_frequency(vdd);
    if !f.is_positive() {
        return None;
    }
    Some(EnergyBreakdown {
        vdd,
        dynamic: power.dynamic_energy_per_cycle(vdd),
        leakage: Joules::new(power.leakage(vdd).watts() / f.hertz()),
    })
}

/// Finds the conventional MEP (paper eq. 5 *without* the regulator term) on
/// `[v_min, v_max]`.
///
/// # Errors
///
/// Propagates [`hems_units::SolveError`] when the search bracket is
/// degenerate (e.g. entirely below threshold).
pub fn conventional_mep(
    freq: &FrequencyModel,
    power: &PowerModel,
    v_min: Volts,
    v_max: Volts,
) -> Result<MepPoint, hems_units::SolveError> {
    let (v, e) = hems_units::solve::minimize(
        |v| match energy_breakdown(freq, power, Volts::new(v)) {
            Some(b) => b.total().joules(),
            None => f64::NAN,
        },
        v_min.volts(),
        v_max.volts(),
        256,
    )?;
    Ok(MepPoint {
        vdd: Volts::new(v),
        energy_per_cycle: Joules::new(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> (FrequencyModel, PowerModel) {
        (FrequencyModel::paper_65nm(), PowerModel::paper_65nm())
    }

    #[test]
    fn conventional_mep_sits_near_0_46v() {
        let (f, p) = models();
        let mep = conventional_mep(&f, &p, Volts::new(0.42), Volts::new(1.0)).unwrap();
        assert!((mep.vdd.volts() - 0.46).abs() < 0.02, "MEP at {}", mep.vdd);
        // ~60 pJ/cycle at the MEP for this calibration.
        assert!(
            mep.energy_per_cycle.value() > 40e-12 && mep.energy_per_cycle.value() < 80e-12,
            "E = {:?}",
            mep.energy_per_cycle
        );
    }

    #[test]
    fn energy_rises_on_both_sides_of_mep() {
        let (f, p) = models();
        let mep = conventional_mep(&f, &p, Volts::new(0.42), Volts::new(1.0)).unwrap();
        let at = |v: f64| {
            energy_breakdown(&f, &p, Volts::new(v))
                .unwrap()
                .total()
                .joules()
        };
        assert!(at(mep.vdd.volts() - 0.02) > mep.energy_per_cycle.joules());
        assert!(at(mep.vdd.volts() + 0.1) > mep.energy_per_cycle.joules());
    }

    #[test]
    fn leakage_dominates_low_voltage_dynamic_dominates_high() {
        let (f, p) = models();
        let low = energy_breakdown(&f, &p, Volts::new(0.42)).unwrap();
        let high = energy_breakdown(&f, &p, Volts::new(0.9)).unwrap();
        let low = low.leakage / low.total();
        let high = high.leakage / high.total();
        assert!(low > 0.5, "low {low}");
        assert!(high < 0.05, "high {high}");
    }

    #[test]
    fn breakdown_none_below_threshold() {
        let (f, p) = models();
        assert!(energy_breakdown(&f, &p, Volts::new(0.4)).is_none());
        assert!(energy_breakdown(&f, &p, Volts::new(0.2)).is_none());
    }

    #[test]
    fn breakdown_components_sum() {
        let (f, p) = models();
        let b = energy_breakdown(&f, &p, Volts::new(0.6)).unwrap();
        assert!((b.total().joules() - (b.dynamic + b.leakage).joules()).abs() < 1e-20);
        assert!(b.leakage.is_positive() && b.dynamic.is_positive());
    }

    #[test]
    fn mep_search_errors_on_degenerate_bracket() {
        let (f, p) = models();
        assert!(conventional_mep(&f, &p, Volts::new(1.0), Volts::new(0.5)).is_err());
    }
}
