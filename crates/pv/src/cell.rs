use crate::{Irradiance, IvCurve, PvError, SolarCellModel};
use hems_units::{solve, Amps, Volts, Watts};
use std::fmt;

/// A solar cell instance: a [`SolarCellModel`] at a particular light level.
///
/// This is the object the rest of the workspace interacts with — the
/// simulator queries `current_at` every timestep, the optimizers query
/// [`SolarCell::mpp`], and the MPPT lookup-table builder sweeps irradiance.
#[derive(Debug, Clone, PartialEq)]
pub struct SolarCell {
    model: SolarCellModel,
    irradiance: Irradiance,
}

/// A maximum power point: the voltage/current pair at which the cell
/// delivers peak power for the present light level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mpp {
    /// Terminal voltage at the maximum power point.
    pub voltage: Volts,
    /// Terminal current at the maximum power point.
    pub current: Amps,
    /// Power delivered at the maximum power point.
    pub power: Watts,
}

impl fmt::Display for Mpp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MPP {:.3} V / {:.2} mA / {:.2} mW",
            self.voltage.volts(),
            self.current.to_milli(),
            self.power.to_milli()
        )
    }
}

impl SolarCell {
    /// Creates a cell from a model and light level.
    pub fn new(model: SolarCellModel, irradiance: Irradiance) -> SolarCell {
        SolarCell { model, irradiance }
    }

    /// The paper's IXYS KXOB22-04X3F-like cell at the given light level.
    pub fn kxob22(irradiance: Irradiance) -> SolarCell {
        SolarCell::new(SolarCellModel::kxob22(), irradiance)
    }

    /// The underlying model.
    pub fn model(&self) -> &SolarCellModel {
        &self.model
    }

    /// The present light level.
    pub fn irradiance(&self) -> Irradiance {
        self.irradiance
    }

    /// Changes the light level (e.g. a cloud passes).
    pub fn set_irradiance(&mut self, g: Irradiance) {
        self.irradiance = g;
    }

    /// Terminal current at voltage `v` under the present light.
    pub fn current_at(&self, v: Volts) -> Amps {
        self.model.current(v, self.irradiance)
    }

    /// Terminal power at voltage `v` under the present light.
    pub fn power_at(&self, v: Volts) -> Watts {
        self.model.power(v, self.irradiance)
    }

    /// Short-circuit current under the present light.
    pub fn short_circuit_current(&self) -> Amps {
        self.model.photocurrent(self.irradiance)
    }

    /// Open-circuit voltage under the present light.
    pub fn open_circuit_voltage(&self) -> Volts {
        self.model.open_circuit_voltage(self.irradiance)
    }

    /// Finds the maximum power point under the present light.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::Solver`] if the search bracket is degenerate —
    /// in practice only in complete darkness, where no MPP exists.
    pub fn mpp(&self) -> Result<Mpp, PvError> {
        let voc = self.open_circuit_voltage();
        if !voc.is_positive() {
            return Err(PvError::Solver(hems_units::SolveError::BadBracket {
                lo: 0.0,
                hi: voc.volts(),
            }));
        }
        let (v, p) = solve::maximize(
            |v| self.power_at(Volts::new(v)).watts(),
            0.0,
            voc.volts(),
            128,
        )?;
        let voltage = Volts::new(v);
        Ok(Mpp {
            voltage,
            current: self.current_at(voltage),
            power: Watts::new(p),
        })
    }

    /// Samples the I-V curve at `n` evenly spaced voltages on `[0, Voc]`.
    pub fn iv_curve(&self, n: usize) -> IvCurve {
        IvCurve::sample(self, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sun_mpp_matches_paper_fig2_and_fig6() {
        let cell = SolarCell::kxob22(Irradiance::FULL_SUN);
        let mpp = cell.mpp().unwrap();
        // Paper: full-sun MPP near 1.0–1.2 V delivering ~14 mW.
        assert!(
            mpp.voltage.volts() > 0.95 && mpp.voltage.volts() < 1.25,
            "mpp voltage {}",
            mpp.voltage
        );
        assert!(
            mpp.power.to_milli() > 12.0 && mpp.power.to_milli() < 16.0,
            "mpp power {}",
            mpp.power
        );
    }

    #[test]
    fn mpp_power_scales_with_light() {
        let full = SolarCell::kxob22(Irradiance::FULL_SUN).mpp().unwrap();
        let half = SolarCell::kxob22(Irradiance::HALF_SUN).mpp().unwrap();
        let quarter = SolarCell::kxob22(Irradiance::QUARTER_SUN).mpp().unwrap();
        // Slightly superlinear attenuation because Voc also falls.
        let r_half = half.power / full.power;
        let r_quarter = quarter.power / full.power;
        assert!(r_half > 0.40 && r_half < 0.50, "half ratio {r_half}");
        assert!(
            r_quarter > 0.17 && r_quarter < 0.25,
            "quarter ratio {r_quarter}"
        );
    }

    #[test]
    fn mpp_in_darkness_is_an_error() {
        let cell = SolarCell::kxob22(Irradiance::DARK);
        assert!(cell.mpp().is_err());
    }

    #[test]
    fn mpp_is_a_true_maximum() {
        let cell = SolarCell::kxob22(Irradiance::HALF_SUN);
        let mpp = cell.mpp().unwrap();
        for dv in [-0.1, -0.05, 0.05, 0.1] {
            let p = cell.power_at(mpp.voltage + Volts::new(dv));
            assert!(p <= mpp.power + Watts::new(1e-9));
        }
    }

    #[test]
    fn set_irradiance_changes_output() {
        let mut cell = SolarCell::kxob22(Irradiance::FULL_SUN);
        let p_full = cell.power_at(Volts::new(1.0));
        cell.set_irradiance(Irradiance::QUARTER_SUN);
        let p_quarter = cell.power_at(Volts::new(1.0));
        assert!(p_quarter.watts() < p_full.watts() * 0.4);
        assert_eq!(cell.irradiance(), Irradiance::QUARTER_SUN);
    }

    #[test]
    fn mpp_display_is_readable() {
        let mpp = SolarCell::kxob22(Irradiance::FULL_SUN).mpp().unwrap();
        let s = mpp.to_string();
        assert!(s.contains("MPP") && s.contains("mW"));
    }

    #[test]
    fn mpp_voltage_tracks_voc() {
        for i in 0..=2000 {
            let g = Irradiance::new(0.05 + 0.95 * i as f64 / 2000.0).unwrap();
            let cell = SolarCell::kxob22(g);
            let mpp = cell.mpp().unwrap();
            let voc = cell.open_circuit_voltage();
            // MPP sits at 55–90 % of Voc across realistic light levels.
            let ratio = mpp.voltage / voc;
            assert!(ratio > 0.55 && ratio < 0.92, "ratio {ratio} at {g}");
        }
    }
}
