use crate::MpptError;
use hems_pv::{Irradiance, SolarCell, SolarCellModel};
use hems_units::{LinearTable, Volts, Watts};

/// The power → MPP-voltage lookup table of the paper's Section VI-A:
/// "A look-up table is used to map the measured power to corresponding MPP
/// point."
///
/// Built offline by sweeping the photovoltaic model across irradiance
/// levels: for each light level the cell has one MPP `(P_mpp, V_mpp)` pair,
/// and since `P_mpp` grows monotonically with light the pairs form an
/// invertible table from observed input power to the voltage to regulate
/// toward.
#[derive(Debug, Clone, PartialEq)]
pub struct MppLookupTable {
    table: LinearTable,
}

impl MppLookupTable {
    /// Builds the table by sweeping `model` over `n` irradiance levels in
    /// `[g_lo, g_hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`MpptError::TableConstruction`] when the sweep is degenerate
    /// (fewer than 2 points, or a dark lower bound).
    pub fn build(
        model: &SolarCellModel,
        g_lo: Irradiance,
        g_hi: Irradiance,
        n: usize,
    ) -> Result<MppLookupTable, MpptError> {
        if n < 2 || g_lo >= g_hi || g_lo.is_dark() {
            return Err(MpptError::TableConstruction {
                reason: format!(
                    "need n >= 2 and 0 < g_lo < g_hi (got n={n}, g_lo={g_lo}, g_hi={g_hi})"
                ),
            });
        }
        let mut powers = Vec::with_capacity(n);
        let mut voltages = Vec::with_capacity(n);
        for i in 0..n {
            let f =
                g_lo.fraction() + (g_hi.fraction() - g_lo.fraction()) * i as f64 / (n - 1) as f64;
            let g = Irradiance::new(f).map_err(|e| MpptError::TableConstruction {
                reason: format!("invalid irradiance sample: {e}"),
            })?;
            let mpp = SolarCell::new(model.clone(), g).mpp().map_err(|e| {
                MpptError::TableConstruction {
                    reason: format!("mpp search failed at {g}: {e}"),
                }
            })?;
            powers.push(mpp.power.watts());
            voltages.push(mpp.voltage.volts());
        }
        // Powers rise strictly with light for a physical cell; guard anyway.
        if powers.windows(2).any(|w| w[0] >= w[1]) {
            return Err(MpptError::TableConstruction {
                reason: "mpp power is not strictly increasing with light".into(),
            });
        }
        let table =
            LinearTable::new(powers, voltages).map_err(|e| MpptError::TableConstruction {
                reason: format!("interpolation table rejected sweep: {e}"),
            })?;
        Ok(MppLookupTable { table })
    }

    /// The table for the paper's cell, swept from 2 % to 120 % sun over 64
    /// levels.
    ///
    /// # Panics
    ///
    /// Never panics in practice; the reference model always yields a valid
    /// sweep.
    pub fn paper_default() -> MppLookupTable {
        MppLookupTable::build(
            &SolarCellModel::kxob22(),
            Irradiance::INDOOR,
            // hems-lint: allow(panic_reach, reason = "1.2 is a compile-time constant inside Irradiance's documented [0, 2] range")
            Irradiance::new(1.2).expect("1.2 is in range"),
            64,
        )
        // hems-lint: allow(panic_reach, reason = "reference sweep over the kxob22 cell; validated by this module's paper_default unit tests")
        .expect("reference sweep is valid")
    }

    /// Looks up the MPP voltage for an observed input power (clamped to the
    /// swept range).
    pub fn mpp_voltage(&self, p_in: Watts) -> Volts {
        Volts::new(self.table.eval(p_in.watts()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_recovers_true_mpp_voltage() {
        let lut = MppLookupTable::paper_default();
        for g in [
            Irradiance::FULL_SUN,
            Irradiance::HALF_SUN,
            Irradiance::QUARTER_SUN,
            Irradiance::OVERCAST,
        ] {
            let cell = SolarCell::kxob22(g);
            let mpp = cell.mpp().unwrap();
            let v = lut.mpp_voltage(mpp.power);
            assert!(
                (v - mpp.voltage).abs() < Volts::from_milli(15.0),
                "{g}: lut {v} vs true {}",
                mpp.voltage
            );
        }
    }

    #[test]
    fn clamps_outside_swept_range() {
        let lut = MppLookupTable::paper_default();
        let (lo, hi) = lut.table.domain();
        let (p_min, p_max) = (Watts::new(lo), Watts::new(hi));
        let below = lut.mpp_voltage(p_min * 0.1);
        let above = lut.mpp_voltage(p_max * 10.0);
        assert_eq!(below, lut.mpp_voltage(p_min));
        assert_eq!(above, lut.mpp_voltage(p_max));
        assert!(below < above);
    }

    #[test]
    fn build_validates_inputs() {
        let m = SolarCellModel::kxob22();
        assert!(MppLookupTable::build(&m, Irradiance::INDOOR, Irradiance::FULL_SUN, 1).is_err());
        assert!(MppLookupTable::build(&m, Irradiance::FULL_SUN, Irradiance::INDOOR, 16).is_err());
        assert!(MppLookupTable::build(&m, Irradiance::DARK, Irradiance::FULL_SUN, 16).is_err());
    }

    #[test]
    fn voltage_rises_with_power() {
        let lut = MppLookupTable::paper_default();
        let (lo, hi) = lut.table.domain();
        let (p_min, p_max) = (Watts::new(lo), Watts::new(hi));
        let mut prev = Volts::ZERO;
        for i in 0..=10 {
            let p = p_min + (p_max - p_min) * (i as f64 / 10.0);
            let v = lut.mpp_voltage(p);
            assert!(v >= prev, "lut not monotone at {p:?}");
            prev = v;
        }
    }
}
