use crate::{Regulator, RegulatorError};
use hems_units::{Volts, Watts};

/// One sample of a regulator's efficiency surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyPoint {
    /// Output voltage of the sample.
    pub v_out: Volts,
    /// Load power of the sample.
    pub p_out: Watts,
    /// Efficiency at that point, or `None` where the regulator cannot
    /// operate.
    pub efficiency: Option<f64>,
}

/// Sweeps a regulator's efficiency across output voltage at fixed loads —
/// exactly the curves plotted in the paper's Figs. 3, 4 and 5.
#[derive(Debug, Clone)]
pub struct EfficiencySweep {
    points: Vec<EfficiencyPoint>,
}

impl EfficiencySweep {
    /// Samples `regulator` at `n` output voltages on `[v_lo, v_hi]` for a
    /// fixed `p_out`, from a rail at `v_in`. Unsupported points are recorded
    /// with `efficiency: None` rather than dropped, so plots show the true
    /// operating range.
    ///
    /// # Errors
    ///
    /// Returns [`RegulatorError::InvalidLoad`] when the load is invalid;
    /// unsupported `(v_in, v_out)` pairs are *not* errors here.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the voltage interval is inverted.
    pub fn sample(
        regulator: &dyn Regulator,
        v_in: Volts,
        v_lo: Volts,
        v_hi: Volts,
        p_out: Watts,
        n: usize,
    ) -> Result<EfficiencySweep, RegulatorError> {
        assert!(n >= 2, "a sweep needs at least two samples");
        assert!(v_lo < v_hi, "voltage interval must be increasing");
        if !p_out.value().is_finite() || p_out.value() < 0.0 {
            return Err(RegulatorError::InvalidLoad {
                p_out: p_out.value(),
            });
        }
        let step = (v_hi - v_lo) / (n - 1) as f64;
        let points = (0..n)
            .map(|i| {
                let v_out = v_lo + step * i as f64;
                let efficiency = regulator
                    .convert(v_in, v_out, p_out)
                    .ok()
                    .map(|c| c.efficiency.ratio());
                EfficiencyPoint {
                    v_out,
                    p_out,
                    efficiency,
                }
            })
            .collect();
        Ok(EfficiencySweep { points })
    }

    /// The sampled points in increasing output-voltage order.
    pub fn points(&self) -> &[EfficiencyPoint] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuckRegulator, Ldo, ScRegulator};

    #[test]
    fn ldo_sweep_is_a_ramp() {
        let sweep = EfficiencySweep::sample(
            &Ldo::paper_65nm(),
            Volts::new(1.2),
            Volts::new(0.1),
            Volts::new(1.0),
            Watts::from_milli(10.0),
            10,
        )
        .unwrap();
        let etas: Vec<f64> = sweep.points().iter().filter_map(|p| p.efficiency).collect();
        assert_eq!(etas.len(), 10);
        assert!(etas.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn buck_sweep_marks_unsupported_region() {
        let sweep = EfficiencySweep::sample(
            &BuckRegulator::paper_65nm(),
            Volts::new(1.2),
            Volts::new(0.1),
            Volts::new(1.0),
            Watts::from_milli(10.0),
            19,
        )
        .unwrap();
        let supported = sweep
            .points()
            .iter()
            .filter(|p| p.efficiency.is_some())
            .count();
        let unsupported = sweep.points().len() - supported;
        assert!(supported > 0 && unsupported > 0);
        // Everything below 0.3 V and above 0.8 V is None.
        for p in sweep.points() {
            let v = p.v_out.volts();
            if !(0.29..=0.81).contains(&v) {
                assert!(p.efficiency.is_none(), "unexpected support at {v}");
            }
        }
    }

    #[test]
    fn sc_peak_sits_near_ratio_voltage() {
        let sweep = EfficiencySweep::sample(
            &ScRegulator::paper_65nm(),
            Volts::new(1.2),
            Volts::new(0.2),
            Volts::new(1.0),
            Watts::from_milli(10.0),
            161,
        )
        .unwrap();
        let peak = sweep
            .points()
            .iter()
            .filter(|p| p.efficiency.is_some())
            .max_by(|a, b| a.efficiency.partial_cmp(&b.efficiency).unwrap())
            .unwrap();
        // Best intrinsic efficiency just below an ideal ratio output
        // (0.6, 0.8, 0.9 or 0.96 V from 1.2 V).
        let v = peak.v_out.volts();
        let near_ratio = [0.6, 0.8, 0.9, 0.96]
            .iter()
            .any(|r| v <= *r && *r - v < 0.06);
        assert!(near_ratio, "peak at {v} V");
    }

    #[test]
    fn rejects_invalid_load() {
        assert!(EfficiencySweep::sample(
            &Ldo::paper_65nm(),
            Volts::new(1.2),
            Volts::new(0.1),
            Volts::new(1.0),
            Watts::new(-1.0),
            5,
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn rejects_single_sample() {
        let _ = EfficiencySweep::sample(
            &Ldo::paper_65nm(),
            Volts::new(1.2),
            Volts::new(0.1),
            Volts::new(1.0),
            Watts::from_milli(1.0),
            1,
        );
    }
}
