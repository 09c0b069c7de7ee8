use crate::SolarCell;
use hems_units::{Amps, Volts, Watts};

/// One sample on an I-V curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvPoint {
    /// Terminal voltage.
    pub voltage: Volts,
    /// Terminal current at that voltage.
    pub current: Amps,
}

impl IvPoint {
    /// Power at this operating point.
    pub fn power(&self) -> Watts {
        self.voltage * self.current
    }
}

/// A sampled I-V curve, as plotted in the paper's Fig. 2 (`hems iv`
/// prints one).
#[derive(Debug, Clone, PartialEq)]
pub struct IvCurve {
    points: Vec<IvPoint>,
}

impl IvCurve {
    /// Samples `cell` at `n >= 2` evenly spaced voltages from 0 to its
    /// open-circuit voltage (or to 1 mV above zero in darkness).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn sample(cell: &SolarCell, n: usize) -> IvCurve {
        assert!(n >= 2, "an I-V curve needs at least two samples");
        let voc = cell.open_circuit_voltage().volts().max(1e-3);
        let step = voc / (n - 1) as f64;
        let points = (0..n)
            .map(|i| {
                let voltage = Volts::new(step * i as f64);
                IvPoint {
                    voltage,
                    current: cell.current_at(voltage),
                }
            })
            .collect();
        IvCurve { points }
    }

    /// The sampled points, in increasing voltage order.
    pub fn points(&self) -> &[IvPoint] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Irradiance;

    #[test]
    fn sample_spans_zero_to_voc() {
        let c = SolarCell::kxob22(Irradiance::FULL_SUN).iv_curve(101);
        assert_eq!(c.points().len(), 101);
        assert_eq!(c.points()[0].voltage, Volts::ZERO);
        let last = c.points().last().unwrap();
        assert!((last.voltage.volts() - 1.5).abs() < 0.05);
        assert!(last.current.to_milli() < 0.5);
    }

    #[test]
    fn dark_cell_still_yields_a_valid_curve() {
        let c = SolarCell::kxob22(Irradiance::DARK).iv_curve(11);
        assert_eq!(c.points().len(), 11);
        assert!(c.points().iter().all(|p| p.current == Amps::ZERO));
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn sample_rejects_single_point() {
        let _ = SolarCell::kxob22(Irradiance::FULL_SUN).iv_curve(1);
    }
}
