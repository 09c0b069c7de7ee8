use crate::{Mpp, PvError, SolarCell};
use hems_units::{MonotoneTable, Volts, Watts};

/// Default knot count for [`PvLut::build_default`]: dense enough that the
/// monotone-cubic interpolant tracks the kxob22 knee to well under 0.1 %
/// of full scale, small enough that a rebuild costs only a few hundred
/// exact-model solves.
pub const DEFAULT_PV_KNOTS: usize = 256;

/// A precomputed lookup table over a solar cell's P-V curve.
///
/// The single-diode model with a nonzero series resistance has no closed
/// form: every [`SolarCell::current_at`] call runs a bisection with ~200
/// exponential evaluations. Sweeps and grid solvers hammer that path —
/// `optimal_joint_plan` alone evaluates the curve thousands of times per
/// scenario. A `PvLut` front-loads the cost: it samples the exact model
/// once at `knots` voltages across `[0, Voc]`, fits a shape-preserving
/// monotone-cubic table to power, and answers every subsequent query
/// with an O(log knots) interpolated lookup.
///
/// # Build and invalidation semantics
///
/// A table is valid for exactly one `(model, irradiance)` pair — the pair
/// it was built from. When the light level changes, build a fresh table;
/// there is no in-place mutation by design (a half-updated table is worse
/// than a slow one).
///
/// # Accuracy contract
///
/// Lookups agree with the exact model to ≤0.1 % *full-scale relative
/// error*: `|lut − exact| ≤ 0.1 % × max(|exact|, 10⁻³ × scale)` where
/// `scale` is the MPP power. The floor keeps the contract meaningful at
/// the curve's zero crossings, where a pointwise relative error is
/// ill-defined. The parity tests in this module enforce the contract
/// across the full voltage window at several light levels.
///
/// ```
/// use hems_pv::{Irradiance, PvLut, SolarCell};
/// use hems_units::Volts;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cell = SolarCell::kxob22(Irradiance::FULL_SUN);
/// let lut = PvLut::build_default(cell.clone())?;
/// let exact = cell.power_at(Volts::new(1.0));
/// let fast = lut.power_at(Volts::new(1.0));
/// assert!((fast.watts() - exact.watts()).abs() < 1e-3 * exact.watts());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PvLut {
    voc: Volts,
    power: MonotoneTable,
    mpp: Mpp,
}

impl PvLut {
    /// Builds a table for `cell` at its present irradiance with
    /// [`DEFAULT_PV_KNOTS`] knots.
    ///
    /// # Errors
    ///
    /// See [`PvLut::build`].
    pub fn build_default(cell: SolarCell) -> Result<PvLut, PvError> {
        PvLut::build(cell, DEFAULT_PV_KNOTS)
    }

    /// Builds a table for `cell` at its present irradiance, sampling the
    /// exact model at `knots` evenly spaced voltages on `[0, Voc]`.
    ///
    /// # Errors
    ///
    /// Returns [`PvError::Solver`] in complete darkness (no positive Voc,
    /// so there is no curve to tabulate). Panics only if `knots < 4`,
    /// which is a caller bug, not a data condition.
    pub fn build(cell: SolarCell, knots: usize) -> Result<PvLut, PvError> {
        assert!(knots >= 4, "a PV table needs at least 4 knots");
        let voc = cell.open_circuit_voltage();
        if !voc.is_positive() {
            return Err(PvError::Solver(hems_units::SolveError::BadBracket {
                lo: 0.0,
                hi: voc.volts(),
            }));
        }
        // One exact-model sampling pass: the implicit solve is per-*current*
        // evaluation, and the model's own identity P(V) = V·I(V) gives each
        // power knot from it.
        let xs: Vec<f64> = (0..knots)
            .map(|i| voc.volts() * i as f64 / (knots - 1) as f64)
            .collect();
        let watts: Vec<f64> = xs
            .iter()
            .map(|&v| v * cell.current_at(Volts::new(v)).amps())
            .collect();
        let power = MonotoneTable::new(xs, watts)?;
        // The MPP is a single point computed once per build, so tabulating
        // it buys nothing: cache the *exact* model's answer. Solvers hang
        // the regulator input voltage and power budget off this point, and
        // an interpolant-refined peak (≈ 1 mV off) would leak a ~0.1 %
        // error into every downstream plan. The exact samples already
        // bracket the unimodal peak to one knot spacing, so the exact
        // solve is a short golden-section refinement inside that bracket
        // rather than [`SolarCell::mpp`]'s full-window scan.
        let (v_peak, _) = power.argmax_knot();
        let h = voc.volts() / (knots - 1) as f64;
        let (mut lo, mut hi) = ((v_peak - h).max(0.0), (v_peak + h).min(voc.volts()));
        const INV_PHI: f64 = 0.618_033_988_749_894_9;
        let exact_p = |v: f64| cell.power_at(Volts::new(v)).watts();
        let (mut a, mut b) = (hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo));
        let (mut fa, mut fb) = (exact_p(a), exact_p(b));
        for _ in 0..48 {
            if fa < fb {
                lo = a;
                a = b;
                fa = fb;
                b = lo + INV_PHI * (hi - lo);
                fb = exact_p(b);
            } else {
                hi = b;
                b = a;
                fb = fa;
                a = hi - INV_PHI * (hi - lo);
                fa = exact_p(a);
            }
        }
        let voltage = Volts::new(0.5 * (lo + hi));
        let mpp = Mpp {
            voltage,
            current: cell.current_at(voltage),
            power: cell.power_at(voltage),
        };
        Ok(PvLut { voc, power, mpp })
    }

    /// The open-circuit voltage of the tabulated curve (the top of the
    /// table's voltage domain).
    pub fn open_circuit_voltage(&self) -> Volts {
        self.voc
    }

    /// Interpolated terminal power at voltage `v`.
    ///
    /// Outside `[0, Voc]` the lookup clamps to the boundary knot — i.e.
    /// `P(0) = 0` below zero and `P(Voc) ≈ 0` above — matching how the
    /// solvers use the curve (they never operate past open circuit).
    pub fn power_at(&self, v: Volts) -> Watts {
        Watts::new(self.power.eval(v.volts()))
    }

    /// The precomputed maximum power point (no solve — cached at build).
    pub fn mpp(&self) -> Mpp {
        self.mpp
    }

    /// Batch form of [`PvLut::power_at`]: interpolated terminal power in
    /// watts for a slab of voltages in volts, one output per input.
    ///
    /// Sorted (ascending) voltage slabs take the gather-free monotone-cursor
    /// path through the knot array; every output is bit-identical to the
    /// scalar lookup either way. Clamping outside `[0, Voc]` matches
    /// [`PvLut::power_at`].
    ///
    /// # Panics
    ///
    /// Panics when `volts.len() != watts_out.len()`.
    pub fn power_at_many(&self, volts: &[f64], watts_out: &mut [f64]) {
        self.power.eval_many(volts, watts_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Irradiance;

    const LEVELS: [f64; 4] = [1.0, 0.5, 0.25, 0.05];

    /// Full-scale relative error per the accuracy contract.
    fn rel(err: f64, exact: f64, scale: f64) -> f64 {
        err.abs() / exact.abs().max(1e-3 * scale)
    }

    #[test]
    fn power_parity_within_0p1_percent_across_window() {
        for g in LEVELS {
            let cell = SolarCell::kxob22(Irradiance::new(g).unwrap());
            let lut = PvLut::build_default(cell.clone()).unwrap();
            let p_mpp = cell.mpp().unwrap().power.watts();
            let voc = cell.open_circuit_voltage().volts();
            for i in 0..=1000 {
                let v = Volts::new(voc * i as f64 / 1000.0);
                let exact = cell.power_at(v).watts();
                let fast = lut.power_at(v).watts();
                let e = rel(fast - exact, exact, p_mpp);
                assert!(e <= 1e-3, "g={g} v={v:?}: rel err {e:.2e}");
            }
        }
    }

    #[test]
    fn mpp_parity_within_0p1_percent() {
        for g in LEVELS {
            let cell = SolarCell::kxob22(Irradiance::new(g).unwrap());
            let lut = PvLut::build_default(cell.clone()).unwrap();
            let exact = cell.mpp().unwrap();
            let fast = lut.mpp();
            let dp = (fast.power.watts() - exact.power.watts()).abs();
            assert!(
                dp <= 1e-3 * exact.power.watts(),
                "g={g}: power {dp:.2e} off"
            );
            // The P-V curve is flat at its peak, so voltage tolerance is
            // looser than power tolerance.
            assert!(
                (fast.voltage.volts() - exact.voltage.volts()).abs() < 0.01,
                "g={g}: v {} vs {}",
                fast.voltage,
                exact.voltage
            );
        }
    }

    #[test]
    fn darkness_is_an_error() {
        assert!(PvLut::build_default(SolarCell::kxob22(Irradiance::DARK)).is_err());
    }

    #[test]
    fn lookups_clamp_outside_window() {
        let lut = PvLut::build_default(SolarCell::kxob22(Irradiance::FULL_SUN)).unwrap();
        assert_eq!(lut.power_at(Volts::new(-1.0)).watts(), 0.0);
        assert!(lut.power_at(Volts::new(9.0)).watts().abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "at least 4 knots")]
    fn tiny_tables_are_rejected() {
        let _ = PvLut::build(SolarCell::kxob22(Irradiance::FULL_SUN), 3);
    }

    #[test]
    fn batch_lookups_are_bit_identical_to_scalar() {
        // Seeded xorshift64* queries spanning past both clamp edges.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        };
        for g in LEVELS {
            let cell = SolarCell::kxob22(Irradiance::new(g).unwrap());
            let lut = PvLut::build_default(cell).unwrap();
            let voc = lut.open_circuit_voltage().volts();
            let mut vs: Vec<f64> = (0..301).map(|_| -0.1 + next() * (voc + 0.3)).collect();
            vs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut p = vec![0.0; vs.len()];
            lut.power_at_many(&vs, &mut p);
            for (k, &v) in vs.iter().enumerate() {
                assert_eq!(
                    p[k].to_bits(),
                    lut.power_at(Volts::new(v)).watts().to_bits()
                );
            }
        }
    }
}
