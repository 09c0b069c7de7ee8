//! On-chip voltage regulator models.
//!
//! Section III of the paper characterizes the three fully-integrated 65 nm
//! regulator styles the SoC can deploy between the solar/storage rail and
//! the microprocessor, and the whole holistic argument rests on their
//! *different efficiency profiles*:
//!
//! * **LDO** (Fig. 3): tiny area, efficiency essentially the resistive
//!   division ratio `Vout/Vin` — 45 % at 0.55 V from a 1.2 V rail.
//! * **Switched-capacitor** (Fig. 4): reconfigurable ratios (5:4, 3:2, 2:1,
//!   …); 67 % at 0.55 V full load, 64 % at half load — best at mid/low
//!   power but saw-toothed across its ratio boundaries.
//! * **Buck** (Fig. 5): on-chip inductor; 63 %/58 % at 0.55 V full/half
//!   load — better than SC at high output power, worse at light load.
//! * **Bypass**: the paper's Sections IV-B and VI-B exploit shorting the
//!   regulator out entirely (direct solar→processor connection).
//!
//! Each model here is an analytical loss model *calibrated to the paper's
//! quoted efficiency points*; the calibration constants are documented on
//! each type and asserted by the test suite.
//!
//! ```
//! use hems_regulator::{Regulator, ScRegulator};
//! use hems_units::{Volts, Watts};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sc = ScRegulator::paper_65nm();
//! let c = sc.convert(Volts::new(1.2), Volts::new(0.55), Watts::from_milli(10.0))?;
//! assert!((c.efficiency.percent() - 67.0).abs() < 2.0);
//! # Ok(())
//! # }
//! ```

// `!(a < b)` is used deliberately throughout this workspace: unlike
// `a >= b` it is `true` when either operand is NaN, which is exactly the
// reject-by-default behaviour the validation paths want.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod any;
mod buck;
mod bypass;
mod error;
mod ldo;
mod surface;
mod switched_cap;

pub use any::AnyRegulator;
pub use buck::BuckRegulator;
pub use bypass::Bypass;
pub use error::RegulatorError;
pub use ldo::Ldo;
pub use surface::{EfficiencyPoint, EfficiencySweep};
pub use switched_cap::{ScRatio, ScRegulator};

use hems_units::{Efficiency, Volts, Watts};

/// Identifies a regulator topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegulatorKind {
    /// Linear / low-dropout regulator.
    Ldo,
    /// Switched-capacitor converter.
    SwitchedCapacitor,
    /// Inductive buck converter.
    Buck,
    /// Direct connection (regulator shorted out).
    Bypass,
}

impl RegulatorKind {
    /// The topology's short display name ("LDO", "SC", "buck", ...).
    pub fn name(self) -> &'static str {
        match self {
            RegulatorKind::Ldo => "LDO",
            RegulatorKind::SwitchedCapacitor => "SC",
            RegulatorKind::Buck => "buck",
            RegulatorKind::Bypass => "bypass",
        }
    }
}

impl std::fmt::Display for RegulatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of one power-conversion query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conversion {
    /// Power drawn from the input rail to deliver the requested output.
    pub p_in: Watts,
    /// Achieved efficiency `P_out / P_in`.
    pub efficiency: Efficiency,
}

/// A step-down voltage regulator between the harvesting rail and the load.
///
/// Implementations are pure functions of the operating point — all state
/// (capacitor voltage, DVFS setting) lives in the simulator, which makes the
/// same model usable by the analytical optimizers and the transient
/// simulation alike.
pub trait Regulator {
    /// The topology of this regulator.
    fn kind(&self) -> RegulatorKind;

    /// Computes the input power needed to deliver `p_out` at `v_out` from a
    /// rail at `v_in`.
    ///
    /// # Errors
    ///
    /// Returns [`RegulatorError::UnsupportedOperatingPoint`] when the
    /// requested `(v_in, v_out)` pair is outside the topology's capability
    /// (e.g. `v_out >= v_in` for a step-down converter) and
    /// [`RegulatorError::InvalidLoad`] for negative or non-finite loads.
    fn convert(
        &self,
        v_in: Volts,
        v_out: Volts,
        p_out: Watts,
    ) -> Result<Conversion, RegulatorError>;

    /// The output-voltage range this regulator can serve from rail `v_in`,
    /// as an inclusive `(min, max)` pair. Returns `(0, 0)` when the rail is
    /// too low to regulate at all.
    fn output_range(&self, v_in: Volts) -> (Volts, Volts);

    /// Convenience: the efficiency at an operating point.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Regulator::convert`].
    fn efficiency(
        &self,
        v_in: Volts,
        v_out: Volts,
        p_out: Watts,
    ) -> Result<Efficiency, RegulatorError> {
        Ok(self.convert(v_in, v_out, p_out)?.efficiency)
    }

    /// Largest deliverable output power at `(v_in, v_out)` when the input
    /// rail can source at most `p_in_max`.
    ///
    /// Solved by bisection on the monotone map `p_out -> p_in(p_out)`.
    /// Returns zero when even an infinitesimal load cannot be served.
    ///
    /// # Errors
    ///
    /// Propagates operating-point errors from [`Regulator::convert`].
    fn deliverable_output(
        &self,
        v_in: Volts,
        v_out: Volts,
        p_in_max: Watts,
    ) -> Result<Watts, RegulatorError> {
        if !p_in_max.is_positive() {
            return Ok(Watts::ZERO);
        }
        // Validate the operating point once up front.
        let at_zero = self.convert(v_in, v_out, Watts::ZERO)?;
        if at_zero.p_in > p_in_max {
            return Ok(Watts::ZERO);
        }
        // p_in(p_out) is strictly increasing; expand an upper bracket then
        // bisect. Efficiency <= 1 bounds p_out by p_in_max.
        let mut hi = p_in_max.watts();
        let p_in_at = |p: f64| {
            self.convert(v_in, v_out, Watts::new(p))
                .map(|c| c.p_in.watts())
                .unwrap_or(f64::INFINITY)
        };
        if p_in_at(hi) <= p_in_max.watts() {
            return Ok(Watts::new(hi));
        }
        let mut lo = 0.0;
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if p_in_at(mid) <= p_in_max.watts() {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 {
                break;
            }
        }
        Ok(Watts::new(lo))
    }
}
