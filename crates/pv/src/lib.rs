//! Photovoltaic harvester model.
//!
//! The paper (Section II-A, Fig. 2) measures an IXYS KXOB22-04X3F
//! monocrystalline solar cell under outdoor and indoor light and uses its I-V
//! curve as the energy source for the whole system. We cannot ship a physical
//! cell, so this crate implements the standard **single-diode model**
//!
//! ```text
//! I(V) = Iph(G) - I0 * (exp((V + I*Rs) / Vth) - 1)
//! ```
//!
//! calibrated so that at full sun the curve matches the paper's measured
//! features: short-circuit current ≈ 15 mA, open-circuit voltage ≈ 1.5 V and
//! a maximum power point of ≈ 14 mW near 1.1 V (Figs. 2, 6, 8b). The
//! photocurrent `Iph` scales linearly with irradiance and the open-circuit
//! voltage falls logarithmically, which reproduces the measured family of
//! curves from "full sunlight" down to "indoor light".
//!
//! ```
//! use hems_pv::{Irradiance, SolarCell};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cell = SolarCell::kxob22(Irradiance::FULL_SUN);
//! let mpp = cell.mpp()?;
//! assert!(mpp.power.to_milli() > 12.0 && mpp.power.to_milli() < 16.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod curve;
mod error;
mod irradiance;
mod lut;
mod model;

pub use cell::{Mpp, SolarCell};
pub use curve::{IvCurve, IvPoint};
pub use error::PvError;
pub use irradiance::Irradiance;
pub use lut::{PvLut, DEFAULT_PV_KNOTS};
pub use model::SolarCellModel;
