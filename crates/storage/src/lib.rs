//! Energy storage and monitoring: the capacitor that replaces the battery,
//! and the comparator bank that watches it.
//!
//! The paper's system is battery-less: a small capacitor at the solar-cell
//! output buffers energy (Section II), and "multiple comparators with less
//! than 0.1 µW power … serve as a simplified energy monitor to the solar
//! cells" (Section VII). Two of the paper's key mechanisms live here:
//!
//! * the **capacitor node dynamics** the simulator integrates
//!   (`½C dV²/dt = P_in - P_out`), with the energy bookkeeping `E = ½CV²`;
//! * the **threshold-crossing timer** of the proposed MPP-tracking scheme
//!   (Section VI-A, eqs. 6–7): measure how long the node takes to fall from
//!   comparator threshold `V1` to `V2` and infer the harvested power without
//!   any current sensor.
//!
//! ```
//! use hems_storage::Capacitor;
//! use hems_units::{Farads, Seconds, Volts, Watts};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cap = Capacitor::new(Farads::from_micro(100.0), Volts::new(1.2))?;
//! cap.set_voltage(Volts::new(1.0))?;
//! // 5 mW net discharge for 4 ms takes P*t = 20 uJ of the 50 uJ held at
//! // 1 V, leaving V = sqrt(2 * 30 uJ / C) = sqrt(0.6) V.
//! cap.step_power(Watts::from_milli(-5.0), Seconds::from_milli(4.0));
//! assert!((cap.voltage().volts() - 0.6f64.sqrt()).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacitor;
mod comparator;
mod error;
mod timer;

pub use capacitor::Capacitor;
pub use comparator::{Comparator, ComparatorBank, Crossing, Edge};
pub use error::StorageError;
pub use timer::{DischargeObservation, DischargeTimer};
