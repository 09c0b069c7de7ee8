//! Discrete-time simulator of the battery-less energy-harvesting SoC.
//!
//! This is the stand-in for the paper's physical test setup (Section VII)
//! and its Cadence Virtuoso transient simulations (Fig. 8): a fixed-timestep
//! integrator coupling
//!
//! * the solar cell (driven by a [`LightProfile`]),
//! * the storage capacitor at the solar node,
//! * the selected on-chip regulator (or its bypass),
//! * the microprocessor under DVFS control, and
//! * the board comparator bank,
//!
//! with a [`Controller`] hook invoked every step — the software side of the
//! paper's feedback loop ("the comparators feedback digitalized results to
//! the clock generator and voltage regulator of the SoC chip").
//!
//! Everything is deterministic: a fixed `dt`, explicit integration of the
//! single storage-node ODE, and seeded randomness in the stochastic light
//! profiles, so every figure regenerates identically.
//!
//! ```
//! use hems_sim::{FixedVoltageController, LightProfile, SystemConfig, Simulation};
//! use hems_pv::Irradiance;
//! use hems_units::{Seconds, Volts};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SystemConfig::paper_sc_system()?;
//! let light = LightProfile::constant(Irradiance::FULL_SUN);
//! let mut sim = Simulation::new(config, light, Volts::new(1.1))?;
//! let mut controller = FixedVoltageController::new(Volts::new(0.55));
//! let summary = sim.run(&mut controller, Seconds::from_milli(100.0));
//! assert!(summary.ledger.delivered_to_cpu.to_micro() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod engine;
mod error;
mod events;
mod jobs;
mod ledger;
mod light;
pub mod pool;
pub mod sweep;
mod trace;

pub use controller::{
    ControlDecision, Controller, DutyCycleController, FixedVoltageController, MpptDvfsController,
    OcSampling, PowerPath, SystemView,
};
pub use engine::{DvfsTransition, Simulation, SimulationSummary, SystemConfig};
pub use error::SimError;
pub use events::{Event, EventKind, EventLog};
pub use jobs::{Job, JobQueue};
pub use ledger::EnergyLedger;
pub use light::LightProfile;
pub use pool::{JobPanicError, WorkerPool};
pub use trace::{Sample, WaveformRecorder};
