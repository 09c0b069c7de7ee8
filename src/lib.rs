//! Workspace façade for the SOCC 2018 HEMS reproduction.
//!
//! Re-exports every crate in the workspace under one roof so examples and
//! integration tests can `use hems_repro::...`. See the individual crates
//! for detailed documentation; start with [`hems_core`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hems_core as core;
pub use hems_cpu as cpu;
pub use hems_imgproc as imgproc;
pub use hems_intermittent as intermittent;
pub use hems_mppt as mppt;
pub use hems_pv as pv;
pub use hems_regulator as regulator;
pub use hems_sim as sim;
pub use hems_storage as storage;
pub use hems_units as units;

pub mod paper;
