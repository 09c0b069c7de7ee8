//! Holistic energy management — the paper's contribution.
//!
//! Everything below Section III of the paper lives in this crate, built on
//! the substrate crates (`hems-pv`, `hems-regulator`, `hems-cpu`,
//! `hems-storage`, `hems-mppt`, `hems-sim`):
//!
//! * [`operating_point`] — the *unregulated* operating point: where the
//!   processor's max-speed load line intersects the solar I-V curve
//!   (Fig. 6a's "Maximum Performance (unregulated)").
//! * [`optimal_voltage`] — eqs. 1–4: the supply voltage maximizing clock
//!   speed subject to the solar maximum-power constraint *including* the
//!   regulator's efficiency profile (Fig. 6b: +31 % power, +18 % speed
//!   with the SC regulator).
//! * [`mep`] — eq. 5: the minimum-energy point *of the whole system*,
//!   `E_sys(V) = E_cyc(V) / η(V)`, which sits ≈ 0.1 V above the
//!   conventional MEP and saves up to ≈ 31 % (Fig. 7b).
//! * [`bypass`] — Section IV-B: below ≈ 25 % light the regulator's
//!   light-load losses exceed the MPP benefit and bypassing wins (Fig. 7a).
//! * [`deadline`] — eqs. 8–11: energy required vs energy available as a
//!   function of completion time; their intersection is the achievable
//!   deadline (Fig. 9a).
//! * [`sprint`] — eqs. 12–13: the "sprinting" schedule (slow first, fast
//!   later) that keeps the solar node at a more productive voltage and
//!   absorbs ≈ 10 % more energy (Fig. 9b).
//! * [`controller`] — the [`HolisticController`]: the runtime policy tying
//!   time-based MPP tracking, DVFS, low-light bypass and sprinting together
//!   inside the simulator (Fig. 11b).
//! * [`analysis`] — figure-level aggregation helpers (Figs. 6 and 7b, the
//!   headline numbers) that `hems paper` prints.
//! * [`eval`] — the [`PvSource`]/[`CpuEval`] abstraction that lets every
//!   solver above run on either the exact device models or their LUTs
//!   (`hems_pv::PvLut`, `hems_cpu::CpuLut`) without duplicated code.
//! * [`cachekey`] — the stable 64-bit FNV-1a [`KeyHasher`] and the
//!   consistent-hash ring helpers; `hems-serve` defines what a plan
//!   query's key covers (`ScenarioSpec::cache_key`).

// `!(a < b)` is used deliberately throughout this workspace: unlike
// `a >= b` it is `true` when either operand is NaN, which is exactly the
// reject-by-default behaviour the validation paths want.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bypass;
pub mod cachekey;
pub mod controller;
pub mod deadline;
mod error;
pub mod eval;
pub mod frontier;
pub mod mep;
pub mod operating_point;
pub mod optimal_voltage;
pub mod sprint;

pub use bypass::BypassPolicy;
pub use cachekey::KeyHasher;
pub use controller::{HolisticConfig, HolisticController, Mode};
pub use deadline::DeadlinePlan;
pub use error::CoreError;
pub use eval::{CpuEval, CpuEvalBatch, PvSource, PvSourceBatch};
pub use frontier::FrontierPoint;
pub use mep::{MepComparison, SystemMep};
pub use operating_point::UnregulatedPoint;
pub use optimal_voltage::RegulatedPlan;
pub use sprint::SprintPlan;
