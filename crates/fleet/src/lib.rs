//! `hems-fleet`: an event-driven digital twin of a battery-less deployment.
//!
//! The paper's runtime ([`hems_intermittent`]) steps *one* node through a
//! circuit-accurate transient; the system it envisions is a deployment of
//! thousands of fully integrated battery-less sensors sharing one sky.
//! This crate co-simulates 100 000+ such nodes in a single process with
//! no thread-per-node and no per-node `Simulation` objects:
//!
//! * **scheduler** ([`wheel`]) — a hierarchical 256-way time wheel with
//!   deterministic same-tick FIFO ordering; every node wake, planning
//!   wave, storm boundary, and day rollover is one `u64`-payload event;
//! * **nodes** ([`node`]) — compact state machines (≤ 200 bytes each,
//!   compile-time asserted) whose checkpointed execution replays the
//!   exact commit arithmetic of [`hems_intermittent::IntermittentRuntime`]
//!   through a precomputed per-period [`node::Schedule`], batching whole
//!   chain iterations in O(1) under steady conditions;
//! * **weather** ([`weather`]) — one shared seeded regional irradiance
//!   field (diurnal arc × moving cloud fronts × storm overlays), so
//!   harvest droughts and brownouts are *correlated* across the fleet;
//! * **planning** ([`plan`]) — a client tier that quantizes each region's
//!   forecast into a few irradiance buckets and asks the paper's
//!   `optimal_point` solver for the day's operating point, either through
//!   a live loopback [`hems_serve::Client`] (a realistic high-QPS
//!   workload with hot cache-key skew) or through the pure in-process
//!   planner — the two answer byte-identically;
//! * **engine** ([`engine`]) — the campaign driver: seeded storms, sampled
//!   prefix-digest crash-consistency checks, [`hems_obs`] histograms and
//!   gauges on a manual clock, and a seed-reproducible JSON-lines report
//!   ([`report`]) round-tripped through the wire codec, `hems_obs::json`.
//!
//! Determinism is the contract: the same `(seed, node count)` yields a
//! byte-identical report regardless of host speed or serve thread count.
//! Wall-clock numbers (events/sec, node-steps/sec, peak RSS) live only in
//! `BENCH_fleet.json`, never in the report lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod error;
pub mod node;
pub mod plan;
pub mod report;
pub mod weather;
pub mod wheel;

pub use engine::{Fleet, FleetConfig, FleetReport};
pub use error::FleetError;
pub use node::{NodeModel, NodeState, Schedule};
pub use plan::{AnalyticPlans, OperatingPoint, PlanSource, ServePlans};
pub use weather::{Storm, WeatherField};
pub use wheel::{Event, TimeWheel};
