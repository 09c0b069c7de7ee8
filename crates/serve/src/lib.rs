//! `hems-serve`: a cached scenario-planning service.
//!
//! The offline story so far answers "what should this node do?" by
//! rebuilding devices and re-running solvers per question. This crate
//! turns that into a long-lived service: a TCP endpoint speaking
//! newline-delimited JSON where a fleet-management client names a
//! scenario (irradiance, storage capacitance, regulator topology, control
//! policy, optional deadline) and a query kind — the holistic optimal
//! operating point, the system MEP, the bypass decision, a sprint plan,
//! or a full transient-sweep summary — and the server
//!
//! 1. keys the request by its kind and the scenario fields that vary
//!    ([`ScenarioSpec::cache_key`], the one definition of a plan
//!    query's identity),
//! 2. serves repeats from a sharded LRU plan cache ([`cache`]), and
//! 3. solves each miss on the connection thread that read it
//!    ([`server`]), so one connection's answers leave in request order.
//!
//! Admission control keeps the service honest under load: at most
//! `threads` misses solve at once, a bounded number wait for a permit,
//! and a miss beyond that answers `overloaded` instead of waiting
//! without limit. A `stats` query exposes counters and latency
//! percentiles; a `metrics` query returns the full `hems_obs` telemetry
//! snapshot (the process-global sweep/pool/LUT series merged with this
//! server's `serve.*` series — see `DESIGN.md` §12); `shutdown` drains
//! in-flight solves before stopping.
//!
//! Everything is `std`-only — the wire format is the workspace's one
//! JSON codec, `hems_obs::json` (re-exported here as [`json`]), the
//! protocol lives in [`proto`], query execution in [`planner`].
//!
//! ## Quick start
//!
//! ```no_run
//! use hems_serve::{serve, ServeConfig};
//! let mut handle = serve("127.0.0.1:7878", ServeConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! handle.wait(); // until a wire `shutdown` query
//! ```
//!
//! See `examples/serve_client.rs` at the workspace root for a loopback
//! client exercising every query kind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod planner;
pub mod proto;
pub mod server;
pub mod stats;
pub mod wire;

pub use cache::PlanCache;
pub use client::{Client, ClientError, PlanAnswer, RetryPolicy};
pub use hems_obs::json;
pub use json::Value;
pub use proto::{QueryKind, Request, ScenarioSpec};
pub use server::{serve, ServeConfig, ServerHandle};
pub use stats::ServeStats;
