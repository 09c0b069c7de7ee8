//! `hems-chaos`: seed-deterministic fault injection for the whole stack.
//!
//! The paper's premise is surviving hostile conditions: a battery-less
//! node browns out mid-computation and must resume correctly. This crate
//! *proves* the repo does, by injecting faults into its five planes and
//! asserting recovery:
//!
//! * **power** ([`power`]) — scheduled irradiance collapses drive the sim
//!   into brownouts at every checkpoint boundary of a reference task
//!   chain; the [`hems_intermittent::IntermittentRuntime`] commit stream
//!   of each faulted run must be prefix-identical (by FNV-1a digest) to
//!   the fault-free run, and commits must resume after the outage;
//! * **compute** ([`compute`]) — forced panics and artificial latency in
//!   [`hems_sim::WorkerPool`] jobs, verifying `run_jobs_result` isolates
//!   every failing slot under repeated, concurrent failure;
//! * **I/O** ([`net`]) — a chaos proxy in front of a live `hems-serve`
//!   instance tears NDJSON frames mid-byte, drops connections
//!   mid-response, and runs slow-loris clients, while the retrying
//!   [`hems_serve::Client`] must still get every healthy request
//!   answered and the server must finish with zero panics on its own
//!   threads;
//! * **router** ([`router`]) — seeded backend crashes/restarts and
//!   slow-backend (delaying proxy) episodes against a live 3-shard
//!   `hems-router` tier under retrying-client load: every replayed plan
//!   must answer byte-identically to its warm pre-fault result, and
//!   crashed shards must rejoin healthy after hot repointing;
//! * **fleet** ([`fleet`]) — regional brownout storms swept across an
//!   [`hems_fleet::Fleet`] digital twin: correlated harvest collapses
//!   kill whole neighbourhoods of nodes at once, and every storm must
//!   end with demonstrable sampled progress and zero commit-stream
//!   prefix-digest violations fleet-wide.
//!
//! Everything is driven by a [`FaultPlan`] seeded through the vendored
//! xorshift RNG ([`hems_units::XorShiftRng`]): the same seed yields the
//! same faults, the same retry schedules, and a byte-identical report.
//! The `hems-chaos` bin runs a campaign and emits one JSON line per
//! injected fault (validated through the wire codec, `hems_obs::json`) plus a
//! `BENCH_chaos.json` summary of survival/recovery rates.
//!
//! To reproduce a failing campaign, re-run with the seed it printed:
//! `cargo run -p hems-chaos -- --seed <N>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
mod error;
pub mod fleet;
pub mod net;
pub mod plan;
pub mod power;
pub mod report;
pub mod router;

pub use error::ChaosError;
pub use plan::{CampaignConfig, FaultPlan};
pub use report::{run_campaign, Campaign};
