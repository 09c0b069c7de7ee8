//! The in-repo wall-clock benchmark harness and its two benches.
//!
//! `benches/sweep.rs` times the exact and batch sweep engines, the batch
//! kernels and the LUT solvers (`BENCH_sweep.json`); `benches/obs.rs`
//! prices the telemetry layer (`BENCH_obs.json`). Both run on the
//! [`harness`] (wall-clock median/p95 + throughput, no external crates).
//! The paper's figures and claims are not benches: `hems paper` in the
//! root package regenerates them without timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
