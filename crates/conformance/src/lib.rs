//! Golden-fixture conformance gate and seeded differential fuzz plane.
//!
//! Four generations of fast paths — the PvLut/CpuLut device models, the
//! SoA batch kernels, the chunked and batch sweep engines,
//! and serve's sharded plan cache — all promise the same thing: *the
//! answer is the exact solver's answer*. This crate turns that promise
//! into one enforced plane with three parts:
//!
//! 1. **Fixtures** ([`fixtures`]) — canonical solver outputs captured
//!    into committed NDJSON golden files and diffed **bit-for-bit**; a
//!    mismatch produces a field-level report (JSON path, both values,
//!    both bit patterns, ulp distance), and intentional changes are
//!    re-captured with an explicit `--bless`.
//! 2. **Differential oracles** ([`oracles`]) — seeded generators
//!    ([`case`]) drive seven oracles that pit independent
//!    implementations of the same contract against each other: exact vs
//!    LUT solvers, scalar vs `_many` batch kernels, the exact sweep
//!    reference vs the chunked and batch engines, single- vs
//!    multi-threaded serve responses, torn NDJSON
//!    frames, the fleet node machine vs `IntermittentRuntime`, and the
//!    physics invariants of the transient simulator.
//! 3. **Shrinking** ([`shrink`]) — any divergence is deterministically
//!    minimized (drop scenarios, simplify specs, shrink grids, halve
//!    durations) and emitted as a one-line replayable repro
//!    (`oracle:seed:steps`), so a fuzz failure in CI is a paste-able
//!    local test case.
//!
//! The `hems-conformance` binary front-ends all three (`--check`,
//! `--bless`, `--fuzz`, `--replay`, `--corpus`, `--self-test`) and is
//! gated in `scripts/verify.sh`. Everything is `std`-only and
//! deterministic: the only clock is [`hems_obs::clock::monotonic_ns`],
//! used for throughput reporting and the fuzz time budget, never for
//! test semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod corpus;
pub mod error;
pub mod fixtures;
pub mod oracles;
pub mod shrink;

pub use case::CaseInput;
pub use error::ConformanceError;
pub use fixtures::Fixture;
pub use oracles::{Divergence, OracleCtx, OracleKind};
pub use shrink::Repro;
