//! `hems-lint`: a dependency-free static-analysis gate for this workspace.
//!
//! Clippy enforces Rust-wide invariants; this crate enforces *repo*
//! invariants the paper's control plane depends on (DESIGN.md §10):
//!
//! 1. **Panic-freedom** (`panic`, `index`) — the service plane
//!    (`crates/serve`, the sim pool/sweep/engine, the core solvers, and
//!    this crate itself) must not `unwrap`/`expect`/`panic!`/
//!    `unreachable!`/`todo!`/`unimplemented!` or index slices directly
//!    outside tests. A poisoned lock or malformed request must degrade,
//!    not cascade.
//! 2. **Unit discipline** (`units`) — `pub fn` signatures in the physics
//!    crates must use `hems_units` quantity types, not raw `f64`/`f32`,
//!    unless the checked-in allowlist names them (ratios, counts).
//! 3. **Determinism** (`timing`) — solver/sim code must not read clocks,
//!    sleep, or read the environment; bit-identical replays are a
//!    correctness contract (serial/parallel sweep parity).
//! 4. **Clock discipline** (`clock`) — no raw `Instant::now()` /
//!    `SystemTime::now()` outside `hems_obs::clock`; every timestamp in
//!    the workspace flows through the telemetry clock (DESIGN.md §12),
//!    so deterministic replays can swap in a manual clock.
//! 5. **Crate hygiene** (`hygiene`) — crate roots carry
//!    `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]`; public
//!    `*Error` types implement `Display` + `std::error::Error`.
//!
//! The analysis is a hand-rolled lexer ([`lexer`]) plus token-level
//! scans ([`rules`]) — no syn, no serde, no crates.io, per the
//! workspace's offline-build rule. Escape hatches are explicit and
//! audited: inline `// hems-lint: allow(<rule>, reason = "...")`
//! directives (the reason is mandatory), two committed allowlists, and a
//! committed baseline file ([`workspace`]). The binary exits nonzero on
//! any non-baselined finding; `--json` emits machine-readable JSON lines
//! (rendered by the workspace's one JSON codec, `hems_obs::json`).
//!
//! ## Quick start
//!
//! ```text
//! cargo run --release -p hems-lint            # human-readable gate
//! cargo run --release -p hems-lint -- --json  # JSON lines for CI
//! cargo run -p hems-lint -- --write-baseline  # re-pin current findings
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod report;
pub mod rules;
pub mod source;
pub mod workspace;

pub use report::{Baseline, Finding};
pub use rules::RuleConfig;
pub use source::SourceFile;
pub use workspace::{analyze_workspace, load_baseline, load_config, Analysis};
