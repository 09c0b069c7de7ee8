//! `hems-obs`: the workspace's dependency-free telemetry core.
//!
//! The paper's whole argument is measurement-driven control — the
//! time-based MPP estimator infers input power from observed timing
//! instead of sensing it directly. This crate gives the reproduction
//! the same discipline at the systems level: one place where counters,
//! gauges, histograms, and spans live, cheap enough to leave on in the
//! hot paths of the sweep engine and the serve plane.
//!
//! Design (DESIGN.md §12):
//!
//! - **Sharded atomics** — each metric is striped across 16
//!   cache-line-padded atomic stripes; a record is a relaxed RMW on
//!   the calling thread's stripe. No locks, no shared lines on the
//!   hot path. Stripes merge at snapshot time, so totals are exact
//!   and independent of thread interleaving.
//! - **Registries** — [`global()`] is the process-wide registry on
//!   the real monotonic clock; components needing reproducible or
//!   isolated numbers (chaos campaigns, per-server serve stats) own
//!   private [`Registry`] instances, optionally on a [`ManualClock`].
//! - **Spans** — [`span!`] returns a guard whose drop records elapsed
//!   nanoseconds into a histogram; durations come from the registry's
//!   [`Clock`], so tests measure exact, deterministic spans.
//! - **Export** — [`Snapshot::to_value`] builds a [`json::Value`] tree
//!   of integers under sorted keys, and [`Snapshot::render`] renders it
//!   with [`json`], the workspace's one JSON codec (wire protocol, lint
//!   output and bench reports use it too), so a snapshot parses back by
//!   construction; [`Snapshot::diff`] turns two snapshots into interval
//!   deltas for rate computation.
//! - **Kill switch** — [`set_enabled(false)`](set_enabled) reduces
//!   every record call to one relaxed load + branch; the
//!   `BENCH_obs.json` bench quantifies instrumented-vs-off overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod stats;
pub mod sync;

pub use clock::{monotonic_ns, Clock, ManualClock, MonotonicClock};
pub use metrics::{enabled, set_enabled, Counter, Gauge, Histogram};
pub use registry::{global, Registry};
pub use snapshot::{Bucket, HistogramSnapshot, Series, SeriesData, Snapshot};
pub use span::SpanGuard;
pub use sync::{relock, Latch};
