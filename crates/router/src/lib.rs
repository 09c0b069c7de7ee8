//! `hems-router`: a consistent-hash routing front tier over sharded
//! `hems-serve` backends.
//!
//! One `hems-serve` process answers plan queries from an 8-shard LRU
//! cache; a fleet of millions outgrows any single cache. This crate
//! multiplies the cache instead of the process: a std-only
//! NDJSON-over-TCP router that
//!
//! 1. computes each plan query's 64-bit cache key with the backends' own
//!    `hems_serve::ScenarioSpec::cache_key`, so it is the key they cache
//!    under,
//! 2. places it on a 64-bit consistent-hash ring ([`ring`]) so a key
//!    always lands on the same backend shard — each shard's plan cache
//!    stays hot for exactly its key range, and aggregate cache capacity
//!    scales with the shard count,
//! 3. forwards the request line *verbatim* over a per-backend persistent
//!    connection pool ([`backend`]) and relays the response line
//!    verbatim, so a router-fronted answer is byte-identical to a
//!    direct one (the conformance plane's `serve_sharded` oracle pins
//!    this),
//! 4. keeps backends honest with seeded health probes driving an
//!    eject / half-open / rejoin state machine ([`health`]), per-shard
//!    bounded admission control answering explicit `overloaded`, and
//!    bounded retries with deterministic jittered backoff — the same
//!    retry semantics as `hems_serve::Client`, and
//! 5. supports hot reconfiguration: [`RouterHandle::drain_shard`] stops
//!    routing new work to a shard and blocks until its in-flight
//!    requests finish, [`RouterHandle::set_backend`] repoints the slot
//!    (e.g. at a restarted process), and
//!    [`RouterHandle::rejoin_shard`] puts it back in rotation — with
//!    zero dropped in-flight requests.
//!
//! The router answers `stats` itself (its own counters plus per-shard
//! rollups) and `metrics` by fetching every live shard's registry
//! snapshot, relabeling each with `Snapshot::with_prefix` (`shard0.*`,
//! `shard1.*`, …), and merging them with its own `router.*` series via
//! `Snapshot::merged`. Everything is dependency-free `std`; see
//! `DESIGN.md` §17.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod health;
pub mod ring;
pub mod server;
pub mod stats;

pub use health::{HealthPolicy, HealthState};
pub use ring::HashRing;
pub use server::{route, RouterConfig, RouterHandle};
pub use stats::RouterStats;
