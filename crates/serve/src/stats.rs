//! Service counters and latency percentiles, on the shared telemetry
//! core.
//!
//! Every number here is a `hems_obs` metric registered in a per-server
//! [`Registry`] (named `serve.*`), so the same values power three views:
//! the legacy `stats` query (flat JSON, shape unchanged), the `metrics`
//! query (full registry snapshot, merged with the process-global
//! registry), and in-process assertions in tests. The registry is
//! per-server — not global — because test suites run several servers in
//! one process and assert exact per-server counts.
//!
//! Latency percentiles come from the `serve.latency_ns` histogram
//! (log-spaced buckets, ~19 % worst-case relative error) instead of the
//! old sort-the-window ring: recording is lock-free and constant-time,
//! and the histogram composes with snapshot diffing for interval rates.
//! A parity test below keeps the histogram quantiles honest against the
//! exact sort-based percentile the offline benches report with.

use crate::json::Value;
use hems_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Counters plus the service-latency and solve-time histograms, all
/// backed by a per-server [`Registry`].
#[derive(Debug, Clone)]
pub struct ServeStats {
    registry: Arc<Registry>,
    /// Requests parsed (all kinds, including refused ones).
    pub requests: Counter,
    /// Plan-cache hits.
    pub hits: Counter,
    /// Plan-cache misses admitted to a solve.
    pub misses: Counter,
    /// Requests refused by admission control.
    pub overloaded: Counter,
    /// Requests answered with `status: error`.
    pub errors: Counter,
    /// Solve panics answered with a retryable degraded response.
    pub faults: Counter,
    /// Connections reaped by the read deadline (idle/slow-loris).
    pub reaped: Counter,
    latency: Histogram,
    solve: Histogram,
}

impl ServeStats {
    /// Fresh zeroed stats over a fresh per-server registry.
    pub fn new() -> ServeStats {
        let registry = Arc::new(Registry::new());
        ServeStats {
            requests: registry.counter("serve.requests"),
            hits: registry.counter("serve.hits"),
            misses: registry.counter("serve.misses"),
            overloaded: registry.counter("serve.overloaded"),
            errors: registry.counter("serve.errors"),
            faults: registry.counter("serve.faults"),
            reaped: registry.counter("serve.reaped"),
            latency: registry.histogram("serve.latency_ns"),
            solve: registry.histogram("serve.solve_ns"),
            registry,
        }
    }

    /// The per-server registry backing these stats — the `metrics` query
    /// snapshots it, and the plan cache registers its counters in it.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one request's service latency (receipt → response write).
    pub fn record_latency_ns(&self, ns: f64) {
        self.latency.record(ns.max(0.0) as u64);
    }

    /// Records one miss's solve time (`planner::answer`, panics included).
    pub fn record_solve_ns(&self, ns: f64) {
        self.solve.record(ns.max(0.0) as u64);
    }

    /// The latency percentiles `(p50, p95)` in nanoseconds from the
    /// histogram, `None` with no samples yet.
    pub fn latency_percentiles(&self) -> Option<(f64, f64)> {
        let snap = self.latency.snapshot();
        if snap.count == 0 {
            return None;
        }
        Some((snap.quantile(0.50), snap.quantile(0.95)))
    }

    /// The stats snapshot served to a `stats` query. `queue_depth`
    /// (misses waiting for a solve permit), `cache_entries` and `workers`
    /// (solve permits) are sampled by the caller (they live outside this
    /// struct).
    pub fn snapshot(&self, queue_depth: usize, cache_entries: usize, workers: usize) -> Value {
        let load = |c: &Counter| Value::Num(c.total() as f64);
        let (p50, p95) = self
            .latency_percentiles()
            .map_or((Value::Null, Value::Null), |(p50, p95)| {
                (Value::Num(p50), Value::Num(p95))
            });
        Value::obj(vec![
            ("requests", load(&self.requests)),
            ("hits", load(&self.hits)),
            ("misses", load(&self.misses)),
            ("overloaded", load(&self.overloaded)),
            ("errors", load(&self.errors)),
            ("faults", load(&self.faults)),
            ("reaped", load(&self.reaped)),
            ("queue_depth", Value::Num(queue_depth as f64)),
            ("cache_entries", Value::Num(cache_entries as f64)),
            ("workers", Value::Num(workers as f64)),
            ("latency_p50_ns", p50),
            ("latency_p95_ns", p95),
        ])
    }
}

impl Default for ServeStats {
    fn default() -> ServeStats {
        ServeStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hems_obs::stats::percentile;

    #[test]
    fn percentiles_track_recorded_latencies() {
        let stats = ServeStats::new();
        assert_eq!(stats.latency_percentiles(), None);
        for i in 1..=100 {
            stats.record_latency_ns(i as f64 * 1000.0);
        }
        let (p50, p95) = stats.latency_percentiles().unwrap();
        assert!((p50 - 50_500.0).abs() < 1_000.0, "p50 = {p50}");
        assert!(p95 > 90_000.0 && p95 <= 100_000.0, "p95 = {p95}");
    }

    #[test]
    fn histogram_percentiles_match_the_sorted_reference() {
        // Parity with the pre-histogram implementation: the old path
        // sorted the samples and called `hems_obs::stats::percentile`.
        // The histogram answers from log-spaced buckets (ratio 2^(1/4)),
        // so it must agree within one bucket's relative width (~19 %).
        let stats = ServeStats::new();
        let mut samples = Vec::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4096 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let ns = 200.0 + (state % 2_000_000) as f64;
            samples.push(ns);
            stats.record_latency_ns(ns);
        }
        samples.sort_by(f64::total_cmp);
        let (p50, p95) = stats.latency_percentiles().unwrap();
        let exact50 = percentile(&samples, 50.0);
        let exact95 = percentile(&samples, 95.0);
        assert!(
            (p50 - exact50).abs() <= 0.19 * exact50,
            "p50 = {p50}, exact = {exact50}"
        );
        assert!(
            (p95 - exact95).abs() <= 0.19 * exact95,
            "p95 = {p95}, exact = {exact95}"
        );
    }

    #[test]
    fn latency_is_a_lifetime_histogram_not_a_window() {
        // The old ring forgot samples past LATENCY_WINDOW; the histogram
        // keeps the full distribution, so early outliers stay visible.
        let stats = ServeStats::new();
        stats.record_latency_ns(1_000_000_000.0);
        for _ in 0..8192 {
            stats.record_latency_ns(1_000.0);
        }
        let snap = stats.registry().snapshot();
        let hist = snap.histogram("serve.latency_ns").unwrap();
        assert_eq!(hist.count, 8193);
        assert!(hist.max >= 1_000_000_000, "outlier retained: {}", hist.max);
    }

    #[test]
    fn snapshot_renders_every_counter() {
        let stats = ServeStats::new();
        stats.requests.add(3);
        stats.record_latency_ns(42.0);
        let snap = stats.snapshot(2, 7, 4);
        assert_eq!(snap.get("requests").and_then(Value::as_f64), Some(3.0));
        assert_eq!(snap.get("queue_depth").and_then(Value::as_f64), Some(2.0));
        assert_eq!(snap.get("cache_entries").and_then(Value::as_f64), Some(7.0));
        assert_eq!(snap.get("workers").and_then(Value::as_f64), Some(4.0));
        assert!(snap.get("latency_p50_ns").unwrap().as_f64().is_some());
    }

    #[test]
    fn two_servers_have_independent_registries() {
        let a = ServeStats::new();
        let b = ServeStats::new();
        a.requests.inc();
        assert_eq!(a.requests.total(), 1);
        assert_eq!(b.requests.total(), 0);
    }
}
